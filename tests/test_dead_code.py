"""No definition in the package lacks a reader in the package or the benchmark.

Every ``def`` and ``class`` in ``src/patchlm`` must be referenced somewhere in
``src/patchlm/*.py`` or ``perfbench/*.py``: as a name, as an attribute, or as a
string (the benchmark's tracer looks some names up with ``getattr``). Dunder
methods are called by the language and count as read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "patchlm"

# read by the tests alone: the finite-difference gradient check, and the
# parameter count that checks param_shapes against the FLOP model's
ALLOWED = {"model.grad_check", "flops.total_params"}


def test_every_definition_has_a_reader():
    defined, read = [], set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
            elif (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and path.parent == PACKAGE
                  and not (node.name.startswith("__") and node.name.endswith("__"))):
                defined.append((path.stem, node.name))
    unread = {f"{module}.{name}" for module, name in defined if name not in read}
    assert unread <= ALLOWED, f"definitions nothing reads: {sorted(unread - ALLOWED)}"
