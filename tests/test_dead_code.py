"""No definition in the package lacks a reader in the package or the benchmark.

Every ``def`` and ``class`` in ``src/patchlm`` must be referenced somewhere in
``src/patchlm/*.py`` or ``perfbench/*.py``: as a name, as an attribute, or as a
string (the benchmark's tracer looks some names up with ``getattr``). Dunder
methods are called by the language and count as read.

Likewise every defaulted parameter of a function in ``src/patchlm`` must be
passed by some call there or in the benchmark; one that never is holds one
value, which belongs in the body.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "patchlm"

# defaulted parameters no call passes: the entry point's test hook, numpy's
# array protocol, and resume, which only the tests exercise yet
ONE_VALUE_ALLOWED = {
    "cli.main(argv)",
    "tensor.RowGrad.__array__(dtype)", "tensor.RowGrad.__array__(copy)",
    "trainer.train(resume)",
}


def _sources():
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def test_every_definition_has_a_reader():
    defined, read = [], set()
    for path, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
            elif (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and path.parent == PACKAGE
                  and not (node.name.startswith("__") and node.name.endswith("__"))):
                defined.append((path.stem, node.name))
    unread = sorted(f"{module}.{name}" for module, name in defined if name not in read)
    assert not unread, f"definitions nothing reads: {unread}"


def _defaulted(fn: ast.FunctionDef, is_method: bool):
    """(position or None if keyword-only, name) of each defaulted parameter,
    positions counted after ``self``."""
    pos = fn.args.posonlyargs + fn.args.args
    pos = pos[1:] if is_method and pos and pos[0].arg in ("self", "cls") else pos
    for i, arg in enumerate(pos[len(pos) - len(fn.args.defaults):]):
        yield len(pos) - len(fn.args.defaults) + i, arg.arg
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def test_every_defaulted_parameter_is_passed():
    defaulted, passed = [], set()  # passed: (callee name, position or keyword), "*" for all
    for path, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                passed.update((callee, i) for i in range(len(node.args)))
                passed.update((callee, kw.arg or "*") for kw in node.keywords)
                if any(isinstance(a, ast.Starred) for a in node.args):
                    passed.add((callee, "*"))
            elif path.parent == PACKAGE and isinstance(node, (ast.Module, ast.ClassDef)):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        owner = getattr(node, "name", None)
                        # a constructor is called by its class's name
                        callee = owner if fn.name == "__init__" else fn.name
                        label = ".".join(filter(None, (path.stem, owner, fn.name)))
                        defaulted += [(callee, i, name, f"{label}({name})")
                                      for i, name in _defaulted(fn, owner is not None)]
    never = {label for callee, i, name, label in defaulted
             if not {(callee, i), (callee, name), (callee, "*")} & passed}
    assert never == ONE_VALUE_ALLOWED, (f"no call passes {sorted(never - ONE_VALUE_ALLOWED)}; "
                                        f"allowed but passed {sorted(ONE_VALUE_ALLOWED - never)}")
