"""The benchmark's tracer wraps names in ``patchlm`` by monkeypatching; each must exist and be restored."""

import importlib.util
from pathlib import Path

from patchlm import model, tensor, trainer

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_wraps_existing_names_and_restores_them():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    owners = (model, trainer, tensor.Tensor)
    before = [dict(vars(owner)) for owner in owners]
    with tracing.installed(tracing.Tracer()):
        wrapped = {(owner.__name__, name) for owner, names in zip(owners, before)
                   for name, value in vars(owner).items() if names.get(name) is not value}
    assert ("patchlm.model", "completed_patch_mask") in wrapped
    assert ("Tensor", "__matmul__") in wrapped
    assert [dict(vars(owner)) for owner in owners] == before
