"""Finite-difference gradient check of the whole model, at 64-bit precision."""

from __future__ import annotations

import numpy as np

from patchlm.errors import NumericError
from patchlm.model import BltParams, ModelConfig, Stream, lm_forward

GRAD_CHECK_ABS_FLOOR = 1e-7  # an absolute difference this small passes whatever its ratio


def grad_check(params: BltParams, stream: Stream, config: ModelConfig,
               eps: float = 1e-5, samples_per_tensor: int = 4, seed: int = 0) -> dict:
    """Central-difference check of every parameter tensor at 64-bit precision.

    Samples a few entries per tensor; an entry passes when the analytic and
    numeric values agree to a relative error of 1e-4, or to
    ``GRAD_CHECK_ABS_FLOOR`` absolutely for near-zero gradients. Returns a
    per-tensor report.
    """
    p64 = params.astype(np.float64)
    view = p64.detached()  # shares p64's arrays, so the perturbations below show

    def loss_value() -> float:
        return float(lm_forward(view, stream, config).loss.data)

    res = lm_forward(p64, stream, config)
    res.loss.backward()
    rng = np.random.Generator(np.random.PCG64(seed))
    report: dict[str, dict] = {}
    worst = 0.0
    for name, t in p64.tensors.items():
        grad = np.asarray(t.grad) if t.grad is not None else np.zeros_like(t.data)
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"non-finite analytic gradient in {name}")
        idxs = rng.choice(t.data.size, size=min(samples_per_tensor, t.data.size), replace=False)
        max_rel = 0.0
        for flat in idxs:
            orig = t.data.flat[flat]
            t.data.flat[flat] = orig + eps
            f_plus = loss_value()
            t.data.flat[flat] = orig - eps
            f_minus = loss_value()
            t.data.flat[flat] = orig
            numeric = (f_plus - f_minus) / (2 * eps)
            analytic = float(grad.flat[flat])
            diff = abs(analytic - numeric)
            if diff > GRAD_CHECK_ABS_FLOOR:
                max_rel = max(max_rel, diff / max(abs(analytic), abs(numeric)))
        report[name] = {"max_rel_err": max_rel, "passed": max_rel < 1e-4}
        worst = max(worst, max_rel)
    return {"tensors": report, "max_rel_err": worst, "passed": worst < 1e-4}
