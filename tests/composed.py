"""The composed forms of the package's fused ops, and the allocating
optimizer, kept as oracles.

``tensor.rms_norm``, ``apply_rope``, ``swiglu`` and ``embedding_mean`` each
replace a composition of smaller autodiff ops that kept every intermediate
alive until the backward. The smaller ops that only those compositions used
(subtraction, scalar power, mean, slicing, silu and the single-table
embedding) live here, unchanged, so the compositions still run: a fused op's
forward must equal its composition bit for bit, and its vjp must agree with
the composition's autodiff up to rounding. ``adamw_step`` and
``global_grad_norm`` are the optimizer as it was before it ran in place and
read table gradients by rows: it reads every gradient as a dense array.
"""

from __future__ import annotations

import math

import numpy as np

from patchlm.trainer import _decayable
from patchlm.tensor import Tensor, _sigmoid, _unbroadcast, concat


def sub(a: Tensor, b) -> Tensor:
    a_shape = a.shape
    if isinstance(b, Tensor):
        b_shape = b.shape
        return Tensor._result(a.data - b.data, (a, b),
                              lambda g: (_unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)))
    return Tensor._result(a.data - b, (a,), lambda g: (_unbroadcast(g, a_shape),))


def power(x: Tensor, c: float) -> Tensor:
    xd = x.data
    return Tensor._result(xd**c, (x,), lambda g: (g * c * xd ** (c - 1),))


def mean(x: Tensor, axis=None, keepdims=False) -> Tensor:
    count = x.data.size if axis is None else x.data.shape[axis]
    return x.sum(axis=axis, keepdims=keepdims) * (1.0 / count)


def getitem(x: Tensor, idx) -> Tensor:
    shape, dtype = x.shape, x.dtype

    def vjp(g):
        z = np.zeros(shape, dtype)
        z[idx] = g
        return (z,)

    return Tensor._result(x.data[idx], (x,), vjp)


def silu(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)
    out = x.data * s
    return Tensor._result(out, (x,), lambda g: (g * (s + out * (1.0 - s)),))


def embedding(table: Tensor, idx: np.ndarray) -> Tensor:
    """Row gather with scatter-add backward (indices may repeat)."""
    idx = np.asarray(idx)
    shape, dtype = table.shape, table.dtype

    def vjp(g):
        z = np.zeros(shape, dtype)
        np.add.at(z, idx, g)
        return (z,)

    return Tensor._result(table.data[idx], (table,), vjp)


def rms_norm(x: Tensor, gain: Tensor, eps: float) -> Tensor:
    ms = mean(x * x, axis=-1, keepdims=True)
    return x * power(ms + eps, -0.5) * gain


def apply_rope(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """The even/odd form, on the (n, head_dim / 2) tables inside ``rope_cache``'s."""
    cos, sin = cos[:, 0::2], sin[:, 1::2]
    h, n, d = x.shape
    xe = getitem(x, (Ellipsis, slice(0, None, 2)))
    xo = getitem(x, (Ellipsis, slice(1, None, 2)))
    out_e = sub(xe * cos, xo * sin)
    out_o = xe * sin + xo * cos
    paired = concat([out_e.reshape(h, n, d // 2, 1), out_o.reshape(h, n, d // 2, 1)], axis=-1)
    return paired.reshape(h, n, d)


def swiglu(a: Tensor, b: Tensor) -> Tensor:
    return silu(a) * b


def embedding_mean(lookups) -> Tensor:
    """The first lookup sets every row; the others are masked by ``valid``."""
    (table, ids, _), *masked = lookups
    dtype = table.dtype
    total = embedding(table, ids)
    divisor = np.ones(len(ids), dtype=dtype)
    for table, ids, valid in masked:
        total = total + embedding(table, ids) * valid.astype(dtype)[:, None]
        divisor += valid.astype(dtype)
    return total * (1.0 / divisor)[:, None]


def global_grad_norm(params) -> float:
    total = 0.0
    for t in params.tensors.values():
        if t.grad is not None:
            g = np.asarray(t.grad, dtype=np.float64)
            total += float((g * g).sum())
    return math.sqrt(total)


def adamw_step(params, state, spec, lr: float) -> float:
    gnorm = global_grad_norm(params)
    if not math.isfinite(gnorm):
        state.skipped += 1
        return gnorm
    scale = spec.grad_clip / gnorm if gnorm > spec.grad_clip else 1.0
    state.t += 1
    bc1 = 1.0 - spec.beta1**state.t
    bc2 = 1.0 - spec.beta2**state.t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        g = np.asarray(g, dtype=p.data.dtype) * p.data.dtype.type(scale)
        m = state.m[name]
        v = state.v[name]
        m *= spec.beta1
        m += (1.0 - spec.beta1) * g
        v *= spec.beta2
        v += (1.0 - spec.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + spec.eps)
        if spec.weight_decay and _decayable(name, p.data.ndim):
            p.data -= (lr * spec.weight_decay) * p.data
        p.data -= lr * update
    return gnorm
