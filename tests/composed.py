"""The composed forms of the package's fused ops, the allocating optimizer,
the exact-max attention kernel, the per-level count build and the scanning
threshold bisection, kept as oracles.

``tensor.rms_norm``, ``attention``, ``gated_ffn`` and ``embedding_mean``
each replace a composition of smaller autodiff ops that kept every
intermediate alive until the backward. The smaller ops that only those
compositions used (subtraction, scalar power, mean, slicing, axis swaps,
silu, the gated product ``swiglu``, the single-table embedding, the head
split and merge, the rotary op and the Tensor-level span attention) live
here, so the compositions still run: a fused op's forward must equal its
composition bit for bit, and its vjp must agree with the composition's
autodiff up to rounding. ``gated_ffn``'s gradients equal its composition's
bit for bit. ``apply_rope`` and ``span_attention`` are Tensor ops over the
package's array-level rotation and tile kernel; ``rotate_pairs`` is the
even/odd composition the rotation must equal. ``adamw_step`` and
``global_grad_norm`` are the optimizer as it was before it ran in place and
read table gradients by rows: it reads every gradient as a dense array.
``exact_max_span_attention`` is the kernel as it was before the softmax
shift and normaliser were folded into its matmuls: it shifts each row by its
exact max and sums the normaliser in a pass of its own. ``dense_attention``
is the one dense reference: the full score matrix under an additive -inf
mask. ``train_counts`` is
the count model's build as it was before one pair-key buffer served every
level, and the saved model must equal its saved model byte for byte;
``calibrate_threshold`` is the plain bisection, which counts patches at every
step; the package's, which decides its steps by the lowest threshold that
reaches the target, must return the same threshold or the same error.
"""

from __future__ import annotations

import math

import numpy as np

from patchlm import tensor
from patchlm.entropy_lm import (DEFAULT_ALPHA, LN256, _KEY_MASK, EntropyModel, _as_bytes_array,
                                _Level, _pack_keys)
from patchlm.errors import ConfigError
from patchlm.patching import (CALIBRATION_ITERS, CALIBRATION_TOL, ENTROPY_THRESHOLDS, PatchingConfig,
                              _mean_size_at)
from patchlm.trainer import _decayable
from patchlm.tensor import Spans, Tensor, _sigmoid, _unbroadcast, concat


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


def swapaxes(x: Tensor, a: int, b: int) -> Tensor:
    return Tensor._result(x.data.swapaxes(a, b), (x,), lambda g: (g.swapaxes(a, b),))


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
    """``tensor._rotate`` as an op on (heads, n, head_dim) queries or keys; the
    backward rotates the gradient back, so it keeps only the tables."""
    return Tensor._result(tensor._rotate(x.data, cos, sin), (x,),
                          lambda g: (tensor._rotate(g, cos, -sin),))


def rotate_pairs(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
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


def gated_ffn(xn: Tensor, w_gate: Tensor, w_up: Tensor, w_down: Tensor) -> Tensor:
    return swiglu(xn @ w_gate, xn @ w_up) @ w_down


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


def _tile_scores(qs: np.ndarray, kT: np.ndarray, rows, cols, edges) -> np.ndarray:
    """One tile's scaled scores, with the hidden ones set to -inf (their exp is exactly 0)."""
    scores = qs[:, rows] @ kT[:, :, cols]
    for tile_cols, hidden in edges:
        np.copyto(scores[:, :, tile_cols], -np.inf, where=hidden)
    return scores


def split_heads(x: Tensor, heads: int) -> Tensor:
    n, d = x.shape
    return swapaxes(x.reshape(n, heads, d // heads), 0, 1)


def merge_heads(x: Tensor) -> Tensor:
    h, n, dh = x.shape
    return swapaxes(x, 0, 1).reshape(n, h * dh)


def span_attention(q: Tensor, k: Tensor, v: Tensor, spans: Spans) -> Tensor:
    """The package's tile kernel as an op: multi-head softmax attention,
    scaled by 1/sqrt(d), of (heads, n_q, d) queries over (heads, n_k, d) keys
    and (heads, n_k, d_v) values, where query i sees keys
    [spans.lo[i], spans.hi[i]). It keeps the scaled queries with ``-lse``,
    the keys, the values and the output, as the op did before the attention
    block was one op."""
    heads, n_q, d = q.shape
    scale = 1.0 / math.sqrt(d)
    kd, vd = k.data, v.data
    qx = np.empty((heads, n_q, d + 1), q.dtype)
    np.multiply(q.data, scale, out=qx[..., :d])
    out = tensor._span_forward(qx, kd, tensor._with_ones(vd, axis=-1), spans)

    def vjp(g):
        vT = tensor._with_ones(vd.swapaxes(-1, -2), axis=-2)
        dq, dk, dv = tensor._span_backward(qx, kd, vT, out, g, spans)
        dq *= scale
        return dq, dk, dv

    return Tensor._result(out, (q, k, v), vjp)


def attention(xq: Tensor, xkv: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, heads: int,
              spans: Spans, rope=None, attend=span_attention) -> Tensor:
    """The attention block as it was before it was one op: projections, head
    split, rotation, ``attend`` and the merged heads' output projection."""
    q = split_heads(xq @ wq, heads)
    k = split_heads(xkv @ wk, heads)
    v = split_heads(xkv @ wv, heads)
    if rope is not None:
        q = apply_rope(q, *rope)
        k = apply_rope(k, *rope)
    return merge_heads(attend(q, k, v, spans)) @ wo


def dense_attention(q: Tensor, k: Tensor, v: Tensor, allowed: np.ndarray) -> Tensor:
    """Multi-head softmax attention, scaled by 1/sqrt(d), over the full
    (n_q, n_k) score matrix, where query i sees key j iff ``allowed[i, j]``:
    an additive -inf mask, ``softmax`` and the mix of the values."""
    scores = (q * (1.0 / np.sqrt(q.shape[-1]))) @ swapaxes(k, -1, -2)
    return tensor.softmax(scores + np.where(allowed, 0.0, -np.inf)) @ v


def exact_max_span_attention(q: Tensor, k: Tensor, v: Tensor, spans: Spans) -> Tensor:
    """Multi-head softmax attention, scaled by 1/sqrt(d), where query i sees
    keys [spans.lo[i], spans.hi[i]).

    ``q`` is (heads, n_q, d), ``k`` is (heads, n_k, d) and ``v`` is
    (heads, n_k, d_v). Queries are processed in tiles of ``ATTN_TILE`` rows
    under ``spans.plan``, which the backward reuses: a tile scores only the
    slice of keys its rows' spans cover, and masks only the edge columns that
    some of its rows do not see.
    Scores multiply by a contiguous kᵀ (heads, d, n_k) and the backward's
    ``g @ vᵀ`` by a contiguous vᵀ, never by a transposed view; the backward
    builds its own kᵀ instead of keeping the forward's alive until it runs.
    The forward keeps each row's log-sum-exp and the backward recomputes the
    probabilities tile by tile, so memory stays linear in the number of
    queries and keys. It keeps the scaled queries, not ``q``, and returns a
    (heads, n_q, d_v) view of an (n_q, heads, d_v) array, so merging the heads
    is a view too, and the next matmul reads the array this backward keeps.
    """
    if len(spans.lo) != q.shape[1]:
        raise ValueError("span bounds must have one entry per query")
    if spans.n_keys > k.shape[1]:
        raise ValueError("key spans out of range")
    scale = 1.0 / math.sqrt(q.shape[-1])
    qs = q.data * scale
    kd, vd = k.data, v.data

    kT = np.ascontiguousarray(kd.swapaxes(-1, -2))
    out = np.empty((q.shape[1], q.shape[0]) + vd.shape[2:], dtype=q.dtype).swapaxes(0, 1)
    lse = np.empty(q.shape[:2] + (1,), dtype=q.dtype)
    for rows, cols, edges in spans.plan:
        s = _tile_scores(qs, kT, rows, cols, edges)
        m = s.max(axis=-1, keepdims=True)
        e = np.exp(np.subtract(s, m, out=s), out=s)
        total = e.sum(axis=-1, keepdims=True)
        out[:, rows] = (e @ vd[:, cols]) / total
        lse[:, rows] = m + np.log(total)

    def vjp(g):
        kT = np.ascontiguousarray(kd.swapaxes(-1, -2))
        vT = np.ascontiguousarray(vd.swapaxes(-1, -2))
        dq = np.empty_like(qs)
        dk = np.zeros(kd.shape, kd.dtype)  # C order: k and v may be strided views
        dv = np.zeros(vd.shape, vd.dtype)
        delta = (g * out).sum(axis=-1, keepdims=True)
        for rows, cols, edges in spans.plan:
            s = _tile_scores(qs, kT, rows, cols, edges)
            p = np.exp(np.subtract(s, lse[:, rows], out=s), out=s)
            g_t = g[:, rows]
            dv[:, cols] += p.swapaxes(-1, -2) @ g_t
            ds = g_t @ vT[:, :, cols]
            ds -= delta[:, rows]
            ds *= p
            dq[:, rows] = (ds @ kd[:, cols]) * scale
            dk[:, cols] += ds.swapaxes(-1, -2) @ qs[:, rows]
        return dq, dk, dv

    return Tensor._result(out, (q, k, v), vjp)


def count_pairs(keys: np.ndarray, nxt: np.ndarray,
                ctx_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(key, next) occurrences of ``ctx_len``-byte contexts counted as they were
    before the pair keys were built and sorted in place: ``np.unique`` of
    ``(key << 8) | next`` below length 8, a lexsort at 8."""
    if len(keys) == 0:
        e = np.zeros(0, dtype=np.uint64)
        return e, np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64)
    if ctx_len < 8:
        pairs, counts = np.unique((keys << np.uint64(8)) | nxt.astype(np.uint64), return_counts=True)
        return pairs >> np.uint64(8), (pairs & np.uint64(0xFF)).astype(np.uint8), counts.astype(np.int64)
    order = np.lexsort((nxt, keys))
    k = keys[order]
    x = nxt[order]
    new = np.empty(len(k), dtype=bool)
    new[0] = True
    new[1:] = (k[1:] != k[:-1]) | (x[1:] != x[:-1])
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, len(k))).astype(np.int64)
    return k[starts], x[starts], counts


def train_counts(corpus, order: int, alpha: float = DEFAULT_ALPHA) -> EntropyModel:
    """The count model as it was built before one pair-key buffer served every
    level: each document's packed keys for all levels, then per level a
    concatenated copy of the keys and next bytes of the documents longer than
    the level's context."""
    docs = [d for d in map(_as_bytes_array, corpus) if len(d)]
    packed = [_pack_keys(d, order) for d in docs]
    levels = []
    for k in range(order + 1):
        long_enough = [i for i, d in enumerate(docs) if len(d) > k]
        keys = np.concatenate([packed[i][k:] for i in long_enough] or [np.zeros(0, np.uint64)])
        keys &= _KEY_MASK[k]
        nxts = np.concatenate([docs[i][k:] for i in long_enough] or [np.zeros(0, np.uint8)])
        levels.append(_Level(*count_pairs(keys, nxts, k)))
    return EntropyModel(order, alpha, levels)


def calibrate_threshold(model: EntropyModel, sample, target_patch_size: float,
                        config: PatchingConfig | None = None) -> float:
    """The threshold bisection, counting patches at every step by scanning every
    score (``_mean_size_at``)."""
    config = config or PatchingConfig()
    scheme = config.scheme
    if not (1.0 < target_patch_size <= 64.0):
        raise ConfigError(f"target patch size must be in (1, 64], got {target_patch_size}")
    if len(ENTROPY_THRESHOLDS.get(scheme, ())) != 1:
        raise ConfigError("a target patch size calibrates the one threshold of entropy_global "
                          f"(theta_g) or entropy_monotonic (theta_r), not of {scheme!r}")
    docs = [_as_bytes_array(d) for d in sample]
    n_total = sum(len(d) for d in docs)
    if n_total < 10**5:
        raise ConfigError(f"calibration sample too small: {n_total} bytes < 1e5")
    values = np.concatenate([model.entropy_trace(d, reset_on_newline=config.reset_on_newline).values
                             for d in docs])
    doc_start = np.zeros(len(values), dtype=bool)
    doc_start[np.cumsum([0] + [len(d) for d in docs[:-1]])] = True
    jump = ENTROPY_THRESHOLDS[scheme] == ("theta_r",)
    score = np.diff(values, prepend=values[0]) if jump else values

    def mean_size(theta: float) -> float:
        return _mean_size_at(score, doc_start, theta, config.max_patch_size)

    lo, hi = (-LN256 - 1.0, LN256 + 1.0) if jump else (0.0, LN256 + 1.0)
    size_lo = mean_size(lo)
    size_hi = mean_size(hi)
    if size_lo > size_hi:
        raise ConfigError(f"mean patch size not monotone over bracket for {scheme}")
    if not (size_lo <= target_patch_size <= size_hi):
        raise ConfigError(
            f"target {target_patch_size} outside achievable mean patch size range "
            f"[{size_lo:.3f}, {size_hi:.3f}]")
    for _ in range(CALIBRATION_ITERS):
        mid = 0.5 * (lo + hi)
        if mean_size(mid) < target_patch_size:
            lo = mid
        else:
            hi = mid
    _, theta = min((abs(mean_size(t) - target_patch_size), t) for t in (lo, hi))
    achieved = mean_size(theta)
    if abs(achieved - target_patch_size) / target_patch_size > CALIBRATION_TOL:
        raise ConfigError(
            f"calibration missed target {target_patch_size}: closest achievable {achieved:.4f} "
            f"in [{size_lo:.3f}, {size_hi:.3f}]")
    return theta
