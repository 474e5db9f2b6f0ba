"""Minimal reverse-mode autodiff over numpy arrays.

Just enough machinery for the models in this package: broadcasting addition
and multiplication, sums, reshapes and concatenation, (batched) matmul,
softmax, max pooling over contiguous row segments, a fused NLL-from-logits,
and an attention block over one contiguous key span per query. ``Spans``
holds those spans: it checks its bounds once, when it is built, and builds
the plan of its query tiles (each tile's slice of key columns, and a mask
over only the edge columns that some of its rows do not see) once, on first
use, for every attention call over it. A tile ends where a row's span start
jumps, as at a document start, so no tile scores the keys between two
documents. The array-level tile kernel (``_span_forward`` and
``_span_backward``) shifts each row's softmax by a bound on its scores over
the row's own span, so keys a row does not see never move its result, and
folds the shift and the normaliser into its matmuls.

The model's per-byte blocks are single ops as well: ``rms_norm``,
``attention`` (projections, rotary embeddings, the tile kernel and the
output projection), ``gated_ffn`` (a SwiGLU feed-forward block) and
``embedding_mean`` (a masked mean of rows gathered from several tables).
Each computes exactly the numpy sequence of the composition of small ops it
replaces, but keeps only what its backward reads and recomputes the rest,
where the composition kept every intermediate alive until the backward ran.
An attention block's graph holds its inputs, its four weights, its merged
attention output and one log-sum-exp per row and head; its backward
recomputes the queries, keys and values, three small matmuls and a rotation.
A feed-forward block keeps none of its (n, d_ff) arrays: its backward
recomputes both input projections.
``embedding_mean`` keeps each table's gradient by rows, as a ``RowGrad``,
since a step touches a few hundred of a hash table's 4,096 rows; it reads as
the dense ``np.add.at`` scatter bit for bit.

The graph links small ``_Node``s, not values: a node owns a gradient, its
inputs' nodes and a vjp, and a ``Tensor`` holds its ``data`` and its node
(``requires_grad`` and ``grad`` read the node). Every vjp closes over exactly
the arrays it reads, never over a ``Tensor``, so a value lives only while its
``Tensor`` or a vjp that reads it lives. The vjps of a matmul, of
``attention`` and of ``gated_ffn`` read their left inputs, but where one is
the output of ``rms_norm`` in a graph, the vjp closes over a function that
rebuilds it bit for bit from the arrays the norm's own vjp keeps (``x``, the
per-row scale and the gain), so the output itself is freed once its
``Tensor`` is; each backward rebuilds each norm output it reads once. Graphs
are built eagerly, and only where some input requires grad, so a forward
pass over detached parameters builds no graph and attaches no rebuild
function. ``backward()`` walks the nodes in topological order and consumes
the graph as it goes: each interior node is released once its vjp has run,
which frees its gradient and the arrays its vjp read, and only leaves keep
``.grad``. A graph can be walked once; a second ``backward()`` through it
raises. Gradients are never mutated in place, so views handed out by a vjp
stay valid.

Dtype discipline: ops never upcast silently; python scalars stay weak, so a
float32 graph remains float32 and a float64 graph (used for gradient checks)
remains float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

ATTN_TILE = 64  # most query rows per attention tile, and the span-start jump that ends a tile
SHIFT_MARGIN = 60.0  # nats the attention softmax shift sits below each row's score bound
MIN_NORMALISER = 2.0**-60  # a row normaliser below this is recomputed with the exact row max


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function in its tanh form, 0.5 + 0.5 tanh(x / 2), which cannot
    overflow; computed in one new array."""
    s = np.multiply(x, 0.5)
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    return s


def _released(g):
    raise RuntimeError("backward() through a graph that a previous backward() released")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to ``shape`` after numpy broadcasting."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class _Node:
    """A gradient, the inputs' nodes (``None`` where an input requires no grad)
    and the vjp, which returns one gradient per input; a leaf has no vjp."""

    __slots__ = ("grad", "parents", "vjp", "__weakref__")

    def __init__(self, parents: tuple = (), vjp=None):
        self.grad, self.parents, self.vjp = None, parents, vjp


class Tensor:
    __slots__ = ("data", "name", "_node", "_rebuild", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self._node = _Node() if requires_grad else None
        self._rebuild = None
        self.name = name

    # -- graph construction ---------------------------------------------------

    @staticmethod
    def _result(data, inputs, vjp, rebuild=None) -> "Tensor":
        """The op's output. ``rebuild``, if given, recomputes ``data`` bit for
        bit from arrays ``vjp`` keeps anyway; the backward of the op that reads
        ``data`` calls it instead of keeping it. An output outside a graph gets none."""
        out = Tensor(data)
        parents = tuple(t._node for t in inputs)
        if any(p is not None for p in parents):
            out._node = _Node(parents, vjp)
            out._rebuild = rebuild
        return out

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> np.ndarray | RowGrad | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g):
        self._node.grad = g

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        tag = f" name={self.name}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"

    def backward(self, grad=None):
        """Accumulate ``grad`` (ones by default, of this tensor's shape) into every leaf's ``.grad``.

        Interior nodes are popped in reverse topological order; after a
        node's vjp has run, its gradient and parents are cleared and its
        vjp is replaced by one that raises. A second backward through a
        released node, from the same root or from another output that shares
        it, therefore raises instead of silently losing gradient.
        """
        if self._node is None:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        elif np.shape(grad) != self.shape:
            raise ValueError(f"backward() seed of shape {np.shape(grad)} for a tensor of shape {self.shape}")
        topo: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(self._node, False)]
        while stack:
            node, emitted = stack.pop()
            if emitted:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if p is not None and id(p) not in seen:
                    stack.append((p, False))
        self._node.grad = np.asarray(grad, dtype=self.data.dtype)
        while topo:
            node = topo.pop()
            if node.vjp is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                for parent, g in zip(node.parents, node.vjp(node.grad)):
                    if parent is not None:
                        parent.grad = g if parent.grad is None else parent.grad + g
            node.grad = None
            node.vjp = _released
            node.parents = ()

    # -- elementwise arithmetic ------------------------------------------------

    def __add__(self, other):
        shape = self.shape
        if isinstance(other, Tensor):
            other_shape = other.shape
            return Tensor._result(self.data + other.data, (self, other),
                                  lambda g: (_unbroadcast(g, shape), _unbroadcast(g, other_shape)))
        return Tensor._result(self.data + other, (self,), lambda g: (_unbroadcast(g, shape),))

    __radd__ = __add__

    def __mul__(self, other):
        a = self.data
        if isinstance(other, Tensor):
            b = other.data
            return Tensor._result(a * b, (self, other),
                                  lambda g: (_unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape)))
        shape = a.shape
        return Tensor._result(a * other, (self,), lambda g: (_unbroadcast(g * other, shape),))

    __rmul__ = __mul__

    # -- shape ops --------------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.data.shape
        return Tensor._result(self.data.reshape(shape), (self,), lambda g: (g.reshape(orig),))

    # -- reductions ---------------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        orig = self.data.shape

        def vjp(g):
            if axis is None:
                return (np.broadcast_to(g, orig),)
            gx = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gx, orig),)

        return Tensor._result(self.data.sum(axis=axis, keepdims=keepdims), (self,), vjp)

    # -- matmul ------------------------------------------------------------------------

    def __matmul__(self, other):
        assert isinstance(other, Tensor)
        assert self.ndim >= 2 and other.ndim >= 2
        a, b = self.data, other.data
        a_shape, a_of = a.shape, self._rebuild or (lambda: a)  # a rebuild keeps ``a`` out of the graph

        def vjp(g):
            ga = _unbroadcast(g @ b.swapaxes(-1, -2), a_shape)
            return ga, _unbroadcast(a_of().swapaxes(-1, -2) @ g, b.shape)

        return Tensor._result(a @ b, (self, other), vjp)


# -------------------------------------------------------------------------------
# Free functions
# -------------------------------------------------------------------------------


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    datas = [t.data for t in tensors]
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]

    return Tensor._result(np.concatenate(datas, axis=axis), tensors,
                          lambda g: np.split(g, splits, axis=axis))


@dataclass(frozen=True, eq=False)
class RowGrad:
    """A table's gradient kept by rows: row ``rows[i]`` (strictly increasing)
    of a ``shape`` table has gradient ``values[i]``, every other row zero. It
    reads as its dense array (``dense()``, ``np.asarray``); ``+`` is dense."""

    rows: np.ndarray
    values: np.ndarray
    shape: tuple

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape, self.values.dtype)
        out[self.rows] = self.values
        return out

    def __array__(self, dtype=None, copy=None):
        return self.dense() if dtype is None else self.dense().astype(dtype, copy=False)

    def __add__(self, other):
        return self.dense() + other


def _row_grad(shape: tuple, ids: np.ndarray, valid: np.ndarray | None, g: np.ndarray) -> RowGrad:
    """``np.add.at(zeros(shape), ids[valid], g[valid])`` kept by rows, bit for bit:
    a stable sort groups each row's ids in stream order; the first gives
    ``g + 0.0``, as ``np.add.at``'s ``0 + g``, and the rest are added one by
    one (a pairwise segment sum, as in ``np.add.reduceat``, rounds otherwise)."""
    at = np.arange(len(ids)) if valid is None else np.flatnonzero(valid)
    at = at[np.argsort(ids[at], kind="stable")]
    sorted_ids = ids[at]
    first = np.diff(sorted_ids, prepend=-1) != 0
    values = g[at[first]] + 0.0
    np.add.at(values, np.cumsum(first)[~first] - 1, g[at[~first]])
    return RowGrad(sorted_ids[first], values, shape)


def embedding_mean(lookups: list[tuple[Tensor, np.ndarray, np.ndarray | None]]) -> Tensor:
    """Row i is the mean of ``table[ids[i]]`` over the ``(table, ids, valid)``
    lookups whose boolean ``valid[i]`` is set; ``valid=None`` sets every row.

    The rows are summed in lookup order and then scaled by one over their
    count. The backward keeps only the ids, the masks and that scale, and
    gives each table the summed gradient of its valid ids' rows (ids may
    repeat) as a ``RowGrad``, not a dense table.
    """
    dtype = lookups[0][0].dtype
    total, count = None, np.zeros(len(lookups[0][1]), dtype)
    for table, ids, valid in lookups:
        rows = table.data[ids]
        if valid is not None:
            rows = rows * valid.astype(dtype)[:, None]
        total = rows if total is None else total + rows
        count += 1.0 if valid is None else valid
    scale = (1.0 / count)[:, None]
    scatters = [(table.shape, ids, valid) for table, ids, valid in lookups]

    def vjp(g):
        g = g * scale
        return [_row_grad(shape, ids, valid, g) for shape, ids, valid in scatters]

    return Tensor._result(total * scale, [t for t, _, _ in lookups], vjp)


def rms_norm(x: Tensor, gain: Tensor, eps: float) -> Tensor:
    """``x * (mean(x²) + eps)^-½ * gain`` over the last axis.

    The backward keeps only ``x`` and the per-row reciprocal RMS, and
    recomputes the normalised rows from them; so does the backward of a
    matmul that reads the output.
    """
    xd, gd = x.data, gain.data
    inv_d = 1.0 / xd.shape[-1]
    rstd = ((xd * xd).sum(axis=-1, keepdims=True) * inv_d + eps) ** -0.5

    def normed():
        out = xd * rstd
        out *= gd
        return out

    def vjp(g):
        xhat = xd * rstd
        gx = g * gd
        dx = rstd * (gx - xhat * ((gx * xhat).sum(axis=-1, keepdims=True) * inv_d))
        return dx, _unbroadcast(g * xhat, gd.shape)

    return Tensor._result(normed(), (x, gain), vjp, normed)


def rope_cache(positions: np.ndarray, head_dim: int, theta: float, dtype) -> tuple[np.ndarray, np.ndarray]:
    """``_rotate``'s (n, head_dim) tables at ``positions``. Channel pair i
    turns at frequency theta^(-2i / head_dim); the tables hold its cosine on
    both channels, and its sine, negated on the even channel."""
    half = head_dim // 2
    inv_freq = theta ** (-np.arange(half, dtype=np.float64) * 2.0 / head_dim)
    angles = positions[:, None].astype(np.float64) * inv_freq[None, :]
    cos, sin = np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)
    return np.repeat(cos, 2, axis=1), np.stack((-sin, sin), axis=-1).reshape(len(positions), head_dim)


def _rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rotate each (even, odd) channel pair of (heads, n, head_dim) queries or
    keys: ``x * cos + swap(x) * sin``, where ``swap`` exchanges the two
    channels of each pair, into ``out`` (a new contiguous array if none).

    ``cos`` and ``sin`` are (n, head_dim) tables: each pair's cosine on both
    its channels, and its sine, negated on the even channel
    (``rope_cache``). Every product and sum is then contiguous, and equals the
    even/odd form ``(xe cos - xo sin, xe sin + xo cos)`` bit for bit. Under
    ``-sin`` it rotates a gradient back: ``g cos + swap(g sin)``, bit for bit.
    """
    out = np.multiply(x, cos, out=out)
    swapped = _swap_pairs(x)
    swapped *= sin
    out += swapped
    return out


def _swap_pairs(a: np.ndarray) -> np.ndarray:
    """A contiguous copy of ``a`` with channels 2i and 2i + 1 of its last axis exchanged."""
    out = np.empty(a.shape, a.dtype)
    out[..., 0::2] = a[..., 1::2]
    out[..., 1::2] = a[..., 0::2]
    return out


def gated_ffn(xn: Tensor, w_gate: Tensor, w_up: Tensor, w_down: Tensor) -> Tensor:
    """``(silu(xn @ w_gate) * (xn @ w_up)) @ w_down``, a SwiGLU feed-forward block.

    The backward keeps only ``xn`` (its rebuild, where it is an ``rms_norm``
    output) and the weights, and recomputes both (n, d_ff) projections and
    the sigmoid once. Each product and sum is that of the composition of
    matmuls and ``silu(a) * b``, so outputs and gradients equal it bit for
    bit; the in-place order keeps at most four (n, d_ff) arrays alive.
    """
    xd, wg, wu, wd = xn.data, w_gate.data, w_up.data, w_down.data
    x_of = xn._rebuild or (lambda: xd)  # a rebuild keeps ``xd`` out of the graph
    a = xd @ wg
    gated = _sigmoid(a)
    gated *= a
    gated *= xd @ wu

    def vjp(g):
        x = x_of()
        silu, b = x @ wg, x @ wu
        s = _sigmoid(silu)
        silu *= s
        dw_down = (silu * b).T @ g
        d = g @ wd.T  # the gated product's gradient
        b *= d  # silu's gradient
        db = np.multiply(d, silu, out=d)
        dw_up = x.T @ db
        dx = db @ wu.T
        da = np.subtract(1.0, s, out=db)  # db is read: its buffer takes silu' = s + silu (1 - s)
        da *= silu
        da += s
        da *= b
        dx += da @ wg.T
        return dx, x.T @ da, dw_up, dw_down

    return Tensor._result(gated @ wd, (xn, w_gate, w_up, w_down), vjp)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    m = x.data.max(axis=-1, keepdims=True)
    e = np.exp(x.data - m)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return Tensor._result(y, (x,), vjp)


def tile_plan(lo: np.ndarray, hi: np.ndarray) -> list[tuple]:
    """For each tile of query rows: ``(rows, cols, edges)``.

    A tile holds at most ``ATTN_TILE`` consecutive rows, and a new one starts
    wherever a row's ``lo`` differs from the previous row's by more than
    ``ATTN_TILE``, in either direction: where a document starts, its first
    rows see keys far from those their predecessors see, and a tile that held
    both would score every key column in between. ``cols`` is the slice
    [first, last) of keys the tile scores: the range its rows' spans cover.
    ``edges`` lists ``(tile_cols, hidden)`` pairs: a slice of the tile's
    columns and the boolean (rows, columns) mask of the scores there that the
    row does not see. Columns that every row of the tile sees need no mask, so
    when the tile's spans share a middle band [max lo, min hi), only the
    columns left and right of it are masked; otherwise the whole span range is.
    """
    n = len(lo)
    cuts = [0, *(np.flatnonzero(np.abs(np.diff(lo)) > ATTN_TILE) + 1).tolist(), n]
    starts = [s for a, b in zip(cuts, cuts[1:]) for s in range(a, b, ATTN_TILE)]
    at = np.array(starts, np.int64)
    first = np.minimum.reduceat(lo, at)
    last = np.maximum.reduceat(hi, at)
    band_lo = np.maximum.reduceat(lo, at)
    band_hi = np.minimum.reduceat(hi, at)
    plan = []
    for a, z, f, l, b0, b1 in zip(starts, starts[1:] + [n], first.tolist(), last.tolist(),
                                  band_lo.tolist(), band_hi.tolist()):
        rows = slice(a, z)
        lo_t, hi_t = lo[rows, None], hi[rows, None]
        edges = []
        if b0 <= b1:  # every row sees [b0, b1): mask only the columns left and right of it
            if f < b0:
                edges.append((slice(0, b0 - f), np.arange(f, b0) < lo_t))
            if b1 < l:
                edges.append((slice(b1 - f, l - f), np.arange(b1, l) >= hi_t))
        else:
            j = np.arange(f, l)
            edges.append((slice(0, l - f), (j < lo_t) | (j >= hi_t)))
        plan.append((rows, slice(f, l), edges))
    return plan


@dataclass(frozen=True)
class Spans:
    """Query i sees keys [lo[i], hi[i]); every query sees at least one key."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        if self.lo.ndim != 1 or self.hi.shape != self.lo.shape:
            raise ValueError("span bounds must have one entry per query")
        if len(self.lo) and self.lo.min() < 0:
            raise ValueError("key spans out of range")
        if np.any(self.hi <= self.lo):
            raise ValueError("a query has no visible key")

    @cached_property
    def n_keys(self) -> int:
        """The fewest keys these spans fit: one past the last key any query sees."""
        return int(self.hi.max(initial=0))

    @cached_property
    def plan(self) -> list[tuple]:
        """The tile plan, built once for every attention call over these spans."""
        return tile_plan(self.lo, self.hi)

    @cached_property
    def _range_index(self) -> tuple[int, np.ndarray, np.ndarray]:
        """``range_max``'s lookup: the number of sparse-table levels, and for each
        query the flat positions in the table of the two level-t windows of 2**t
        keys that cover its span exactly, t = floor(log2(hi - lo))."""
        level = np.frexp(self.hi - self.lo)[1].astype(np.int64) - 1
        base = level * self.n_keys
        return int(level.max(initial=0)) + 1, base + self.lo, base + self.hi - (1 << level)

    def range_max(self, x: np.ndarray) -> np.ndarray:
        """``max(x[..., lo[i]:hi[i]])`` for each query i, over x's last axis.

        A sparse table: level t holds, at key j, the max of the up to 2**t keys
        from j, and each span is the union of two windows of one level."""
        levels, first, second = self._range_index
        n = self.n_keys
        table = np.empty(x.shape[:-1] + (levels, n), x.dtype)
        table[..., 0, :] = x[..., :n]
        for t in range(1, levels):
            w = 1 << (t - 1)
            np.maximum(table[..., t - 1, :n - w], table[..., t - 1, w:], out=table[..., t, :n - w])
            table[..., t, n - w:] = table[..., t - 1, n - w:]
        table = table.reshape(x.shape[:-1] + (levels * n,))
        return np.maximum(table[..., first], table[..., second])

    def dense(self, n_keys: int) -> np.ndarray:
        """The (n_queries, n_keys) boolean mask these spans describe."""
        j = np.arange(n_keys)
        return (self.lo[:, None] <= j) & (j < self.hi[:, None])


def _tile_scores(qx: np.ndarray, kT: np.ndarray, rows, cols, edges) -> np.ndarray:
    """One tile's scores ``qx @ kT``, with the hidden ones set to -inf (their exp is exactly 0)."""
    scores = qx[:, rows] @ kT[:, :, cols]
    for tile_cols, hidden in edges:
        np.copyto(scores[:, :, tile_cols], -np.inf, where=hidden)
    return scores


def _with_ones(x: np.ndarray, axis: int) -> np.ndarray:
    """A contiguous copy of ``x`` with one more entry, a 1, at the end of ``axis``."""
    shape = list(x.shape)
    shape[axis] += 1
    out = np.empty(shape, x.dtype)
    head = (slice(None),) * (axis % x.ndim)
    out[head + (slice(0, -1),)] = x
    out[head + (-1,)] = 1
    return out


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...d,...d->...", a, b)


def _span_forward(qx: np.ndarray, kd: np.ndarray, v1: np.ndarray, spans: Spans) -> np.ndarray:
    """The tile kernel's forward: multi-head softmax attention where query i
    sees keys [spans.lo[i], spans.hi[i]).

    ``qx`` is (heads, n_q, d + 1) and holds the scaled queries in
    ``qx[..., :d]``, ``kd`` is (heads, n_k, d) and ``v1`` (heads, n_k,
    d_v + 1) holds the values with a last column of ones. Returns the
    (heads, n_q, d_v) output as a view of an (n_q, heads, d_v) array, so
    merging the heads is a view too, and leaves each row's ``-lse`` (its
    log-sum-exp) in ``qx[..., d]``, for ``_span_backward``.

    Queries are processed in tiles under ``spans.plan``, which the backward
    reuses: a tile scores only the slice of keys its rows' spans cover, and
    masks only the edge columns that some of its rows do not see. A row's
    softmax is the same under any shift of its scores, so the shift only has
    to keep the exps finite. Row i's is its score bound
    ``|q_i| max_{j in span} |k_j|`` (Cauchy-Schwarz, on the scaled queries)
    less ``SHIFT_MARGIN`` nats, and never below 0, so no exp exceeds
    e**SHIFT_MARGIN. The max runs over row i's own span (``spans.range_max``),
    not the tile's columns, so keys row i does not see cannot move its shift,
    and its output stays bitwise independent of them. The queries carry
    ``-shift`` in their last column against a row of ones in kᵀ, so a tile is
    score matmul, mask, exp and ``e @ [v|1]``, whose last column is the
    normaliser: no max, subtraction or sum pass. A row whose normaliser is
    below ``MIN_NORMALISER`` (the bound was so loose that its exps lost
    precision or underflowed), or whose ``e @ [v|1]`` is not finite, is
    recomputed from its unshifted scores less their exact max. That choice is
    per row, so it too reads only the row's own span. Scores multiply by a
    contiguous kᵀ copy, never by a transposed view of k, whose head-sized
    inner dimension BLAS handles slowly.
    """
    if len(spans.lo) != qx.shape[1]:
        raise ValueError("span bounds must have one entry per query")
    if spans.n_keys > kd.shape[1]:
        raise ValueError("key spans out of range")
    heads, n_q, d = qx.shape[0], qx.shape[1], kd.shape[-1]
    d_v = v1.shape[-1] - 1
    qs = qx[..., :d]
    bound = np.sqrt(_row_dot(qs, qs)) * np.sqrt(spans.range_max(_row_dot(kd, kd)))
    np.negative(np.maximum(bound - SHIFT_MARGIN, 0), out=qx[..., d])
    kT = _with_ones(kd.swapaxes(-1, -2), axis=-2)
    ev = np.empty((heads, n_q, d_v + 1), qx.dtype)  # e @ [v|1]: unnormalised outputs, normalisers
    for rows, cols, edges in spans.plan:
        e = _tile_scores(qx, kT, rows, cols, edges)
        ev_t = np.matmul(np.exp(e, out=e), v1[:, cols], out=ev[:, rows])
        if not (ev_t[..., d_v:].min() >= MIN_NORMALISER and np.isfinite(ev_t.sum())):
            ok = (ev_t[..., d_v:] >= MIN_NORMALISER) & np.isfinite(ev_t).all(axis=-1, keepdims=True)
            s = _tile_scores(qs, kT[:, :d], rows, cols, edges)
            m = s.max(axis=-1, keepdims=True)
            exact = np.exp(np.subtract(s, m, out=s), out=s) @ v1[:, cols]
            np.copyto(ev_t, exact, where=~ok)
            np.copyto(qx[:, rows, d:], -m, where=~ok)
    out = np.empty((n_q, heads, d_v), dtype=qx.dtype).swapaxes(0, 1)
    np.divide(ev[..., :d_v], ev[..., d_v:], out=out)
    qx[..., d:] -= np.log(ev[..., d_v:])
    return out


def _span_backward(qx: np.ndarray, kd: np.ndarray, vT: np.ndarray, out: np.ndarray,
                   g: np.ndarray, spans: Spans) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tile kernel's backward: the gradients of the scaled queries, the
    keys and the values, given ``_span_forward``'s ``qx`` (with ``-lse`` in
    its last column), keys ``kd``, its output ``out`` and the output's
    gradient ``g``. ``vT`` is (heads, d_v + 1, n_k): vᵀ over a row of ones.

    The score matmul returns ``s - lse``, so p is one exp; ``-delta`` rides
    in a column of g against the row of ones in vᵀ, so ``ds`` is one matmul
    and one product. Memory stays linear in the number of queries and keys.
    """
    heads, n_q, d = qx.shape[0], qx.shape[1], kd.shape[-1]
    d_v = vT.shape[1] - 1
    kT = _with_ones(kd.swapaxes(-1, -2), axis=-2)
    gx = np.empty(g.shape[:-1] + (d_v + 1,), g.dtype)
    gx[..., :d_v] = g
    np.negative(_row_dot(g, out), out=gx[..., d_v])
    dq = np.empty((heads, n_q, d), qx.dtype)
    dk = np.zeros(kd.shape, kd.dtype)
    dv = np.zeros((heads, vT.shape[2], d_v), vT.dtype)
    for rows, cols, edges in spans.plan:
        p = _tile_scores(qx, kT, rows, cols, edges)
        np.exp(p, out=p)
        dv[:, cols] += p.swapaxes(-1, -2) @ gx[:, rows, :d_v]
        ds = gx[:, rows] @ vT[:, :, cols]
        ds *= p
        np.matmul(ds, kd[:, cols], out=dq[:, rows])
        dk[:, cols] += ds.swapaxes(-1, -2) @ qx[:, rows, :d]
    return dq, dk, dv


def attention(xq: Tensor, xkv: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, heads: int,
              spans: Spans, rope: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
    """A multi-head attention block without its residual: the heads of
    ``xq @ wq``, ``xkv @ wk`` and ``xkv @ wv`` are the queries, keys and
    values, q and k are rotated by the ``rope`` tables (``rope_cache``) if
    given, query i attends over keys [spans.lo[i], spans.hi[i]) with scores
    scaled by 1/sqrt(head_dim), and the merged heads are projected by ``wo``.

    The backward keeps only the inputs (their rebuilds, where they are
    ``rms_norm`` outputs; one for both when ``xkv is xq``), the four weights,
    the merged attention output and each row's log-sum-exp, and recomputes q,
    k and v. Each head's projection runs on its own, straight into the layout
    the tile kernel reads: the scaled queries next to their shift column, and
    [v|1] in the forward and [vᵀ;1] in the backward, so v is never copied;
    the tests check that this equals the columns of the full product bit for
    bit. Every other product and sum is that of the composition of matmuls,
    rotations and tile kernel, so the output equals it bit for bit.
    """
    xd, kvd = xq.data, xkv.data
    wqd, wkd, wvd, wod = wq.data, wk.data, wv.data, wo.data
    same = xkv is xq
    x_of = xq._rebuild or (lambda: xd)  # a rebuild keeps ``xd`` out of the graph
    kv_of = xkv._rebuild or (lambda: kvd)
    n_q, n_k, dtype = len(xd), len(kvd), xd.dtype
    dh = wqd.shape[1] // heads
    scale = 1.0 / math.sqrt(dh)

    def queries_and_keys(x, kv):
        """``qx`` with the scaled, rotated queries in ``qx[..., :dh]``, and the rotated keys."""
        qx = np.empty((heads, n_q, dh + 1), dtype)
        q = qx[..., :dh] if rope is None else np.empty((heads, n_q, dh), dtype)
        k = np.empty((heads, n_k, dh), dtype)
        for h in range(heads):
            np.matmul(x, wqd[:, h * dh:(h + 1) * dh], out=q[h])
            np.matmul(kv, wkd[:, h * dh:(h + 1) * dh], out=k[h])
        if rope is not None:
            _rotate(q, *rope, out=qx[..., :dh])
            k = _rotate(k, *rope)
        qx[..., :dh] *= scale
        return qx, k

    qx, kd = queries_and_keys(xd, kvd)
    v1 = np.empty((heads, n_k, dh + 1), dtype)
    for h in range(heads):
        np.matmul(kvd, wvd[:, h * dh:(h + 1) * dh], out=v1[h, :, :dh])
    v1[..., dh] = 1
    out = _span_forward(qx, kd, v1, spans)
    neg_lse = qx[..., dh].copy()
    merged = out.swapaxes(0, 1).reshape(n_q, heads * dh)  # a view

    def vjp(g):
        x = x_of()
        kv = x if same else kv_of()
        qx, kd = queries_and_keys(x, kv)
        qx[..., dh] = neg_lse
        vT = np.empty((heads, dh + 1, n_k), dtype)
        for h in range(heads):
            np.matmul(wvd[:, h * dh:(h + 1) * dh].T, kv.T, out=vT[h, :dh])
        vT[:, dh] = 1
        g_heads = (g @ wod.T).reshape(n_q, heads, dh).swapaxes(0, 1)
        dq, dk, dv = _span_backward(qx, kd, vT, merged.reshape(n_q, heads, dh).swapaxes(0, 1),
                                    g_heads, spans)
        dq *= scale
        if rope is not None:
            cos, sin = rope
            dq, dk = _rotate(dq, cos, -sin), _rotate(dk, cos, -sin)
        dq, dk, dv = (a.swapaxes(0, 1).reshape(-1, heads * dh) for a in (dq, dk, dv))
        gq, gk, gv = dq @ wqd.T, dk @ wkd.T, dv @ wvd.T
        dw = (x.T @ dq, kv.T @ dk, kv.T @ dv, merged.T @ g)
        # a shared input sums its three gradients in the order the composition's backward does
        return ((gq + gk) + gv, *dw) if same else (gq, gk + gv, *dw)

    inputs = (xq, wq, wk, wv, wo) if same else (xq, xkv, wq, wk, wv, wo)
    return Tensor._result(merged @ wod, inputs, vjp)


def nll_from_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-row negative log-likelihood in nats, numerically stable. The backward
    keeps the logits, which the caller holds anyway, and each row's max and
    normaliser, and recomputes the softmax from them."""
    targets = np.asarray(targets)
    x = logits.data
    rows = np.arange(x.shape[0])
    m = x.max(axis=1, keepdims=True)
    e = np.subtract(x, m)
    z = np.exp(e, out=e).sum(axis=1)
    out_data = m[:, 0] + np.log(z) - x[rows, targets]

    def vjp(g):
        gl = np.subtract(x, m)
        np.exp(gl, out=gl)
        gl /= z[:, None]
        gl *= g[:, None]
        gl[rows, targets] -= g
        return (gl,)

    return Tensor._result(out_data, (logits,), vjp)


def segment_max(x: Tensor, starts: np.ndarray) -> Tensor:
    """Columnwise max over contiguous row segments; grad flows to the first argmax."""
    starts = np.asarray(starts, dtype=np.int64)
    xd = x.data
    n, d = xd.shape
    m = len(starts)
    out_data = np.maximum.reduceat(xd, starts, axis=0)

    def vjp(g):
        seg_of = np.searchsorted(starts, np.arange(n), side="right") - 1
        is_max = xd == out_data[seg_of]
        offset = np.arange(n) - starts[seg_of]
        candidate = np.where(is_max, offset[:, None], n + 1)
        first = np.minimum.reduceat(candidate, starts, axis=0)  # (m, d)
        rows = (starts[:, None] + first).ravel()
        cols = np.tile(np.arange(d), m)
        z = np.zeros_like(xd)
        np.add.at(z, (rows, cols), g.ravel())
        return (z,)

    return Tensor._result(out_data, (x,), vjp)


def parameter(data: np.ndarray, name: str | None = None) -> Tensor:
    return Tensor(np.asarray(data), requires_grad=True, name=name)
