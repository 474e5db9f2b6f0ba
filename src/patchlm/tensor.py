"""Minimal reverse-mode autodiff over numpy arrays.

Just enough machinery for the models in this package: broadcasting
elementwise ops, (batched) matmul, softmax, gather-style embedding lookup,
max pooling over contiguous row segments, a fused NLL-from-logits, and tiled
attention over one contiguous key span per query. The attention works from a
plan of its query tiles (each tile's slice of key columns, and a mask over
only the edge columns that some of its rows do not see), which callers can
build once and pass to every call over the same spans; its backward reuses
the plan, and it multiplies scores by contiguous kᵀ and vᵀ copies instead
of transposed views of k and v, whose head-sized inner dimension BLAS
handles slowly. Graphs are built eagerly, and only where some input
requires grad: an op on tensors that do not records no parents and no vjp,
so a forward pass over detached parameters builds no graph at all.
``backward()`` walks a topological order, accumulates vector-Jacobian
products into ``.grad`` and consumes the graph as it goes: each interior
node is released once its vjp has run, so its activations and gradient are
freed during the walk, and only leaves keep ``.grad``. A graph can be walked
once; a second ``backward()`` through it raises. Gradients are never mutated
in place, so views handed out by a vjp stay valid.

Dtype discipline: ops never upcast silently; python scalars stay weak, so a
float32 graph remains float32 and a float64 graph (used for gradient checks)
remains float64.
"""

from __future__ import annotations

import numpy as np

ATTN_TILE = 64  # query rows per tile in span_attention


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function in its tanh form, which cannot overflow."""
    return 0.5 + 0.5 * np.tanh(0.5 * x)


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


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "name", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._vjp = None
        self.name = name

    # -- graph construction ---------------------------------------------------

    @staticmethod
    def _result(data, parents, vjp) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._vjp = vjp
        return out

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
        """Accumulate the gradient of this tensor into every leaf's ``.grad``.

        Interior nodes are popped in reverse topological order; after a
        node's vjp has run, its ``grad`` and ``_parents`` are cleared and its
        vjp is replaced by one that raises. A second backward through a
        released node, from the same root or from another output that shares
        it, therefore raises instead of silently losing gradient.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, emitted = stack.pop()
            if emitted:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.asarray(grad, dtype=self.data.dtype)
        while topo:
            node = topo.pop()
            if node._vjp is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                for parent, g in node._vjp(node.grad):
                    if parent.requires_grad:
                        parent.grad = g if parent.grad is None else parent.grad + g
            node.grad = None
            node._vjp = _released
            node._parents = ()

    # -- elementwise arithmetic ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            return Tensor._result(
                self.data + other.data,
                (self, other),
                lambda g: [(self, _unbroadcast(g, self.shape)), (other, _unbroadcast(g, other.shape))],
            )
        return Tensor._result(self.data + other, (self,), lambda g: [(self, _unbroadcast(g, self.shape))])

    __radd__ = __add__

    def __neg__(self):
        return Tensor._result(-self.data, (self,), lambda g: [(self, -g)])

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return Tensor._result(
                self.data - other.data,
                (self, other),
                lambda g: [(self, _unbroadcast(g, self.shape)), (other, _unbroadcast(-g, other.shape))],
            )
        return Tensor._result(self.data - other, (self,), lambda g: [(self, _unbroadcast(g, self.shape))])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return Tensor._result(
                self.data * other.data,
                (self, other),
                lambda g: [
                    (self, _unbroadcast(g * other.data, self.shape)),
                    (other, _unbroadcast(g * self.data, other.shape)),
                ],
            )
        return Tensor._result(self.data * other, (self,), lambda g: [(self, _unbroadcast(g * other, self.shape))])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return Tensor._result(
                self.data / other.data,
                (self, other),
                lambda g: [
                    (self, _unbroadcast(g / other.data, self.shape)),
                    (other, _unbroadcast(-g * self.data / (other.data * other.data), other.shape)),
                ],
            )
        return self.__mul__(1.0 / other)

    def __pow__(self, c):
        assert np.isscalar(c), "only scalar exponents are supported"
        out_data = self.data**c
        return Tensor._result(out_data, (self,), lambda g: [(self, g * c * self.data ** (c - 1))])

    # -- shape ops --------------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.data.shape
        return Tensor._result(self.data.reshape(shape), (self,), lambda g: [(self, g.reshape(orig))])

    def swapaxes(self, a, b):
        return Tensor._result(self.data.swapaxes(a, b), (self,), lambda g: [(self, g.swapaxes(a, b))])

    def __getitem__(self, idx):
        def vjp(g):
            z = np.zeros_like(self.data)
            z[idx] = g
            return [(self, z)]

        return Tensor._result(self.data[idx], (self,), vjp)

    # -- reductions ---------------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        orig = self.data.shape

        def vjp(g):
            if axis is None:
                return [(self, np.broadcast_to(g, orig))]
            gx = g if keepdims else np.expand_dims(g, axis)
            return [(self, np.broadcast_to(gx, orig))]

        return Tensor._result(self.data.sum(axis=axis, keepdims=keepdims), (self,), vjp)

    def mean(self, axis=None, keepdims=False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- nonlinearities -------------------------------------------------------------

    def silu(self):
        s = _sigmoid(self.data)
        out_data = self.data * s
        return Tensor._result(out_data, (self,), lambda g: [(self, g * (s + out_data * (1.0 - s)))])

    # -- matmul ------------------------------------------------------------------------

    def __matmul__(self, other):
        assert isinstance(other, Tensor)
        assert self.ndim >= 2 and other.ndim >= 2

        def vjp(g):
            ga = _unbroadcast(g @ other.data.swapaxes(-1, -2), self.shape)
            gb = _unbroadcast(self.data.swapaxes(-1, -2) @ g, other.shape)
            return [(self, ga), (other, gb)]

        return Tensor._result(self.data @ other.data, (self, other), vjp)


# -------------------------------------------------------------------------------
# Free functions
# -------------------------------------------------------------------------------


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    datas = [t.data for t in tensors]
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        pieces = np.split(g, splits, axis=axis)
        return list(zip(tensors, pieces))

    return Tensor._result(np.concatenate(datas, axis=axis), tuple(tensors), vjp)


def embedding(table: Tensor, idx: np.ndarray) -> Tensor:
    """Row gather with scatter-add backward (indices may repeat)."""
    idx = np.asarray(idx)

    def vjp(g):
        z = np.zeros_like(table.data)
        np.add.at(z, idx, g)
        return [(table, z)]

    return Tensor._result(table.data[idx], (table,), vjp)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return [(x, y * (g - dot))]

    return Tensor._result(y, (x,), vjp)


def tile_plan(lo: np.ndarray, hi: np.ndarray) -> list[tuple]:
    """For each tile of ``ATTN_TILE`` query rows: ``(rows, cols, edges)``.

    ``cols`` is the slice [first, last) of keys the tile scores: the range its
    rows' spans cover. ``edges`` lists ``(tile_cols, hidden)`` pairs: a slice
    of the tile's columns and the boolean (rows, columns) mask of the scores
    there that the row does not see. Columns that every row of the tile sees
    need no mask, so when the tile's spans share a middle band
    [max lo, min hi), only the columns left and right of it are masked;
    otherwise the whole span range is.
    """
    starts = np.arange(0, len(lo), ATTN_TILE)
    first = np.minimum.reduceat(lo, starts)
    last = np.maximum.reduceat(hi, starts)
    band_lo = np.maximum.reduceat(lo, starts)
    band_hi = np.minimum.reduceat(hi, starts)
    plan = []
    for a, f, l, b0, b1 in zip(starts.tolist(), first.tolist(), last.tolist(),
                               band_lo.tolist(), band_hi.tolist()):
        rows = slice(a, a + ATTN_TILE)
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


def _tile_scores(qs: np.ndarray, kT: np.ndarray, rows, cols, edges) -> np.ndarray:
    """One tile's scaled scores, with the hidden ones set to -inf (their exp is exactly 0)."""
    scores = qs[:, rows] @ kT[:, :, cols]
    for tile_cols, hidden in edges:
        np.copyto(scores[:, :, tile_cols], -np.inf, where=hidden)
    return scores


def span_attention(q: Tensor, k: Tensor, v: Tensor, lo: np.ndarray, hi: np.ndarray,
                   scale: float, plan: list[tuple] | None = None) -> Tensor:
    """Multi-head softmax attention where query i sees keys [lo[i], hi[i]).

    ``q`` is (heads, n_q, d), ``k`` is (heads, n_k, d) and ``v`` is
    (heads, n_k, d_v). Queries are processed in tiles of ``ATTN_TILE`` rows
    under ``plan``, which must be ``tile_plan(lo, hi)`` (built here if not given)
    and which the backward reuses: a tile scores only the slice of keys its rows'
    spans cover, and masks only the edge columns that some of its rows do not see.
    Scores multiply by a contiguous kᵀ (heads, d, n_k) and the backward's
    ``g @ vᵀ`` by a contiguous vᵀ, never by a transposed view; the backward
    builds its own kᵀ instead of keeping the forward's alive until it runs.
    The forward keeps each row's log-sum-exp and the backward recomputes the
    probabilities tile by tile, so memory stays linear in the number of
    queries and keys. Every query must see at least one key.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    n_q, n_k = q.shape[1], k.shape[1]
    if lo.shape != (n_q,) or hi.shape != (n_q,):
        raise ValueError("span bounds must have one entry per query")
    if n_q and (lo.min() < 0 or hi.max() > n_k):
        raise ValueError("key spans out of range")
    if np.any(hi <= lo):
        raise ValueError("a query has no visible key")
    qs = q.data * scale
    if plan is None:
        plan = tile_plan(lo, hi)

    kT = np.ascontiguousarray(k.data.swapaxes(-1, -2))
    out = np.empty(q.shape[:2] + v.shape[2:], dtype=q.dtype)
    lse = np.empty(q.shape[:2] + (1,), dtype=q.dtype)
    for rows, cols, edges in plan:
        s = _tile_scores(qs, kT, rows, cols, edges)
        m = s.max(axis=-1, keepdims=True)
        e = np.exp(np.subtract(s, m, out=s), out=s)
        total = e.sum(axis=-1, keepdims=True)
        out[:, rows] = (e @ v.data[:, cols]) / total
        lse[:, rows] = m + np.log(total)

    def vjp(g):
        kT = np.ascontiguousarray(k.data.swapaxes(-1, -2))
        vT = np.ascontiguousarray(v.data.swapaxes(-1, -2))
        dq = np.empty_like(q.data)
        dk = np.zeros(k.shape, k.dtype)  # C order: k and v may be strided views
        dv = np.zeros(v.shape, v.dtype)
        delta = (g * out).sum(axis=-1, keepdims=True)
        for rows, cols, edges in plan:
            s = _tile_scores(qs, kT, rows, cols, edges)
            p = np.exp(np.subtract(s, lse[:, rows], out=s), out=s)
            g_t = g[:, rows]
            dv[:, cols] += p.swapaxes(-1, -2) @ g_t
            ds = g_t @ vT[:, :, cols]
            ds -= delta[:, rows]
            ds *= p
            dq[:, rows] = (ds @ k.data[:, cols]) * scale
            dk[:, cols] += ds.swapaxes(-1, -2) @ qs[:, rows]
        return [(q, dq), (k, dk), (v, dv)]

    return Tensor._result(out, (q, k, v), vjp)


def nll_from_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-row negative log-likelihood in nats, numerically stable."""
    targets = np.asarray(targets)
    n = logits.data.shape[0]
    m = logits.data.max(axis=1, keepdims=True)
    e = np.exp(logits.data - m)
    z = e.sum(axis=1)
    probs = e / z[:, None]
    out_data = m[:, 0] + np.log(z) - logits.data[np.arange(n), targets]

    def vjp(g):
        gl = probs * g[:, None]
        gl[np.arange(n), targets] -= g
        return [(logits, gl)]

    return Tensor._result(out_data, (logits,), vjp)


def segment_max(x: Tensor, starts: np.ndarray) -> Tensor:
    """Columnwise max over contiguous row segments; grad flows to the first argmax."""
    starts = np.asarray(starts, dtype=np.int64)
    n, d = x.data.shape
    m = len(starts)
    out_data = np.maximum.reduceat(x.data, starts, axis=0)

    def vjp(g):
        seg_of = np.searchsorted(starts, np.arange(n), side="right") - 1
        is_max = x.data == out_data[seg_of]
        offset = np.arange(n) - starts[seg_of]
        candidate = np.where(is_max, offset[:, None], n + 1)
        first = np.minimum.reduceat(candidate, starts, axis=0)  # (m, d)
        rows = (starts[:, None] + first).ravel()
        cols = np.tile(np.arange(d), m)
        z = np.zeros_like(x.data)
        np.add.at(z, (rows, cols), g.ravel())
        return [(x, z)]

    return Tensor._result(out_data, (x,), vjp)


def parameter(data: np.ndarray, name: str | None = None) -> Tensor:
    return Tensor(np.asarray(data), requires_grad=True, name=name)
