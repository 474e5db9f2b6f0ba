"""Count-based byte language model used for patch-boundary decisions.

The model stores (context, next-byte) counts for every context length up to
``order`` and realizes an interpolated add-alpha backoff: with pseudo-count
mass ``gamma = 256 * alpha`` the distribution for a length-k context is

    p_k(b | c) = (count(c, b) + gamma * p_{k-1}(b | c[1:])) / (total(c) + gamma)

so an unseen context backs off exactly to its suffix distribution and every
probability is strictly positive. Entropies are in nats throughout; callers
convert to bits only at reporting edges.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Document, DocumentSet

LN256 = float(np.log(256.0))
NEWLINE = 0x0A

_MAGIC = b"PLMENT01"


class EntropyModelError(Exception):
    pass


def _as_bytes_array(data) -> np.ndarray:
    if isinstance(data, Document):
        return data.data
    if isinstance(data, (bytes, bytearray)):
        return np.frombuffer(bytes(data), dtype=np.uint8)
    arr = np.asarray(data, dtype=np.uint8)
    return arr


def _pack_keys(arr: np.ndarray, k: int) -> np.ndarray:
    """Pack length-k contexts ending just before each position into uint64 keys.

    Returns keys for positions k..n-1 of ``arr``; key of context c_1..c_k is
    sum(c_j * 256**(k - j)) (big-endian, last byte least significant).
    """
    n = len(arr)
    if n <= k:
        return np.zeros(0, dtype=np.uint64)
    out = np.zeros(n - k, dtype=np.uint64)
    a64 = arr.astype(np.uint64)
    for t in range(1, k + 1):  # t bytes back from the predicted position
        out += a64[k - t : n - t] << np.uint64(8 * (t - 1))
    return out


def _pack_one(ctx: bytes) -> int:
    return int.from_bytes(ctx, "big")


def _count_pairs(keys: np.ndarray, nxt: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate (key, next) occurrences; output sorted by key then next byte."""
    if len(keys) == 0:
        e = np.zeros(0, dtype=np.uint64)
        return e, np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64)
    order = np.lexsort((nxt, keys))
    k = keys[order]
    x = nxt[order]
    new = np.empty(len(k), dtype=bool)
    new[0] = True
    new[1:] = (k[1:] != k[:-1]) | (x[1:] != x[:-1])
    starts = np.nonzero(new)[0]
    counts = np.diff(np.append(starts, len(k))).astype(np.int64)
    return k[starts], x[starts], counts


@dataclass
class _Level:
    """Sorted sparse (context, next, count) triples for one context length."""

    pair_ctx: np.ndarray  # uint64
    pair_next: np.ndarray  # uint8
    pair_cnt: np.ndarray  # int64
    ctx_keys: np.ndarray = field(init=False)  # unique context keys
    ctx_tot: np.ndarray = field(init=False)  # total count per context
    ctx_first: np.ndarray = field(init=False)  # first pair row per context

    def __post_init__(self):
        new = np.empty(len(self.pair_ctx), dtype=bool)
        if len(new):
            new[0] = True
            new[1:] = self.pair_ctx[1:] != self.pair_ctx[:-1]
        firsts = np.nonzero(new)[0]
        self.ctx_keys = self.pair_ctx[firsts]
        self.ctx_first = firsts
        bounds = np.append(firsts, len(self.pair_ctx))
        self.ctx_tot = np.add.reduceat(self.pair_cnt, firsts) if len(firsts) else np.zeros(0, np.int64)
        self._bounds = bounds

    def find(self, key: int) -> int:
        """Index of key in ctx_keys, or -1."""
        i = int(np.searchsorted(self.ctx_keys, np.uint64(key)))
        if i < len(self.ctx_keys) and int(self.ctx_keys[i]) == key:
            return i
        return -1

    def pair_slice(self, ctx_index: int) -> slice:
        return slice(int(self._bounds[ctx_index]), int(self._bounds[ctx_index + 1]))


@dataclass
class EntropyTrace:
    """Per-position next-byte entropies (nats) and where context was reset."""

    values: np.ndarray
    reset_positions: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


class EntropyModel:
    """Immutable after construction; concurrent read queries are safe."""

    VERSION = 1

    def __init__(self, order: int, alpha: float, levels: list[_Level]):
        if not (1 <= order <= 8):
            raise EntropyModelError(f"order must be in [1, 8], got {order}")
        if alpha <= 0:
            raise EntropyModelError("smoothing alpha must be > 0")
        self.order = order
        self.alpha = alpha
        self.levels = levels  # levels[k] holds length-k contexts, k = 0..order

        lvl0 = levels[0]
        c0 = np.zeros(256, dtype=np.float64)
        c0[lvl0.pair_next] = lvl0.pair_cnt
        self._n_train = float(c0.sum())
        self._gamma = 256.0 * alpha
        self.p0 = (c0 + alpha) / (c0.sum() + self._gamma)
        self._dist_memo: dict[bytes, np.ndarray] = {}
        self._h_memo: dict[bytes, float] = {}
        self._h_tables: list[np.ndarray] | None = None

    # -- distributions ------------------------------------------------------

    def _dist(self, ctx: bytes) -> np.ndarray:
        if not ctx:
            return self.p0
        cached = self._dist_memo.get(ctx)
        if cached is not None:
            return cached
        lev = self.levels[len(ctx)]
        i = lev.find(_pack_one(ctx))
        if i < 0:
            p = self._dist(ctx[1:])
        else:
            p = self._gamma * self._dist(ctx[1:]).copy()
            sl = lev.pair_slice(i)
            p[lev.pair_next[sl]] += lev.pair_cnt[sl]
            p /= float(lev.ctx_tot[i]) + self._gamma
        self._dist_memo[ctx] = p
        return p

    def next_byte_distribution(self, context) -> np.ndarray:
        """Smoothed distribution over the 256 byte values given trailing context."""
        ctx = bytes(_as_bytes_array(context).tobytes())
        if len(ctx) > self.order:
            ctx = ctx[-self.order :]
        return self._dist(ctx)

    def entropy_at(self, context) -> float:
        """Shannon entropy (nats) of :meth:`next_byte_distribution`."""
        ctx = bytes(_as_bytes_array(context).tobytes())
        if len(ctx) > self.order:
            ctx = ctx[-self.order :]
        h = self._h_memo.get(ctx)
        if h is None:
            p = self._dist(ctx)
            h = float(-np.sum(p * np.log(p)))
            self._h_memo[ctx] = h
        return h

    # -- bulk entropy tables (vectorized traces, order <= 3) -----------------

    def _ensure_h_tables(self):
        if self._h_tables is not None:
            return
        h0 = float(-np.sum(self.p0 * np.log(self.p0)))
        tables: list[np.ndarray] = [np.array([h0])]
        prev_dists = self.p0[None, :]
        prev_keys = np.zeros(1, dtype=np.uint64)
        for k in range(1, self.order + 1):
            lev = self.levels[k]
            n_ctx = len(lev.ctx_keys)
            h_k = np.empty(n_ctx, dtype=np.float64)
            keep = k < self.order
            kept = np.empty((n_ctx, 256), dtype=np.float64) if keep else None
            suffix = lev.ctx_keys % np.uint64(1 << (8 * (k - 1))) if k > 1 else np.zeros(n_ctx, np.uint64)
            sfx_idx = np.searchsorted(prev_keys, suffix)
            chunk = 1 << 15
            row_of_pair = np.searchsorted(lev.ctx_keys, lev.pair_ctx)
            for lo in range(0, n_ctx, chunk):
                hi = min(lo + chunk, n_ctx)
                m = self._gamma * prev_dists[sfx_idx[lo:hi]]
                p_lo = int(lev.ctx_first[lo])
                p_hi = int(lev.ctx_first[hi]) if hi < n_ctx else len(lev.pair_ctx)
                np.add.at(m, (row_of_pair[p_lo:p_hi] - lo, lev.pair_next[p_lo:p_hi]),
                          lev.pair_cnt[p_lo:p_hi].astype(np.float64))
                m /= (lev.ctx_tot[lo:hi, None] + self._gamma)
                h_k[lo:hi] = -np.sum(m * np.log(m), axis=1)
                if keep:
                    kept[lo:hi] = m
            tables.append(h_k)
            if keep:
                prev_dists = kept
                prev_keys = lev.ctx_keys
        self._h_tables = tables

    # -- traces ---------------------------------------------------------------

    def entropy_trace(self, data, reset_on_newline: bool = False) -> EntropyTrace:
        """Per-position entropies for one document.

        values[i] is the entropy of the next-byte distribution given the bytes
        before position i (at most ``order`` of them). With
        ``reset_on_newline`` the context is cleared immediately after each
        0x0A byte and the position where that takes effect is recorded.
        """
        arr = _as_bytes_array(data)
        n = len(arr)
        if n == 0:
            raise EntropyModelError("entropy_trace needs a non-empty byte sequence")

        seg_start = np.zeros(n, dtype=np.int64)
        resets = np.zeros(0, dtype=np.int64)
        if reset_on_newline:
            after = np.nonzero(arr == NEWLINE)[0] + 1
            after = after[after < n]
            seg_start[after] = after
            seg_start = np.maximum.accumulate(seg_start)
            resets = after
        avail = np.minimum(self.order, np.arange(n, dtype=np.int64) - seg_start)

        if self.order <= 3:
            values = self._trace_fast(arr, avail)
        else:
            values = np.empty(n, dtype=np.float64)
            raw = arr.tobytes()
            for i in range(n):
                values[i] = self.entropy_at(raw[i - int(avail[i]) : i])
        return EntropyTrace(values, resets)

    def _trace_fast(self, arr: np.ndarray, avail: np.ndarray) -> np.ndarray:
        self._ensure_h_tables()
        n = len(arr)
        values = np.empty(n, dtype=np.float64)
        key = np.zeros(n, dtype=np.uint64)
        a64 = arr.astype(np.uint64)
        # key[i] = packed trailing context of length avail[i]
        for t in range(1, self.order + 1):
            idx = np.nonzero(avail >= t)[0]
            key[idx] += a64[idx - t] << np.uint64(8 * (t - 1))
        # Resolve each position at its deepest seen context, backing off to the
        # suffix key on a miss (an unseen context has exactly its suffix's
        # distribution, so the entropy carries over unchanged).
        resolved = np.zeros(n, dtype=bool)
        lvl = avail.copy()
        for k in range(self.order, 0, -1):
            sel = np.nonzero(~resolved & (lvl == k))[0]
            if len(sel) == 0:
                continue
            lev = self.levels[k]
            if len(lev.ctx_keys):
                pos = np.searchsorted(lev.ctx_keys, key[sel])
                pos_c = np.minimum(pos, len(lev.ctx_keys) - 1)
                found = lev.ctx_keys[pos_c] == key[sel]
            else:
                found = np.zeros(len(sel), dtype=bool)
                pos_c = np.zeros(len(sel), dtype=np.int64)
            hit = sel[found]
            if len(hit):
                values[hit] = self._h_tables[k][pos_c[found]]
                resolved[hit] = True
            miss = sel[~found]
            key[miss] %= np.uint64(1 << (8 * (k - 1)))
            lvl[miss] = k - 1
        values[~resolved] = self._h_tables[0][0]
        return values

    # -- serialization --------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Versioned binary, order-major, sha256 checksum at the end."""
        parts = [_MAGIC, struct.pack("<HBd", self.VERSION, self.order, self.alpha)]
        for k in range(self.order + 1):
            lev = self.levels[k]
            parts.append(struct.pack("<Q", len(lev.pair_ctx)))
            parts.append(lev.pair_ctx.astype("<u8").tobytes())
            parts.append(lev.pair_next.astype("u1").tobytes())
            parts.append(lev.pair_cnt.astype("<i8").tobytes())
        payload = b"".join(parts)
        digest = hashlib.sha256(payload).digest()
        Path(path).write_bytes(payload + digest)

    @classmethod
    def load(cls, path: str | Path) -> "EntropyModel":
        raw = Path(path).read_bytes()
        if len(raw) < len(_MAGIC) + 32 or raw[: len(_MAGIC)] != _MAGIC:
            raise EntropyModelError(f"not an entropy model file: {path}")
        payload, digest = raw[:-32], raw[-32:]
        if hashlib.sha256(payload).digest() != digest:
            raise EntropyModelError(f"checksum mismatch in {path}")
        off = len(_MAGIC)
        version, order, alpha = struct.unpack_from("<HBd", payload, off)
        if version != cls.VERSION:
            raise EntropyModelError(f"unsupported entropy model version {version}")
        off += struct.calcsize("<HBd")
        levels = []
        for _ in range(order + 1):
            (n_pairs,) = struct.unpack_from("<Q", payload, off)
            off += 8
            ctx = np.frombuffer(payload, dtype="<u8", count=n_pairs, offset=off).astype(np.uint64)
            off += 8 * n_pairs
            nxt = np.frombuffer(payload, dtype="u1", count=n_pairs, offset=off).astype(np.uint8)
            off += n_pairs
            cnt = np.frombuffer(payload, dtype="<i8", count=n_pairs, offset=off).astype(np.int64)
            off += 8 * n_pairs
            levels.append(_Level(ctx, nxt, cnt))
        return cls(order, alpha, levels)


def train_counts(
    corpus: DocumentSet | Sequence,
    order: int,
    alpha: float = 0.01,
    max_pairs: int = 50_000_000,
) -> EntropyModel:
    """Accumulate (context, next-byte) counts within documents and smooth them.

    Counting never crosses document boundaries. Raises with a size estimate if
    the pair budget would be exceeded.
    """
    if not (1 <= order <= 8):
        raise EntropyModelError(f"order must be in [1, 8], got {order}")
    docs = [_as_bytes_array(d) for d in corpus]
    docs = [d for d in docs if len(d) > 0]
    if not docs:
        raise EntropyModelError("corpus is empty")
    total = sum(len(d) for d in docs)
    est = (order + 1) * total
    if est > max_pairs:
        raise EntropyModelError(
            f"order {order} over {total} bytes stores up to {est} (context, byte) pairs, "
            f"exceeding the budget of {max_pairs}; lower the order or raise max_pairs"
        )
    levels = []
    for k in range(order + 1):
        keys_parts, next_parts = [], []
        for d in docs:
            if len(d) <= k:
                continue
            keys_parts.append(_pack_keys(d, k))
            next_parts.append(d[k:])
        if keys_parts:
            keys = np.concatenate(keys_parts)
            nxts = np.concatenate(next_parts)
        else:
            keys = np.zeros(0, np.uint64)
            nxts = np.zeros(0, np.uint8)
        levels.append(_Level(*_count_pairs(keys, nxts)))
    return EntropyModel(order, alpha, levels)


# ---------------------------------------------------------------------------
# Trace export (plot-data table)
# ---------------------------------------------------------------------------

TRACE_COLUMNS = ("pos", "byte_hex", "glyph", "entropy_nats", "boundary")


def _glyph(b: int) -> str:
    if b == 0x20:
        return "_"
    if 0x21 <= b <= 0x7E:
        return chr(b)
    return "."


def export_trace(trace: EntropyTrace, data, boundaries=None) -> list[tuple]:
    """Rows of (pos, byte_hex, glyph, entropy_nats, boundary) for plotting.

    Spaces are rendered as underscores; other non-printable bytes as dots.
    ``boundaries`` may be a PatchBoundaries-like object with ``starts``.
    """
    arr = _as_bytes_array(data)
    starts = set()
    if boundaries is not None:
        starts = set(int(s) for s in boundaries.starts)
    rows = []
    for i in range(len(trace.values)):
        b = int(arr[i])
        rows.append((i, f"{b:02x}", _glyph(b), float(trace.values[i]), 1 if i in starts else 0))
    return rows


def write_trace_tsv(path: str | Path, trace: EntropyTrace, data, boundaries=None) -> None:
    rows = export_trace(trace, data, boundaries)
    with open(path, "w") as fh:
        fh.write("\t".join(TRACE_COLUMNS) + "\n")
        for r in rows:
            fh.write(f"{r[0]}\t{r[1]}\t{r[2]}\t{r[3]:.6f}\t{r[4]}\n")
