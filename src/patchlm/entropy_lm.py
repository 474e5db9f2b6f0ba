"""Count-based byte language model used for patch-boundary decisions.

The model stores (context, next-byte) counts for every context length up to
``order`` and realizes an interpolated add-alpha backoff: with pseudo-count
mass ``gamma = 256 * alpha`` the distribution for a length-k context is

    p_k(b | c) = (count(c, b) + gamma * p_{k-1}(b | c[1:])) / (total(c) + gamma)

where p_{-1} is uniform, so an unseen context backs off exactly to its suffix
distribution and every probability is strictly positive. Traces read a table
of H_k(c) per stored context, built from the sparse pairs alone: with S the
bytes seen after c, q_b = p_{k-1}(b | c[1:]) and a = gamma / (total(c) + gamma),
every byte outside S has p_k(b | c) = a * q_b, so

    H_k(c) = -sum_S p log p - a * [(1 - sum_S q) log a - H_{k-1}(c[1:]) - sum_S q log q].

Entropies are in nats throughout; callers convert to bits only at reporting
edges.
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


class EntropyDataError(EntropyModelError):
    """The corpus or model file, not the settings, is unusable."""


def _as_bytes_array(data) -> np.ndarray:
    if isinstance(data, Document):
        return data.data
    if isinstance(data, (bytes, bytearray)):
        return np.frombuffer(bytes(data), dtype=np.uint8)
    return np.asarray(data, dtype=np.uint8)


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


def _count_pairs(keys: np.ndarray, nxt: np.ndarray,
                 ctx_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate (key, next) occurrences of ``ctx_len``-byte contexts; output
    sorted by key then next byte.

    Below length 8 the pair fits one uint64 key ``(key << 8) | next``, and a
    single sort of it is an order of magnitude faster than a two-key lexsort;
    8-byte contexts need 72 bits and take the lexsort.
    """
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
        self.ctx_tot = np.add.reduceat(self.pair_cnt, firsts) if len(firsts) else np.zeros(0, np.int64)


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

        self._gamma = 256.0 * alpha
        self._h_tables: list[np.ndarray] | None = None

    # -- entropy tables (one per context length) -----------------------------

    def _ensure_h_tables(self):
        """H_k of every stored context, level by level (closed form in the module docstring).

        Counts nest: every occurrence counted for (c, b) is also counted for
        (c[1:], b), so q_b is the stored probability of a pair one level down,
        found by one searchsorted on the pair keys (ctx << 8) | next, which fit
        in uint64 below length 8. Only the previous level's per-pair
        probabilities are kept, so memory is O(pairs). A loaded file whose
        counts do not nest raises.
        """
        if self._h_tables is not None:
            return
        tables: list[np.ndarray] = []
        prev_keys = prev_p = prev_ctx = prev_h = None
        for k, lev in enumerate(self.levels):
            n_pairs = len(lev.pair_ctx)
            if k == 0:  # backs off to the uniform distribution
                q = np.full(n_pairs, 1.0 / 256.0)
                h_sfx = np.full(len(lev.ctx_keys), LN256)
            else:
                mod = np.uint64(1 << (8 * (k - 1)))
                want = ((lev.pair_ctx % mod) << np.uint64(8)) | lev.pair_next.astype(np.uint64)
                at = np.searchsorted(prev_keys, want)
                if (at == len(prev_keys)).any() or (prev_keys[at] != want).any():
                    raise EntropyDataError(
                        f"counts do not nest: a length-{k} pair has no length-{k - 1} suffix pair")
                q = prev_p[at]
                h_sfx = prev_h[np.searchsorted(prev_ctx, lev.ctx_keys % mod)]
            first = lev.ctx_first
            denom = lev.ctx_tot + self._gamma
            a = self._gamma / denom
            p = (lev.pair_cnt + self._gamma * q) / np.repeat(denom, np.diff(np.append(first, n_pairs)))
            h = (-np.add.reduceat(p * np.log(p), first)
                 - a * ((1.0 - np.add.reduceat(q, first)) * np.log(a) - h_sfx
                        - np.add.reduceat(q * np.log(q), first)))
            tables.append(h)
            if k < self.order:
                prev_keys = (lev.pair_ctx << np.uint64(8)) | lev.pair_next.astype(np.uint64)
                prev_p, prev_ctx, prev_h = p, lev.ctx_keys, h
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

        return EntropyTrace(self._trace_fast(arr, avail), resets)

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
        h0 = self._h_tables[0]
        values[~resolved] = h0[0] if len(h0) else LN256  # no counts at all: uniform
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
            raise EntropyDataError(f"not an entropy model file: {path}")
        payload, digest = raw[:-32], raw[-32:]
        if hashlib.sha256(payload).digest() != digest:
            raise EntropyDataError(f"checksum mismatch in {path}")
        off = len(_MAGIC)
        version, order, alpha = struct.unpack_from("<HBd", payload, off)
        if version != cls.VERSION:
            raise EntropyDataError(f"unsupported entropy model version {version}")
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
        model = cls(order, alpha, levels)
        model._ensure_h_tables()  # rejects counts that do not nest
        return model


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
        raise EntropyDataError("corpus is empty")
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
        levels.append(_Level(*_count_pairs(keys, nxts, k)))
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
