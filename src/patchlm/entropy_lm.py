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

The H_k tables are built once, on the first trace (or on ``load``), next to
one direct-index table of the contexts of length at most 2: 1 + 256 + 65,536 =
65,793 float64 entries (526 KB), each holding the entropy its backoff resolves
to. Building is idempotent and a reader sees the tables only once they are
complete, so concurrent reads stay safe. A trace reads every position's
short context from that table and searches the sparse levels 3..order
deepest first, backing off on a miss.

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

from .errors import ConfigError, DataError, read_input

LN256 = float(np.log(256.0))
NEWLINE = 0x0A

_MAGIC = b"PLMENT01"

# the most (context, next-byte) pairs ``train_counts`` will store: (order + 1) per byte
MAX_PAIRS = 50_000_000
DEFAULT_ALPHA = 0.01  # add-alpha smoothing of the count model

# contexts of at most _SHORT bytes resolve through one direct-index table, whose
# length-k block starts at (256**k - 1) / 255; the last entry is the table's size
_SHORT = 2
_SHORT_START = np.array([(256**k - 1) // 255 for k in range(_SHORT + 2)], dtype=np.uint64)
# _KEY_MASK[k] keeps the last k bytes of a packed context
_KEY_MASK = np.array([(1 << (8 * k)) - 1 for k in range(9)], dtype=np.uint64)


def _as_bytes_array(data) -> np.ndarray:
    if isinstance(data, (bytes, bytearray)):
        return np.frombuffer(bytes(data), dtype=np.uint8)
    return np.asarray(data, dtype=np.uint8)


def _pack_keys(arr: np.ndarray, width) -> np.ndarray:
    """Pack the context of ``width`` bytes ending just before each position of
    ``arr`` into a uint64 key; zero bytes stand in before the start.

    ``width`` is an int or one per position. The key of context c_1..c_k is
    sum(c_j * 256**(k - j)) (big-endian, last byte least significant), so the
    last j bytes of a context are its key & _KEY_MASK[j]. One pass packs every
    position: its 8 preceding bytes read as one big-endian word, then masked.
    """
    padded = np.concatenate((np.zeros(8, np.uint8), arr))
    words = np.ndarray((len(arr),), dtype=">u8", buffer=padded, strides=(1,))
    return words.astype(np.uint64) & _KEY_MASK[width]


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
    """Immutable after construction; concurrent read queries are safe.

    The entropy tables are derived from ``levels`` once, lazily and
    idempotently: a per-level H_k table plus the 65,793-entry (526 KB) table
    of contexts of at most two bytes.
    """

    VERSION = 1

    def __init__(self, order: int, alpha: float, levels: list[_Level]):
        if not (1 <= order <= 8):
            raise ConfigError(f"order must be in [1, 8], got {order}")
        if not alpha > 0:  # NaN too
            raise ConfigError("smoothing alpha must be > 0")
        self.order = order
        self.alpha = alpha
        self.levels = levels  # levels[k] holds length-k contexts, k = 0..order

        self._gamma = 256.0 * alpha
        self._h_tables: list[np.ndarray] | None = None
        self._short_h: np.ndarray | None = None  # set with _h_tables

    # -- entropy tables (one per context length) -----------------------------

    def _ensure_h_tables(self):
        """H_k of every stored context, level by level (closed form in the module docstring).

        Counts nest: every occurrence counted for (c, b) is also counted for
        (c[1:], b), so q_b is the stored probability of a pair one level down,
        found by one searchsorted on the pair keys (ctx << 8) | next, which fit
        in uint64 below length 8. Only the previous level's per-pair
        probabilities are kept, so memory is O(pairs). A loaded file whose
        counts do not nest raises.

        Also builds ``_short_h``: the entropy of every context of at most
        ``_SHORT`` bytes, stored or not, with backoff resolved. Block k starts
        as block k-1 repeated (an unseen context keeps its suffix's entropy),
        then takes H_k at the stored contexts. ``_h_tables`` is assigned last,
        so a reader that sees it sees both.
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
                    raise DataError(
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
        short = np.full(int(_SHORT_START[-1]), tables[0][0] if len(tables[0]) else LN256)
        for k in range(1, min(self.order, _SHORT) + 1):
            lo, hi = int(_SHORT_START[k - 1]), int(_SHORT_START[k])
            short[hi:hi + 256**k] = np.tile(short[lo:hi], 256)
            short[hi + self.levels[k].ctx_keys] = tables[k]
        self._short_h = short
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
            raise DataError("entropy_trace needs a non-empty byte sequence")

        since_reset = np.arange(n, dtype=np.int64)
        resets = np.zeros(0, dtype=np.int64)
        if reset_on_newline:
            after = np.nonzero(arr == NEWLINE)[0] + 1
            resets = after[after < n]
            seg_start = np.zeros(n, dtype=np.int64)
            seg_start[resets] = resets
            since_reset -= np.maximum.accumulate(seg_start)
        avail = np.minimum(self.order, since_reset)

        return EntropyTrace(self._trace_fast(arr, avail), resets)

    def _trace_fast(self, arr: np.ndarray, avail: np.ndarray) -> np.ndarray:
        self._ensure_h_tables()
        key = _pack_keys(arr, avail)
        values = self._short_h[_SHORT_START[np.minimum(avail, _SHORT)] + (key & _KEY_MASK[_SHORT])]
        # Deeper contexts overwrite that at their deepest stored length: a miss
        # backs off to the suffix (an unseen context has exactly its suffix's
        # distribution), and one that reaches _SHORT bytes keeps its table value.
        # Sorted needles make the binary searches walk ctx_keys in order.
        lvl = avail.copy()
        for k in range(self.order, _SHORT, -1):
            sel = np.flatnonzero(lvl == k)
            ctx_keys = self.levels[k].ctx_keys
            if len(sel) == 0 or len(ctx_keys) == 0:
                lvl[sel] = k - 1
                continue
            needles = key[sel] & _KEY_MASK[k]
            srt = np.argsort(needles)
            sel, needles = sel[srt], needles[srt]
            pos = np.minimum(np.searchsorted(ctx_keys, needles), len(ctx_keys) - 1)
            found = ctx_keys[pos] == needles
            values[sel[found]] = self._h_tables[k][pos[found]]
            lvl[sel[~found]] = k - 1
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
        raw = read_input(path)
        if len(raw) < len(_MAGIC) + 32 or raw[: len(_MAGIC)] != _MAGIC:
            raise DataError(f"not an entropy model file: {path}")
        payload, digest = raw[:-32], raw[-32:]
        if hashlib.sha256(payload).digest() != digest:
            raise DataError(f"checksum mismatch in {path}")
        off = len(_MAGIC)
        version, order, alpha = struct.unpack_from("<HBd", payload, off)
        if version != cls.VERSION:
            raise DataError(f"unsupported entropy model version {version}")
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
    corpus: Sequence,
    order: int,
    alpha: float = DEFAULT_ALPHA,
) -> EntropyModel:
    """Accumulate (context, next-byte) counts within documents and smooth them.

    Counting never crosses document boundaries. Raises with a size estimate if
    the pairs would exceed ``MAX_PAIRS``.
    """
    if not (1 <= order <= 8):
        raise ConfigError(f"order must be in [1, 8], got {order}")
    docs = [_as_bytes_array(d) for d in corpus]
    docs = [d for d in docs if len(d) > 0]
    if not docs:
        raise DataError("corpus is empty")
    total = sum(len(d) for d in docs)
    est = (order + 1) * total
    if est > MAX_PAIRS:
        raise ConfigError(
            f"order {order} over {total} bytes stores up to {est} (context, byte) pairs, "
            f"exceeding the budget of {MAX_PAIRS}; lower the order or use a smaller corpus"
        )
    packed = [_pack_keys(d, order) for d in docs]
    levels = []
    for k in range(order + 1):
        long_enough = [i for i, d in enumerate(docs) if len(d) > k]
        keys = np.concatenate([packed[i][k:] for i in long_enough] or [np.zeros(0, np.uint64)])
        keys &= _KEY_MASK[k]
        nxts = np.concatenate([docs[i][k:] for i in long_enough] or [np.zeros(0, np.uint8)])
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
