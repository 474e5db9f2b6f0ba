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
to, and two int32 row tables per level 3..order that find a stored context by
cuckoo hashing (``_row_tables``), laid end to end: 8 to 16 bytes per stored
context, more for a level whose tables had to double. They are built as one
value, so concurrent reads stay safe. A trace packs each position's context
into one key and looks it up in levels order..3, deepest first, with both
probes in one gather and no sort, backing off on a miss to the next level;
the positions no level resolves read the direct table (``entropy_trace``).

``train_counts`` counts every level in one uint64 pair-key buffer over the
concatenated corpus. Its scratch is about 10 bytes per corpus byte below
order 8 (the padded corpus, the buffer and a run-boundary mask) and 27 at
order 8, whose lexsort permutes copies of the keys, plus 8 bytes per pair of
the level being counted. ``MAX_PAIRS`` bounds the stored pairs, not that
scratch.

Entropies are in nats throughout; callers convert to bits only at reporting
edges.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError, read_input

LN256 = float(np.log(256.0))
NEWLINE = 0x0A

_MAGIC = b"PLMENT01"

# the most (context, next-byte) pairs ``train_counts`` will store, (order + 1) per
# byte; it does not bound the build's scratch
MAX_PAIRS = 50_000_000
DEFAULT_ALPHA = 0.01  # add-alpha smoothing of the count model

# contexts of at most _SHORT bytes resolve through one direct-index table, whose
# length-k block starts at (256**k - 1) / 255; the last entry is the table's size
_SHORT = 2
_SHORT_START = np.array([(256**k - 1) // 255 for k in range(_SHORT + 2)], dtype=np.uint64)
# _KEY_MASK[k] keeps the last k bytes of a packed context; a trace reads it as
# _KEY_MASK[k, ...], a 0-d array, which a ufunc takes faster than a scalar
_KEY_MASK = np.array([(1 << (8 * k)) - 1 for k in range(9)], dtype=np.uint64)
# the odd multipliers of the two row tables' hashes (``_slots``), one per row
# so that one product hashes a key both ways
_HASH_MUL = np.array([[0x9E3779B97F4A7C15], [0xD6E8FEB86659FD93]], dtype=np.uint64)
_BUILD_ROUNDS = 200  # placement rounds before ``_row_tables`` doubles its tables


def check_count_model(order: int, alpha: float) -> None:
    """Reject an order outside [1, 8] and an alpha that is not finite and > 0."""
    if not (1 <= order <= 8):
        raise ConfigError(f"order must be in [1, 8], got {order}")
    if not 0 < alpha < np.inf:  # NaN too
        raise ConfigError(f"smoothing alpha must be finite and > 0, got {alpha}")


def _as_bytes_array(data) -> np.ndarray:
    if isinstance(data, (bytes, bytearray)):
        return np.frombuffer(bytes(data), dtype=np.uint8)
    return np.asarray(data, dtype=np.uint8)


def _windows(padded: np.ndarray) -> np.ndarray:
    """The 8 bytes before each position of ``padded[8:]``, read as one big-endian
    word per position (a stride-1 view, no copy); ``padded`` starts with 8 zero
    bytes."""
    return np.ndarray((len(padded) - 8,), dtype=">u8", buffer=padded, strides=(1,))


def _pack_keys(arr: np.ndarray, width) -> np.ndarray:
    """Pack the context of ``width`` bytes ending just before each position of
    ``arr`` into a uint64 key; zero bytes stand in before the start.

    ``width`` is an int or one per position. The key of context c_1..c_k is
    sum(c_j * 256**(k - j)) (big-endian, last byte least significant), so the
    last j bytes of a context are its key & _KEY_MASK[j]. One pass packs every
    position: its 8-byte window (``_windows``), masked.
    """
    padded = np.concatenate((np.zeros(8, np.uint8), arr))
    return _windows(padded).astype(np.uint64) & _KEY_MASK[width, ...]


def _count_pairs(keys: np.ndarray, nxt: np.ndarray, ctx_len: int,
                 skip: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate the (key & _KEY_MASK[ctx_len], next) occurrences of every
    position except those in ``skip``; output sorted by key then next byte.

    ``keys`` holds each position's 8-byte window and is overwritten. Below
    length 8 the pair fits one uint64 key ``(key << 8) | next``, built in
    ``keys`` and sorted there, so the only other per-position array is the
    run-boundary mask; a skipped position's pair is set to 0, sorts first and
    is dropped as the sorted head. 8-byte contexts need 72 bits and take the
    lexsort, where a skipped position's key is 0 and its next byte reads as
    -1, so that it sorts first too.
    """
    n = len(keys) - len(skip)
    if n == 0:
        e = np.zeros(0, dtype=np.uint64)
        return e, np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64)
    new = np.empty(n, dtype=bool)
    new[0] = True
    if ctx_len < 8:
        keys &= _KEY_MASK[ctx_len]
        keys <<= np.uint64(8)
        keys |= nxt
        keys[skip] = 0
        keys.sort()
        pairs = keys[len(skip):]
        np.not_equal(pairs[1:], pairs[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        del new
        ctx = pairs[starts]
        x = ctx.astype(np.uint8)  # the low byte
        ctx >>= np.uint64(8)
    else:
        keys[skip] = 0
        tie = nxt.astype(np.int16)
        tie[skip] = -1
        order = np.lexsort((tie, keys))[len(skip):]
        del tie
        k, xs = keys[order], nxt[order]
        del order
        new[1:] = (k[1:] != k[:-1]) | (xs[1:] != xs[:-1])
        starts = np.flatnonzero(new)
        ctx, x = k[starts], xs[starts]
    return ctx, x, np.diff(starts, append=n)


def _slots(keys: np.ndarray, mul: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """The slot of each key in a table of 2**(64 - shift) slots: the top bits
    of the wrapping product key * mul. With ``mul`` the (2, 1) ``_HASH_MUL``,
    row j holds each key's slot in table j."""
    slots = keys * mul
    slots >>= shift
    return slots.view(np.int64)


class _RowTables(NamedTuple):
    """One level's two cuckoo row tables (``_row_tables``)."""

    rows: np.ndarray  # (2, 2**bits) int32: table j is rows[j]
    shift: np.ndarray  # 0-d uint64, 64 - bits
    second: np.ndarray  # 0-d int64, 2**bits: where the second table starts in rows laid flat


def _row_tables(keys: np.ndarray) -> _RowTables:
    """Two int32 tables that hold row r of the distinct ``keys`` (a level's
    strictly increasing ``ctx_keys``) at slot ``_slots(keys[r], _HASH_MUL[j],
    shift)`` of table j, the first or the second (cuckoo hashing). They are
    built as one (2, 2**bits) array with 2**bits >= len(keys), so that a
    lookup gathers both probes in one call (``_find``). An empty slot holds
    row 0, so a lookup accepts a row only where its key is the needle.

    Rounds alternate the tables: every pending row claims its slot, one
    claimant per slot wins and evicts the row it finds there, and the losers
    and the evicted rows try the other table next round. When
    ``_BUILD_ROUNDS`` rounds leave a row pending, both tables double. That
    ends for distinct keys, since each hash is a bijection of the 64-bit keys.
    """
    bits = max(1, (len(keys) - 1).bit_length())
    while True:
        shift = np.array(64 - bits, dtype=np.uint64)
        claims = np.empty((2, len(keys)), dtype=np.int32)
        for claim, mul in zip(claims, _HASH_MUL):  # one uint64 product at a time
            claim[:] = _slots(keys, mul, shift)
        tables = np.full((2, 1 << bits), -1, dtype=np.int32)
        pending = np.arange(len(keys), dtype=np.int32)
        for rnd in range(_BUILD_ROUNDS):
            if not len(pending):
                break
            table, claim = tables[rnd & 1], claims[rnd & 1][pending]
            held = table[claim]
            table[claim] = pending  # numpy keeps one write per slot
            won = table[claim] == pending
            held = held[won]
            pending = np.concatenate((pending[~won], held[held >= 0]))
            del claim, won, held
        if not len(pending):
            np.maximum(tables, 0, out=tables)
            return _RowTables(tables, shift, np.array(1 << bits))
        bits += 1


def _find(tables: _RowTables, ctx_keys: np.ndarray,
          needles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, found) of each needle among a level's ``ctx_keys``: both probes
    are one gather from the row tables laid end to end, and their candidate
    keys one gather and one compare."""
    slots = _slots(needles, _HASH_MUL, tables.shift)
    slots[1] |= tables.second  # a slot is below 2**bits
    pos = tables.rows.take(slots)
    hit = ctx_keys.take(pos) == needles
    return np.where(hit[0], pos[0], pos[1]), hit[0] | hit[1]


@dataclass
class _Level:
    """Sparse (context, next, count) triples for one context length, strictly
    increasing in (context, next); construction rejects any other order."""

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
            if ((self.pair_ctx[1:] < self.pair_ctx[:-1])
                    | (~new[1:] & (self.pair_next[1:] <= self.pair_next[:-1]))).any():
                raise ValueError("pairs are not strictly increasing in (context, next byte)")
        firsts = np.nonzero(new)[0]
        self.ctx_keys = self.pair_ctx[firsts]
        self.ctx_first = firsts
        self.ctx_tot = np.add.reduceat(self.pair_cnt, firsts) if len(firsts) else np.zeros(0, np.int64)


@dataclass
class EntropyTrace:
    """Per-position next-byte entropies (nats)."""

    values: np.ndarray


class _Tables(NamedTuple):
    """What a trace reads, derived from a model's levels (``EntropyModel._tables``)."""

    h: list[np.ndarray]  # per level, H_k of each stored context
    short: np.ndarray  # the entropy of every context of at most _SHORT bytes
    rows: list  # per level, the _RowTables of its contexts; None if empty or of <= _SHORT bytes


class EntropyModel:
    """Immutable after construction; concurrent read queries are safe.

    The entropy tables are derived from ``levels`` once, on first use, as one
    value: a per-level H_k table, the 65,793-entry (526 KB) table of contexts
    of at most two bytes, and the row tables that find the longer stored
    contexts without a search.
    """

    VERSION = 1

    def __init__(self, order: int, alpha: float, levels: list[_Level]):
        check_count_model(order, alpha)
        self.order = order
        self.alpha = alpha
        self.levels = levels  # levels[k] holds length-k contexts, k = 0..order
        self._gamma = 256.0 * alpha

    # -- entropy tables (one per context length) -----------------------------

    @cached_property
    def _tables(self) -> _Tables:
        """H_k of every stored context, level by level (closed form in the module docstring).

        Counts nest: every occurrence counted for (c, b) is also counted for
        (c[1:], b), so q_b is the stored probability of a pair one level down,
        found by one searchsorted on the pair keys (ctx << 8) | next, which fit
        in uint64 below length 8. Only the previous level's per-pair
        probabilities are kept, so memory is O(pairs). A loaded file whose
        counts do not nest raises.

        Also builds ``short``: the entropy of every context of at most
        ``_SHORT`` bytes, stored or not, with backoff resolved. Block k starts
        as block k-1 repeated (an unseen context keeps its suffix's entropy),
        then takes H_k at the stored contexts. And builds ``rows``, the row
        tables of every longer non-empty level.
        """
        tables: list[np.ndarray] = []
        prev_keys = prev_p = prev_ctx = prev_h = None
        for k, lev in enumerate(self.levels):
            n_pairs = len(lev.pair_ctx)
            if k == 0:  # backs off to the uniform distribution
                q = np.full(n_pairs, 1.0 / 256.0)
                h_sfx = np.full(len(lev.ctx_keys), LN256)
            else:
                sfx = _KEY_MASK[k - 1]
                want = ((lev.pair_ctx & sfx) << np.uint64(8)) | lev.pair_next.astype(np.uint64)
                at = np.searchsorted(prev_keys, want)
                if (at == len(prev_keys)).any() or (prev_keys[at] != want).any():
                    raise DataError(
                        f"counts do not nest: a length-{k} pair has no length-{k - 1} suffix pair")
                q = prev_p[at]
                h_sfx = prev_h[np.searchsorted(prev_ctx, lev.ctx_keys & sfx)]
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
        rows = [_row_tables(lev.ctx_keys) if k > _SHORT and len(lev.ctx_keys) else None
                for k, lev in enumerate(self.levels)]
        return _Tables(tables, short, rows)

    # -- traces ---------------------------------------------------------------

    def entropy_trace(self, data, reset_on_newline: bool = False) -> EntropyTrace:
        """Per-position entropies for one document.

        values[i] is the entropy of the next-byte distribution given the bytes
        before position i (at most ``order`` of them). With
        ``reset_on_newline`` the context is cleared immediately after each
        0x0A byte.

        Without a reset, position i's key is its last ``order`` bytes, with
        zeros before the start, and level k reads it masked to k bytes (the
        deepest level unmasked). Level k resolves only positions i >= k
        among those no deeper level resolved, and the loop stops once only
        the first three are left. Those left read the direct table: the
        length-min(order, 2) block at the key's low 16 bits, except for the
        first min(order, 2) positions, whose contexts are shorter and read
        their own blocks. With a reset, a position's context length counts
        from the start or the last reset; its key is masked to that length,
        level k resolves only positions whose context reaches k bytes, and a
        position left reads the block of its own length, at most 2.
        """
        arr = _as_bytes_array(data)
        n = len(arr)
        if n == 0:
            raise DataError("entropy_trace needs a non-empty byte sequence")
        tables, order = self._tables, self.order
        if reset_on_newline:
            avail = np.arange(n, dtype=np.int64)
            after = (arr == NEWLINE).nonzero()[0] + 1
            resets = after[after < n]
            seg_start = np.zeros(n, dtype=np.int64)
            seg_start[resets] = resets
            avail -= np.maximum.accumulate(seg_start)
            np.minimum(avail, order, out=avail)
            key = _pack_keys(arr, avail)
            n_short = np.count_nonzero(avail <= _SHORT)  # the positions no level can resolve
        else:
            # the zeros before the start are the bytes a short context lacks
            key = _pack_keys(arr, order)
            n_short = min(n, _SHORT + 1)
        # The positions left (``todo``, every one before the first level) in
        # increasing order. A miss backs off to the suffix: an unseen context
        # has exactly its suffix's distribution. Without a reset, positions
        # 0..k-1 are still left at level k and come first, so a slice keeps
        # them out of it.
        todo = None
        for k in range(min(order, n - 1), _SHORT, -1):
            if tables.rows[k] is None:
                continue
            if todo is None:
                needles = key if k == order else key & _KEY_MASK[k, ...]
            elif len(todo) == n_short:
                break
            else:
                needles = key.take(todo)
                needles &= _KEY_MASK[k, ...]
            row, found = _find(tables.rows[k], self.levels[k].ctx_keys, needles)
            if reset_on_newline:
                found &= (avail if todo is None else avail.take(todo)) >= k
            else:
                found[:k] = False
            if todo is None:
                values = tables.h[k].take(row)
                todo = (~found).nonzero()[0]
            else:
                values[todo[found]] = tables.h[k].take(row[found])
                todo = todo[~found]
        if todo is None:
            values, todo = np.empty(n), slice(None)
        # the positions left resolve at most _SHORT bytes of context
        short = key[todo] & _KEY_MASK[_SHORT, ...]
        if reset_on_newline:
            short += _SHORT_START[np.minimum(avail[todo], _SHORT)]
            values[todo] = tables.short.take(short.view(np.int64))
        else:
            values[todo] = tables.short[_SHORT_START[min(order, _SHORT)]:].take(short.view(np.int64))
            for i in range(min(n, order, _SHORT)):
                values[i] = tables.short[_SHORT_START[i] + key[i]]
        return EntropyTrace(values)

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
        try:  # the checksum holds, so a payload that does not parse was written malformed
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
            if off != len(payload):
                raise ValueError(f"{len(payload) - off} bytes after the last level")
            model = cls(order, alpha, levels)
            model._tables  # building the tables rejects counts that do not nest
        except (struct.error, ValueError, IndexError) as exc:  # ConfigError is a ValueError
            raise DataError(f"malformed entropy model file {path}: {exc}") from None
        return model


def train_counts(
    corpus: Sequence,
    order: int,
    alpha: float = DEFAULT_ALPHA,
) -> EntropyModel:
    """Accumulate (context, next-byte) counts within documents and smooth them.

    Counting never crosses document boundaries: level k skips the positions
    with fewer than k bytes of their own document before them. Each level
    refills one uint64 buffer from the concatenated corpus's 8-byte windows
    and counts it in place (``_count_pairs``), so the scratch is about 10
    bytes per corpus byte below order 8 and 27 at order 8, plus 8 bytes per
    pair of the level being counted. Raises with a size estimate if the
    stored pairs would exceed ``MAX_PAIRS``, which does not bound that scratch.
    """
    check_count_model(order, alpha)
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
    lengths = np.array([len(d) for d in docs])
    doc_start = np.cumsum(lengths) - lengths  # in the concatenated corpus
    padded = np.concatenate([np.zeros(8, np.uint8), *docs])
    windows, nxt = _windows(padded), padded[8:]
    keys = np.empty(total, dtype=np.uint64)  # the one pair-key buffer, refilled per level
    levels = []
    for k in range(order + 1):
        head = np.arange(k)
        skip = (doc_start[:, None] + head)[head < lengths[:, None]]
        np.copyto(keys, windows)
        levels.append(_Level(*_count_pairs(keys, nxt, k, skip)))
    return EntropyModel(order, alpha, levels)


# ---------------------------------------------------------------------------
# Trace export (plot-data table)
# ---------------------------------------------------------------------------

TRACE_COLUMNS = ("pos", "byte_hex", "glyph", "entropy_nats", "boundary")
# the glyph of each byte: a space is an underscore, any other non-printable byte a dot
_GLYPHS = ["_" if b == 0x20 else chr(b) if 0x21 <= b <= 0x7E else "." for b in range(256)]


def write_trace_tsv(path: str | Path, trace: EntropyTrace, data, boundaries) -> None:
    """One row of ``TRACE_COLUMNS`` per position; boundary is 1 where a patch
    of ``boundaries`` (a ``PatchBoundaries``) starts."""
    starts = set(boundaries.starts.tolist())
    with open(path, "w") as fh:
        fh.write("\t".join(TRACE_COLUMNS) + "\n")
        for i, (b, h) in enumerate(zip(_as_bytes_array(data).tolist(), trace.values.tolist())):
            fh.write(f"{i}\t{b:02x}\t{_GLYPHS[b]}\t{h:.6f}\t{int(i in starts)}\n")
