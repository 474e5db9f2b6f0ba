import copy
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchlm import entropy_lm, textgen
from patchlm.errors import ConfigError, DataError
from patchlm.entropy_lm import (
    LN256,
    EntropyModel,
    _HASH_MUL,
    _Level,
    _count_pairs,
    _find,
    _pack_keys,
    _row_tables,
    _slots,
    train_counts,
    write_trace_tsv,
)
from patchlm.patching import PatchBoundaries
from tests import composed


def _doc(data: bytes) -> np.ndarray:
    return np.frombuffer(data, np.uint8)


def oracle_distribution(model: EntropyModel, context: bytes) -> np.ndarray:
    """Dense p(. | context) by the backoff recursion, read straight off ``model.levels``.

    p_{-1} is uniform, and a context with no stored pairs keeps its suffix's
    distribution. Only the last ``model.order`` bytes of context count.
    """
    ctx = bytes(context)[max(0, len(context) - model.order):]
    gamma = 256.0 * model.alpha
    p = np.full(256, 1.0 / 256.0)
    for k in range(len(ctx) + 1):
        lev = model.levels[k]
        key = np.uint64(int.from_bytes(ctx[len(ctx) - k:], "big"))
        rows = np.nonzero(lev.pair_ctx == key)[0]
        if len(rows):
            p = gamma * p
            p[lev.pair_next[rows]] += lev.pair_cnt[rows]
            p /= lev.pair_cnt[rows].sum() + gamma
    return p


def oracle_entropy(model: EntropyModel, context: bytes) -> float:
    p = oracle_distribution(model, context)
    return float(-np.sum(p * np.log(p)))


def oracle_trace(model: EntropyModel, data: bytes, reset_on_newline: bool) -> np.ndarray:
    """values[i]: entropy given the bytes before i, cleared after each newline if asked."""
    values = []
    for i in range(len(data)):
        lo = max(0, i - model.order)
        if reset_on_newline:
            lo = max(lo, data.rfind(b"\n", 0, i) + 1)
        values.append(oracle_entropy(model, data[lo:i]))
    return np.array(values)


def _is_stored(level, context: bytes) -> bool:
    key = np.uint64(int.from_bytes(context, "big"))
    i = np.searchsorted(level.ctx_keys, key)
    return bool(i < len(level.ctx_keys) and level.ctx_keys[i] == key)


def _last_entropy(model: EntropyModel, context: bytes) -> float:
    """Trace value of the byte after ``context``."""
    return float(model.entropy_trace(np.frombuffer(context + b"?", np.uint8)).values[-1])


def test_alternating_corpus_is_near_deterministic():
    m = train_counts([_doc(b"ab" * 5000)], order=1)
    assert oracle_distribution(m, b"a")[ord("b")] > 0.99
    assert oracle_distribution(m, b"b")[ord("a")] > 0.99


def test_uniform_random_corpus_entropy_approaches_ln256():
    # with order 1 the per-context counts are dense enough to sit at the limit
    rng = np.random.Generator(np.random.PCG64(0))
    data = rng.integers(0, 256, size=2_000_000, dtype=np.uint8).astype(np.uint8)
    m1 = train_counts([data], order=1)
    tr = m1.entropy_trace(data[:5000])
    assert abs(tr.values[100:].mean() - LN256) < 0.05
    # order-2 contexts are sparse at these sizes; once counts outgrow the
    # overfit regime the entropy climbs back toward ln 256 with corpus size
    h = []
    for size in (800_000, 2_000_000, 8_000_000):
        more = rng.integers(0, 256, size=size, dtype=np.uint8).astype(np.uint8)
        m2 = train_counts([more], order=2)
        h.append(m2.entropy_trace(data[:3000]).values[100:].mean())
    assert h[0] < h[1] < h[2] < LN256


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, 8), n=st.integers(0, 300), alphabet=st.integers(1, 256),
       seed=st.integers(0, 2**32 - 1))
def test_count_pairs_branches_match_counter_oracle(k, n, alphabet, seed):
    data = np.random.default_rng(seed).integers(0, alphabet, size=n).astype(np.uint8)
    want = sorted(Counter(zip(_pack_keys(data, k)[k:].tolist(), data[k:].tolist())).items())
    skip = np.arange(min(k, n))  # the positions with fewer than k bytes before them
    # the packed branch masks full windows to k bytes; the lexsort branch
    # counts the keys it is given, here already masked
    packed = _count_pairs(_pack_keys(data, 8), data, k, skip)
    lexsorted = _count_pairs(_pack_keys(data, k), data, 8, skip)
    for ctx, x, cnt in (packed, lexsorted):
        assert (ctx.dtype, x.dtype, cnt.dtype) == (np.uint64, np.uint8, np.int64)
        assert list(zip(zip(ctx.tolist(), x.tolist()), cnt.tolist())) == want
    for a, b in zip(packed, lexsorted):
        np.testing.assert_array_equal(a, b)


@pytest.fixture(scope="module")
def save_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("saved")


def _saved(model: EntropyModel, path) -> bytes:
    model.save(path)
    return path.read_bytes()


@settings(max_examples=100, deadline=None)
@given(order=st.integers(1, 8), alphabet=st.integers(1, 256),
       lengths=st.lists(st.one_of(st.integers(1, 9), st.integers(10, 300)), min_size=1, max_size=6),
       zero_runs=st.lists(st.integers(0, 24), min_size=6, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_build_is_bytewise_the_per_level_reference(save_dir, order, alphabet, lengths, zero_runs,
                                                   seed):
    # documents shorter than the order (one byte long among them) leave
    # positions a level must not count next to real pairs of zero contexts,
    # which runs of zero bytes make
    rng = np.random.default_rng(seed)
    symbols = rng.choice(256, size=alphabet, replace=False).astype(np.uint8)
    docs = []
    for n, zeros in zip(lengths, zero_runs):
        doc = rng.choice(symbols, size=n)
        at = int(rng.integers(0, n + 1))
        docs.append(np.concatenate((doc[:at], np.zeros(zeros, np.uint8), doc[at:])))
    got = _saved(train_counts(docs, order=order), save_dir / "built.bin")
    assert got == _saved(composed.train_counts(docs, order=order), save_dir / "reference.bin")


def test_constant_corpus_low_entropy():
    m = train_counts([_doc(b"a" * 10_000)], order=1)
    # derived from the smoothed counts: p(a|a) = (9999 + g*p0(a)) / (9999 + g)
    assert oracle_entropy(m, b"a") < 0.1
    assert _last_entropy(m, b"a") == pytest.approx(oracle_entropy(m, b"a"), abs=1e-12)


def test_distributions_sum_to_one_and_positive(entropy3):
    for ctx in (b"", b"t", b"th", b"the", b"zzz", bytes([0, 255])):
        p = oracle_distribution(entropy3, ctx)
        assert abs(p.sum() - 1.0) < 1e-9
        assert (p > 0).all()


def test_unseen_context_backs_off_to_suffix(entropy3):
    unseen = bytes([7, 250, ord("t")])  # improbable 3-gram ending in 't'
    assert not _is_stored(entropy3.levels[3], unseen)
    np.testing.assert_array_equal(
        oracle_distribution(entropy3, unseen),
        oracle_distribution(entropy3, unseen[1:]),
    )
    assert _last_entropy(entropy3, unseen) == _last_entropy(entropy3, unseen[1:])


def test_context_longer_than_order_truncates(entropy3):
    long_ctx = b"and the"
    np.testing.assert_array_equal(
        oracle_distribution(entropy3, long_ctx),
        oracle_distribution(entropy3, long_ctx[-3:]),
    )
    assert _last_entropy(entropy3, long_ctx) == _last_entropy(entropy3, long_ctx[-3:])


def test_trained_alternation_argmax():
    m = train_counts([_doc(b"ab" * 2000)], order=1)
    assert int(np.argmax(oracle_distribution(m, b"a"))) == ord("b")


@pytest.fixture(scope="module")
def models_by_order(small_docs):
    return {order: train_counts(small_docs[:20], order=order) for order in range(1, 9)}


_QUERY_BYTES = st.lists(st.sampled_from(b"\n .aeht\xff"), max_size=10).map(bytes)


@settings(max_examples=80, deadline=None)
@given(order=st.integers(1, 8), reset=st.booleans(), doc=st.integers(0, 39),
       where=st.floats(0, 1), size=st.integers(0, 120), head=_QUERY_BYTES, tail=_QUERY_BYTES)
def test_trace_matches_oracle(models_by_order, small_docs, order, reset, doc, where, size,
                              head, tail):
    # documents 0-19 trained the models, so their slices reach stored contexts
    # at every order; 20-39 and the random bytes mostly back off
    text = small_docs[doc].tobytes()
    lo = int(where * (len(text) - 1))
    data = head + text[lo: lo + size] + tail or b"\n"
    model = models_by_order[order]
    tr = model.entropy_trace(np.frombuffer(data, np.uint8), reset_on_newline=reset)
    np.testing.assert_allclose(tr.values, oracle_trace(model, data, reset), rtol=0, atol=1e-12)


def cascade_trace(model: EntropyModel, data: np.ndarray, reset_on_newline: bool) -> np.ndarray:
    """The per-level cascade trace that the short-context table and the row
    tables replaced: every context length searched by one unsorted
    ``searchsorted``, deepest first. Exact oracle for the fast trace."""
    arr = data
    n = len(arr)
    seg_start = np.zeros(n, dtype=np.int64)
    if reset_on_newline:
        after = np.nonzero(arr == 0x0A)[0] + 1
        after = after[after < n]
        seg_start[after] = after
        seg_start = np.maximum.accumulate(seg_start)
    avail = np.minimum(model.order, np.arange(n, dtype=np.int64) - seg_start)

    h_tables = model._tables.h
    values = np.empty(n, dtype=np.float64)
    key = np.zeros(n, dtype=np.uint64)
    a64 = arr.astype(np.uint64)
    # key[i] = packed trailing context of length avail[i]
    for t in range(1, model.order + 1):
        idx = np.nonzero(avail >= t)[0]
        key[idx] += a64[idx - t] << np.uint64(8 * (t - 1))
    # Resolve each position at its deepest seen context, backing off to the
    # suffix key on a miss (an unseen context has exactly its suffix's
    # distribution, so the entropy carries over unchanged).
    resolved = np.zeros(n, dtype=bool)
    lvl = avail.copy()
    for k in range(model.order, 0, -1):
        sel = np.nonzero(~resolved & (lvl == k))[0]
        if len(sel) == 0:
            continue
        lev = model.levels[k]
        if len(lev.ctx_keys):
            pos = np.searchsorted(lev.ctx_keys, key[sel])
            pos_c = np.minimum(pos, len(lev.ctx_keys) - 1)
            found = lev.ctx_keys[pos_c] == key[sel]
        else:
            found = np.zeros(len(sel), dtype=bool)
            pos_c = np.zeros(len(sel), dtype=np.int64)
        hit = sel[found]
        if len(hit):
            values[hit] = h_tables[k][pos_c[found]]
            resolved[hit] = True
        miss = sel[~found]
        key[miss] %= np.uint64(1 << (8 * (k - 1)))
        lvl[miss] = k - 1
    h0 = h_tables[0]
    values[~resolved] = h0[0] if len(h0) else LN256  # no counts at all: uniform
    return values


@pytest.fixture(scope="module")
def model_variants(models_by_order, small_docs, tmp_path_factory):
    """Per order: the trained model, one trained only on documents shorter than
    its order (its upper levels are empty) and the trained one after save/load."""
    variants = {}
    for order, model in models_by_order.items():
        path = tmp_path_factory.mktemp("models") / f"o{order}.bin"
        model.save(path)
        short = [d[: 1 + i % max(1, order - 1)] for i, d in enumerate(small_docs[:20])]
        variants[order] = {"trained": model, "short_docs": train_counts(short, order=order),
                           "loaded": EntropyModel.load(path)}
    assert not len(variants[3]["short_docs"].levels[3].ctx_keys)
    return variants


@settings(max_examples=150, deadline=None)
@given(order=st.integers(1, 8), reset=st.booleans(),
       variant=st.sampled_from(["trained", "short_docs", "loaded"]),
       source=st.sampled_from(["training_text", "training_alphabet", "any_byte"]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_trace_is_bitwise_the_cascade_trace(model_variants, small_docs, order, reset, variant,
                                            source, seed, data):
    n = data.draw(st.one_of(st.integers(1, order + 3), st.integers(1_900, 2_100)), label="n")
    rng = np.random.default_rng(seed)
    train = np.concatenate(small_docs[:20])
    if source == "training_text":  # stored contexts at every level
        lo = int(rng.integers(0, len(train) - n))
        arr = train[lo: lo + n].copy()
    elif source == "training_alphabet":
        arr = rng.choice(np.union1d(train, [0x0A]), size=n).astype(np.uint8)
    else:  # unseen contexts at every level
        arr = rng.integers(0, 256, size=n).astype(np.uint8)
    model = model_variants[order][variant]
    got = model.entropy_trace(arr, reset_on_newline=reset).values
    want = cascade_trace(model, arr, reset)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


_U64_MAX = np.uint64(2**64 - 1)


def _table_keys(kind, n, rng):
    """n distinct sorted uint64 keys; the random ones include 0 and 2**64 - 1."""
    rows = np.arange(n, dtype=np.uint64)
    if kind == "arange":
        return rows
    if kind == "multiples_of_2_40":
        return rows << np.uint64(40)
    extremes = np.array([0, _U64_MAX], dtype=np.uint64)[:n]
    inner = rng.integers(1, 2**64 - 1, size=n - len(extremes), dtype=np.uint64)
    return np.unique(np.concatenate((extremes, inner)))


@pytest.mark.parametrize("kind", ["arange", "multiples_of_2_40", "random"])
@pytest.mark.parametrize("n", [1, 2, 2**10, 2**10 + 1, 2**14, 2**14 + 1])
@pytest.mark.parametrize("rounds", [entropy_lm._BUILD_ROUNDS, 4])
def test_row_tables_place_every_key_and_reject_every_absent_one(monkeypatch, kind, n, rounds):
    # four rounds leave random keys pending, so their tables take the doubling path
    monkeypatch.setattr(entropy_lm, "_BUILD_ROUNDS", rounds)
    rng = np.random.default_rng(n)
    keys = _table_keys(kind, n, rng)
    if kind == "random" and n > 1:
        assert keys[0] == 0 and keys[-1] == _U64_MAX
    assert len(np.unique(keys)) == n
    tables = _row_tables(keys)
    (first, second), shift, _ = tables
    assert first.dtype == second.dtype == np.int32 and len(first) == len(second) >= n
    assert len(first) == 1 << (64 - int(shift))
    least = 1 << max(1, (n - 1).bit_length())
    if rounds == 4 and kind == "random" and n > 2:
        assert len(first) > least
    elif rounds > 4:  # exactly half-full tables may double once
        assert len(first) == least or (len(first) == 2 * least == 2 * n)
    rows = np.arange(n)
    in_first = first[_slots(keys, _HASH_MUL[0], shift)] == rows
    in_second = second[_slots(keys, _HASH_MUL[1], shift)] == rows
    assert (in_first | in_second).all()
    pos, found = _find(tables, keys, keys)
    assert found.all() and (pos == rows).all()
    # every row but row 0 sits in exactly one slot; an empty slot holds row 0
    assert np.count_nonzero(first) + np.count_nonzero(second) == n - 1
    # absent keys: neighbours of stored ones, the extremes, and one whose two
    # slots both hold row 0 and which differs from the key of row 0
    absent = np.setdiff1d(np.concatenate((keys + np.uint64(1), keys - np.uint64(1),
                                          [np.uint64(0), _U64_MAX],
                                          rng.integers(0, 2**64, size=4096, dtype=np.uint64))), keys)
    _, found = _find(tables, keys, absent)
    assert not found.any()
    empty = ((first[_slots(absent, _HASH_MUL[0], shift)] == 0)
             & (second[_slots(absent, _HASH_MUL[1], shift)] == 0) & (absent != keys[0]))
    assert empty.any()
    pos, found = _find(tables, keys, absent[empty])
    assert (pos == 0).all() and not found.any()


def test_trace_neither_sorts_nor_searches_once_tables_exist(monkeypatch, models_by_order, small_docs):
    def banned(*args, **kwargs):
        raise AssertionError("entropy_trace sorted or searched")

    data = np.concatenate(small_docs[18:22])
    for model in models_by_order.values():
        want = [cascade_trace(model, data, reset) for reset in (False, True)]  # builds the tables
        with monkeypatch.context() as m:
            for name in ("argsort", "searchsorted", "sort", "lexsort", "unique"):
                m.setattr(np, name, banned)
            got = [model.entropy_trace(data, reset_on_newline=reset).values for reset in (False, True)]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("order", [3, 4, 8])
def test_a_position_reads_no_byte_before_the_start_or_a_reset(order):
    # a position with fewer than k bytes before it, at the start or after a
    # reset, packs its context with zeros in front; contexts of leading zero
    # bytes are stored here, and such a position must not read them. Tabs
    # make the contexts stored that a reset position would read if the bytes
    # before the reset were not masked off.
    model = train_counts([_doc(b"\0" * 8 + b"ab\nab\0\0ab\n\t\tb\ta\t\n" * 50)], order=order)
    data = _doc(b"ab\nab\nb\0ab\nb")
    for reset in (False, True):
        got = model.entropy_trace(data, reset_on_newline=reset).values
        assert np.array_equal(got, cascade_trace(model, data, reset))
        np.testing.assert_allclose(got, oracle_trace(model, data.tobytes(), reset), rtol=0, atol=1e-12)


def test_trace_bounds_and_first_position(entropy3, english_docs):
    tr = entropy3.entropy_trace(english_docs[-1])
    assert (tr.values >= 0).all() and (tr.values <= LN256 + 1e-12).all()
    assert abs(tr.values[0] - oracle_entropy(entropy3, b"")) < 1e-12


def test_single_byte_input_unigram_entropy(entropy3):
    tr = entropy3.entropy_trace(np.array([ord("x")], np.uint8))
    assert abs(tr.values[0] - oracle_entropy(entropy3, b"")) < 1e-12


def test_newline_reset(entropy3):
    data = np.frombuffer(b"word\nyes", np.uint8)
    tr = entropy3.entropy_trace(data, reset_on_newline=True)
    # position after the newline sees an empty context
    assert tr.values[5] == entropy3.entropy_trace(np.frombuffer(b"y", np.uint8)).values[0]
    # and later positions restart context growth from the reset point
    sub = entropy3.entropy_trace(np.frombuffer(b"yes", np.uint8))
    np.testing.assert_allclose(tr.values[5:], sub.values, atol=1e-12)


def test_causality_prefix_stability(entropy3, english_docs):
    data = english_docs[0][:400].copy()
    tr_full = entropy3.entropy_trace(data)
    rng = np.random.Generator(np.random.PCG64(4))
    for _ in range(20):
        i = int(rng.integers(1, len(data)))
        mutated = data.copy()
        mutated[i:] = rng.integers(0, 256, size=len(data) - i, dtype=np.uint8)
        tr_mut = entropy3.entropy_trace(mutated)
        np.testing.assert_array_equal(tr_mut.values[: i + 1], tr_full.values[: i + 1])


def test_incremental_trace_equals_from_scratch(entropy3, english_docs):
    data = english_docs[1][:300]
    full = entropy3.entropy_trace(data).values
    for cut in (1, 7, 120, 299):
        np.testing.assert_array_equal(entropy3.entropy_trace(data[:cut]).values, full[:cut])


def test_order_and_alpha_validation(small_docs, monkeypatch):
    with pytest.raises(ConfigError):
        train_counts(small_docs, order=0)
    with pytest.raises(ConfigError):
        train_counts(small_docs, order=9)
    monkeypatch.setattr(entropy_lm, "MAX_PAIRS", 1000)
    with pytest.raises(ConfigError, match="pairs"):
        train_counts(small_docs, order=8)
    with pytest.raises(DataError):
        train_counts([], order=2)


def test_serialization_roundtrip_and_checksum(tmp_path, entropy2_small, small_docs):
    path = tmp_path / "entropy.bin"
    entropy2_small.save(path)
    loaded = EntropyModel.load(path)
    data = small_docs[2][:200]
    np.testing.assert_array_equal(loaded.entropy_trace(data).values,
                                  entropy2_small.entropy_trace(data).values)
    raw = bytearray(path.read_bytes())
    raw[20] ^= 0xFF
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="checksum"):
        EntropyModel.load(bad)


def test_load_rejects_counts_that_do_not_nest(tmp_path, entropy2_small):
    # drop one length-1 pair that a length-2 pair extends: (ctx "t", next "h")
    lev1 = entropy2_small.levels[1]
    drop = (lev1.pair_ctx == ord("t")) & (lev1.pair_next == ord("h"))
    assert drop.sum() == 1
    levels = list(entropy2_small.levels)
    levels[1] = _Level(lev1.pair_ctx[~drop], lev1.pair_next[~drop], lev1.pair_cnt[~drop])
    path = tmp_path / "not_nested.bin"
    EntropyModel(2, entropy2_small.alpha, levels).save(path)
    with pytest.raises(DataError, match="do not nest"):
        EntropyModel.load(path)


@pytest.mark.parametrize("disorder", ["reversed", "run_split", "pairs_swapped", "pair_repeated"])
def test_load_rejects_pairs_out_of_order(tmp_path, models_by_order, disorder):
    # pairs out of order misplace the rows a trace looks up, and a split run
    # holds one context key twice, which no row table can place
    model = models_by_order[3]
    lev = model.levels[3]
    rows = np.arange(len(lev.pair_ctx))
    run = np.diff(lev.ctx_first, append=len(rows))
    i = int(lev.ctx_first[np.flatnonzero(run[:-1] > 1)[0]])  # a context of several pairs, not the last
    order = {"reversed": rows[::-1],
             "run_split": np.r_[rows[:i], rows[i + 1:], i],  # its first pair moves to the end
             "pairs_swapped": np.r_[rows[:i], i + 1, i, rows[i + 2:]],
             "pair_repeated": np.r_[rows[:i + 1], i, rows[i + 1:]]}[disorder]
    with pytest.raises(ValueError, match="strictly increasing"):
        _Level(lev.pair_ctx[order], lev.pair_next[order], lev.pair_cnt[order])
    bad = copy.copy(lev)  # a level that skipped the check, as a file can hold one
    bad.pair_ctx, bad.pair_next, bad.pair_cnt = lev.pair_ctx[order], lev.pair_next[order], lev.pair_cnt[order]
    path = tmp_path / f"{disorder}.bin"
    EntropyModel(3, model.alpha, [*model.levels[:3], bad]).save(path)
    with pytest.raises(DataError, match="strictly increasing"):
        EntropyModel.load(path)


def test_order8_tables_memory_is_bounded_by_pairs():
    # the dense tables this replaced kept a 256-wide float64 row per context,
    # about 466 MB here; the short-context table adds a fixed 65,793 float64s
    short_bytes = 65_793 * 8
    text = textgen.synthetic_text(256_000, seed=3).encode()
    model = train_counts([_doc(text)], order=8)
    tracemalloc.start()
    try:
        model.entropy_trace(np.frombuffer(b"x", np.uint8))  # builds every level's table
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model._tables.short.nbytes == short_bytes
    assert peak < 64 * 2**20 + short_bytes
    for k, lev in enumerate(model.levels):  # the row tables: at most 16 bytes per stored context
        if k > 2:
            assert model._tables.rows[k].rows.nbytes <= 16 * len(lev.ctx_keys)


def test_build_memory_is_one_pair_key_buffer():
    # building every level from per-level copies of all documents' packed
    # keys, counted by np.unique, peaked at 9.8 MB here (about 9.5 MB on the
    # benchmark's patch-o4 corpus); one reused uint64 pair-key buffer is 2.1 MB
    docs = [_doc(t.encode()) for t in textgen.synthetic_documents(256, 1000, seed=3)]
    assert sum(map(len, docs)) == 264_452
    train_counts(docs, order=4)  # fills numpy's lazy first-call caches
    tracemalloc.start()
    try:
        train_counts(docs, order=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.05 * 3_976_893


def test_serialization_deterministic(tmp_path, small_docs):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    train_counts(small_docs, order=2).save(p1)
    train_counts(small_docs, order=2).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_export_trace_rows(tmp_path, entropy3):
    data = np.frombuffer(b"a b", np.uint8)
    tr = entropy3.entropy_trace(data)
    out = tmp_path / "t.tsv"
    write_trace_tsv(out, tr, data, PatchBoundaries(np.array([0, 2]), 3))
    rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 3
    assert rows[1][2] == "_"  # space renders as underscore
    assert [r[4] for r in rows] == ["1", "0", "1"]
    assert [float(r[3]) for r in rows] == pytest.approx(tr.values, abs=1e-6)


def test_write_trace_tsv(tmp_path, entropy3):
    data = np.frombuffer(b"hello world", np.uint8)
    tr = entropy3.entropy_trace(data)
    out = tmp_path / "t.tsv"
    write_trace_tsv(out, tr, data, PatchBoundaries(np.array([0, 6]), len(data)))
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "pos\tbyte_hex\tglyph\tentropy_nats\tboundary"
    assert len(lines) == 12


def test_word_initial_entropy_higher_than_internal(entropy3, english_docs):
    # directional check on an English-like sample
    data = english_docs[2]
    tr = entropy3.entropy_trace(data)
    is_space = data == ord(" ")
    word_initial = np.zeros(len(data), bool)
    word_initial[1:] = is_space[:-1] & ~is_space[1:]
    word_internal = np.zeros(len(data), bool)
    word_internal[1:] = ~is_space[:-1] & ~is_space[1:]
    assert tr.values[word_initial].mean() > tr.values[word_internal].mean()
