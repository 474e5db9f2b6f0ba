import numpy as np
import pytest

from patchlm.corpus import Document
from patchlm.entropy_lm import (
    LN256,
    EntropyModel,
    EntropyModelError,
    export_trace,
    train_counts,
    write_trace_tsv,
)
from patchlm.patching import PatchBoundaries


def _doc(data: bytes) -> Document:
    return Document("d", np.frombuffer(data, np.uint8))


def test_alternating_corpus_is_near_deterministic():
    m = train_counts([_doc(b"ab" * 5000)], order=1)
    assert m.next_byte_distribution(b"a")[ord("b")] > 0.99
    assert m.next_byte_distribution(b"b")[ord("a")] > 0.99


def test_uniform_random_corpus_entropy_approaches_ln256():
    # with order 1 the per-context counts are dense enough to sit at the limit
    rng = np.random.Generator(np.random.PCG64(0))
    data = rng.integers(0, 256, size=2_000_000, dtype=np.uint8).astype(np.uint8)
    m1 = train_counts([Document("d", data)], order=1)
    tr = m1.entropy_trace(data[:5000])
    assert abs(tr.values[100:].mean() - LN256) < 0.05
    # order-2 contexts are sparse at these sizes; once counts outgrow the
    # overfit regime the entropy climbs back toward ln 256 with corpus size
    h = []
    for size in (800_000, 2_000_000, 8_000_000):
        more = rng.integers(0, 256, size=size, dtype=np.uint8).astype(np.uint8)
        m2 = train_counts([Document("d", more)], order=2, max_pairs=60_000_000)
        h.append(m2.entropy_trace(data[:3000]).values[100:].mean())
    assert h[0] < h[1] < h[2] < LN256


def test_constant_corpus_low_entropy():
    m = train_counts([_doc(b"a" * 10_000)], order=1)
    # derived from the smoothed counts: p(a|a) = (9999 + g*p0(a)) / (9999 + g)
    assert m.entropy_at(b"a") < 0.1


def test_distributions_sum_to_one_and_positive(entropy3):
    for ctx in (b"", b"t", b"th", b"the", b"zzz", bytes([0, 255])):
        p = entropy3.next_byte_distribution(ctx)
        assert abs(p.sum() - 1.0) < 1e-9
        assert (p > 0).all()


def test_unseen_context_backs_off_to_suffix(entropy3):
    unseen = bytes([7, 250, ord("t")])  # improbable 3-gram ending in 't'
    assert entropy3.levels[3].find(int.from_bytes(unseen, "big")) == -1
    np.testing.assert_array_equal(
        entropy3.next_byte_distribution(unseen),
        entropy3.next_byte_distribution(unseen[1:]),
    )


def test_context_longer_than_order_truncates(entropy3):
    long_ctx = b"and the"
    np.testing.assert_array_equal(
        entropy3.next_byte_distribution(long_ctx),
        entropy3.next_byte_distribution(long_ctx[-3:]),
    )


def test_trained_alternation_argmax():
    m = train_counts([_doc(b"ab" * 2000)], order=1)
    assert int(np.argmax(m.next_byte_distribution(b"a"))) == ord("b")


def test_trace_fast_path_matches_reference(entropy2_small, small_docs):
    data = small_docs[0][:600]
    tr = entropy2_small.entropy_trace(data)
    raw = data.tobytes()
    ref = np.array([entropy2_small.entropy_at(raw[max(0, i - 2) : i]) for i in range(len(raw))])
    np.testing.assert_allclose(tr.values, ref, rtol=0, atol=1e-12)


def test_trace_bounds_and_first_position(entropy3, english_docs):
    tr = entropy3.entropy_trace(english_docs[-1])
    assert (tr.values >= 0).all() and (tr.values <= LN256 + 1e-12).all()
    p0 = entropy3.next_byte_distribution(b"")
    assert abs(tr.values[0] - float(-(p0 * np.log(p0)).sum())) < 1e-12


def test_single_byte_input_unigram_entropy(entropy3):
    tr = entropy3.entropy_trace(np.array([ord("x")], np.uint8))
    p0 = entropy3.next_byte_distribution(b"")
    assert abs(tr.values[0] - float(-(p0 * np.log(p0)).sum())) < 1e-12


def test_newline_reset(entropy3):
    data = np.frombuffer(b"word\nyes", np.uint8)
    tr = entropy3.entropy_trace(data, reset_on_newline=True)
    assert tr.reset_positions.tolist() == [5]
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


def test_high_order_slow_path_matches_definition(small_docs):
    m = train_counts(small_docs[:20], order=5)
    data = small_docs[0][:120]
    tr = m.entropy_trace(data)
    raw = data.tobytes()
    ref = [m.entropy_at(raw[max(0, i - 5) : i]) for i in range(len(raw))]
    np.testing.assert_allclose(tr.values, ref, atol=1e-12)


def test_order_and_alpha_validation(small_docs):
    with pytest.raises(EntropyModelError):
        train_counts(small_docs, order=0)
    with pytest.raises(EntropyModelError):
        train_counts(small_docs, order=9)
    with pytest.raises(EntropyModelError, match="pairs"):
        train_counts(small_docs, order=8, max_pairs=1000)
    with pytest.raises(EntropyModelError):
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
    with pytest.raises(EntropyModelError, match="checksum"):
        EntropyModel.load(bad)


def test_serialization_deterministic(tmp_path, small_docs):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    train_counts(small_docs, order=2).save(p1)
    train_counts(small_docs, order=2).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_export_trace_rows(entropy3):
    data = np.frombuffer(b"a b", np.uint8)
    tr = entropy3.entropy_trace(data)
    rows = export_trace(tr, data, PatchBoundaries(np.array([0, 2]), 3))
    assert len(rows) == 3
    assert rows[1][2] == "_"  # space renders as underscore
    assert [r[4] for r in rows] == [1, 0, 1]


def test_write_trace_tsv(tmp_path, entropy3):
    data = np.frombuffer(b"hello world", np.uint8)
    tr = entropy3.entropy_trace(data)
    out = tmp_path / "t.tsv"
    write_trace_tsv(out, tr, data)
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
