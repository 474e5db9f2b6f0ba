import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchlm.bpe import train_bpe
from patchlm.entropy_lm import LN256, EntropyTrace, train_counts
from patchlm.errors import ConfigError
from patchlm.patching import (
    CalibrationError,
    PatchBoundaries,
    PatchingConfig,
    calibrate_threshold,
    check_incrementality,
    enforce_max_patch,
    make_patcher,
    patch_entropy,
    patch_space,
    patch_strided,
    patch_stats,
    write_boundaries_tsv,
    _mean_size_at,
)


def b(s: bytes) -> np.ndarray:
    return np.frombuffer(s, np.uint8)


def _trace(values) -> EntropyTrace:
    return EntropyTrace(np.asarray(values, np.float64), np.zeros(0, np.int64))


# -- boundary invariants ------------------------------------------------------


def test_boundaries_validation():
    with pytest.raises(ValueError):
        PatchBoundaries(np.array([1, 2]), 5)  # missing 0
    with pytest.raises(ValueError):
        PatchBoundaries(np.array([0, 2, 2]), 5)  # not strictly increasing
    with pytest.raises(ValueError):
        PatchBoundaries(np.array([0, 5]), 5)  # start beyond sequence
    empty = PatchBoundaries(np.zeros(0, np.int64), 0)
    assert empty.n_patches == 0


def test_partition_coverage_fuzzed():
    rng = np.random.Generator(np.random.PCG64(0))
    m = train_counts([rng.integers(0, 256, 4000, dtype=np.uint8).astype(np.uint8)], order=2)
    for trial in range(25):
        n = int(rng.integers(1, 300))
        data = rng.integers(0, 256, n, dtype=np.uint8).astype(np.uint8)
        tr = m.entropy_trace(data)
        for bounds in (
            patch_strided(n, int(rng.integers(1, 9))),
            patch_space(data),
            patch_entropy(tr, theta_g=float(rng.uniform(0, LN256))),
            patch_entropy(tr, theta_r=float(rng.uniform(-1, 1))),
        ):
            assert bounds.starts[0] == 0
            assert bounds.n_patches <= n
            assert bounds.lengths().sum() == n  # exact partition, no gaps/overlaps
            assert (bounds.lengths() > 0).all()


# -- strided -------------------------------------------------------------------


def test_strided_examples():
    assert patch_strided(10, 4).starts.tolist() == [0, 4, 8]
    assert patch_strided(4, 4).starts.tolist() == [0]
    n = 17
    assert patch_strided(n, 1).starts.tolist() == list(range(n))
    assert patch_strided(0, 4).n_patches == 0


# -- space ----------------------------------------------------------------------


def test_space_examples():
    assert patch_space(b(b"the cat")).starts.tolist() == [0, 4]
    assert patch_space(b(b"a  b")).starts.tolist() == [0, 3]
    assert patch_space(b(b"   ")).starts.tolist() == [0]  # degenerate single patch


def test_space_like_classes():
    # only ASCII letters, digits, and continuation bytes are non-space-like;
    # a multi-byte character's lead byte counts as space-like, so its
    # continuation byte right after it opens a patch
    text = "hé x".encode()  # 68 C3 A9 20 78
    bounds = patch_space(b(text))
    assert bounds.starts.tolist() == [0, 2, 4]
    # digits are not space-like
    assert patch_space(b(b"a 12")).starts.tolist() == [0, 2]


# -- entropy --------------------------------------------------------------------


def test_entropy_global_threshold_extremes():
    tr = _trace([0.5, 1.0, 2.0, 0.1])
    assert patch_entropy(tr, theta_g=LN256 + 1).starts.tolist() == [0]
    assert patch_entropy(tr, theta_g=0.0).starts.tolist() == [0, 1, 2, 3]
    assert patch_entropy(tr, theta_g=1.5).starts.tolist() == [0, 2]


def test_entropy_monotonic_examples():
    assert patch_entropy(_trace([3.0, 2.0, 1.0, 0.5]), theta_r=0.0).starts.tolist() == [0]
    assert patch_entropy(_trace([1.0, 0.2, 2.0]), theta_r=0.5).starts.tolist() == [0, 2]
    assert patch_entropy(_trace([1.0, 0.2, 2.0]), theta_r=float("inf")).starts.tolist() == [0]


def test_entropy_or_combination():
    tr = _trace([1.0, 0.2, 0.9, 3.0])
    got = patch_entropy(tr, theta_g=2.0, theta_r=0.5)
    assert got.starts.tolist() == [0, 2, 3]
    with pytest.raises(ConfigError):
        patch_entropy(tr)


def test_entropy_global_mean_size_monotone_in_threshold():
    rng = np.random.Generator(np.random.PCG64(3))
    tr = _trace(rng.uniform(0, LN256, size=4000))
    sizes = []
    for theta in np.linspace(0, LN256, 12):
        bounds = patch_entropy(tr, theta_g=float(theta))  # a scheme forces no split
        sizes.append(patch_stats(bounds).mean_patch_size)
    assert all(a <= b + 1e-12 for a, b in zip(sizes, sizes[1:]))


# -- max patch cap -----------------------------------------------------------------


def test_max_patch_cap_forces_splits():
    starts, forced = enforce_max_patch(np.array([0], np.int64), 1300, 512)
    assert starts.tolist() == [0, 512, 1024] and forced == 2
    space = make_patcher(PatchingConfig(scheme="space", max_patch_size=512))
    bounds = space(b(b"x" * 1200))
    assert bounds.lengths().max() <= 512
    assert bounds.forced_splits == 2 and patch_stats(bounds).forced_splits == 2
    assert patch_space(b(b"x" * 1200)).forced_splits == 0  # a scheme only proposes starts
    strided = make_patcher(PatchingConfig(scheme="strided", k=1300, max_patch_size=512))
    assert strided(np.zeros(1300, np.uint8)).forced_splits == 2
    bpe = make_patcher(PatchingConfig(scheme="bpe", max_patch_size=1),
                       bpe_vocab=train_bpe([b"x" * 4], n_merges=1))  # 2-byte tokens
    assert bpe(b(b"x" * 1300)).forced_splits == 650
    assert space(b(b"x" * 512)).forced_splits == 0


@settings(max_examples=150, deadline=None)
@given(scheme=st.sampled_from(["strided", "space", "entropy_global", "entropy_monotonic",
                               "entropy_or", "bpe"]),
       data=st.lists(st.sampled_from(list(b"ab c\n.,xyz0123")), min_size=1,
                     max_size=1200).map(bytes),
       max_patch=st.sampled_from([1, 3, 512]), k=st.integers(1, 700),
       theta=st.sampled_from([0.5, 1.5, 2.5, 10.0]))
def test_make_patcher_forces_the_splits_the_cap_implies(entropy3, scheme, data, max_patch, k,
                                                        theta):
    # the scheme's uncapped proposal, then (L - 1) // max_patch splits per patch of length L
    arr = b(data)
    vocab = train_bpe([b"aaab cab x", b"xyz xyz 012"], n_merges=8)
    trace = entropy3.entropy_trace(arr)
    proposals = {
        "strided": lambda: patch_strided(len(arr), k),
        "space": lambda: patch_space(arr),
        "entropy_global": lambda: patch_entropy(trace, theta_g=theta),
        "entropy_monotonic": lambda: patch_entropy(trace, theta_r=theta - 1.0),
        "entropy_or": lambda: patch_entropy(trace, theta, theta - 1.0),
        "bpe": lambda: PatchBoundaries(vocab.token_starts(arr), len(arr)),
    }
    config = PatchingConfig(scheme=scheme, k=k, theta_g=theta, theta_r=theta - 1.0,
                            max_patch_size=max_patch)
    got = make_patcher(config, entropy_model=entropy3, bpe_vocab=vocab)(arr)
    proposed = proposals[scheme]()
    assert proposed.forced_splits == 0
    assert got.forced_splits == int(((proposed.lengths() - 1) // max_patch).sum())
    assert got.n_patches == proposed.n_patches + got.forced_splits
    assert np.isin(proposed.starts, got.starts).all()
    assert got.n_bytes == len(arr) and (got.lengths() <= max_patch).all()


# -- stats -----------------------------------------------------------------------


def test_patch_stats_examples():
    s = patch_stats(PatchBoundaries(np.array([0, 4, 8]), 10))
    assert s.mean_patch_size == 10 / 3
    assert s.histogram == {2: 1, 4: 2}
    assert patch_stats(PatchBoundaries(np.array([0]), 7)).mean_patch_size == 7
    s1 = patch_stats(PatchBoundaries(np.arange(9), 9))
    assert s1.mean_patch_size == 1


# -- calibration -----------------------------------------------------------------


def test_calibration_hits_target(entropy3, english_docs):
    sample = english_docs[: len(english_docs) // 4]
    theta = calibrate_threshold(entropy3, sample, 4.5)
    sizes = [patch_entropy(entropy3.entropy_trace(d), theta_g=theta) for d in sample]
    mean = sum(x.n_bytes for x in sizes) / sum(x.n_patches for x in sizes)
    assert abs(mean - 4.5) / 4.5 < 0.02


def test_calibration_rejects_bad_targets(entropy3, english_docs):
    sample = english_docs[: len(english_docs) // 4]
    with pytest.raises(CalibrationError):
        calibrate_threshold(entropy3, sample, 1.0)  # outside (1, 64]
    with pytest.raises(CalibrationError) as ei:
        calibrate_threshold(entropy3, sample, 64.0)  # far beyond achievable
    assert ei.value.achievable is not None
    with pytest.raises(CalibrationError, match="sample too small"):
        calibrate_threshold(entropy3, sample[:2], 4.5)


_LEVELS = [0.0, 0.5, 1.0, 2.0, 3.5]


@settings(max_examples=150, deadline=None)
@given(docs=st.lists(st.lists(st.sampled_from(_LEVELS), min_size=1, max_size=30),
                     min_size=1, max_size=6),
       theta=st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 3.5]),
       monotonic=st.booleans(), max_patch=st.sampled_from([1, 3, 512]))
def test_calibration_count_equals_per_document_patching(docs, theta, monotonic, max_patch):
    # calibrate_threshold scans the concatenated traces; the reference patches
    # each document on its own
    traces = [_trace(d) for d in docs]
    thetas = (None, theta) if monotonic else (theta, None)
    ref = [enforce_max_patch(patch_entropy(t, *thetas).starts, len(t.values), max_patch)[0]
           for t in traces]
    values = np.concatenate([t.values for t in traces])
    doc_start = np.zeros(len(values), dtype=bool)
    doc_start[np.cumsum([0] + [len(d) for d in docs[:-1]])] = True
    score = np.diff(values, prepend=values[0]) if monotonic else values
    assert _mean_size_at(score, doc_start, theta, max_patch) == len(values) / sum(map(len, ref))


def test_calibration_monotonic_scheme(entropy3, english_docs):
    sample = english_docs[: len(english_docs) // 4]
    theta = calibrate_threshold(entropy3, sample, 6.0, scheme="entropy_monotonic")
    sizes = [patch_entropy(entropy3.entropy_trace(d), theta_r=theta) for d in sample]
    mean = sum(x.n_bytes for x in sizes) / sum(x.n_patches for x in sizes)
    assert abs(mean - 6.0) / 6.0 < 0.02


# -- bpe scheme, incrementality ----------------------------------------------------


def test_bpe_adapter_identity_vocab():
    vocab = train_bpe([b"xy"], n_merges=0)
    bounds = make_patcher(PatchingConfig(scheme="bpe"), bpe_vocab=vocab)(b(b"abcd"))
    assert bounds.starts.tolist() == [0, 1, 2, 3]


def test_bpe_adapter_greedy_merge():
    vocab = train_bpe([b"aaaa"], n_merges=1)
    bounds = make_patcher(PatchingConfig(scheme="bpe"), bpe_vocab=vocab)(b(b"aaaa"))
    assert bounds.starts.tolist() == [0, 2]


def test_incremental_schemes_have_zero_violations(entropy3, english_docs):
    data = english_docs[0]
    theta = 2.0
    patchers = {
        "strided": lambda d: patch_strided(len(d), 4),
        "space": patch_space,
        "entropy_global": lambda d: patch_entropy(entropy3.entropy_trace(d), theta_g=theta),
        "entropy_monotonic": lambda d: patch_entropy(entropy3.entropy_trace(d), theta_r=0.3),
    }
    for name, p in patchers.items():
        assert check_incrementality(p, data, n_prefixes=50, seed=1) == [], name


def test_bpe_violates_incrementality_on_witness():
    # rank order matters: the (b, c) merge outranks (a, b), so the prefix "ab"
    # fuses while the full string "abc" splits it
    corpus = [b"bc"] * 6 + [b"ab"] * 5 + [b"abc"]
    vocab = train_bpe(corpus, n_merges=2)
    merged_pairs = [(va, vb) for va, vb, _ in vocab.merges]
    assert (ord("b"), ord("c")) in merged_pairs and (ord("a"), ord("b")) in merged_pairs

    patcher = make_patcher(PatchingConfig(scheme="bpe"), bpe_vocab=vocab)
    witness = None
    for cand in (b"abc", b"abcabc", b"aabc"):
        if check_incrementality(patcher, b(cand), n_prefixes=len(cand), seed=0):
            witness = cand
            break
    assert witness is not None


def test_checker_reports_mismatch_positions():
    # a deliberately prefix-unstable patcher: boundary placement depends on total length
    def silly(data):
        n = len(data)
        k = 2 if n % 2 == 0 else 3
        return patch_strided(n, k)

    bad = check_incrementality(silly, b(b"abcdefghij"), n_prefixes=9, seed=0)
    assert bad


# -- config / factory ------------------------------------------------------------


def test_patching_config_validation():
    with pytest.raises(ConfigError):
        PatchingConfig(scheme="nope")
    with pytest.raises(ConfigError):
        PatchingConfig(scheme="strided", k=0)
    with pytest.raises(ConfigError):
        PatchingConfig(theta_g=float("nan"))


def test_boundary_tsv_export(tmp_path):
    out = tmp_path / "b.tsv"
    write_boundaries_tsv(out, [("doc0", PatchBoundaries(np.array([0, 4, 8]), 10))])
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "doc_id\tstart_index"
    assert lines[1:] == ["doc0\t0", "doc0\t4", "doc0\t8"]
