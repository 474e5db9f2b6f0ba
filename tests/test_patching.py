from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from patchlm.bpe import train_bpe
from patchlm.entropy_lm import LN256, NEWLINE, EntropyTrace, train_counts
from patchlm.errors import ConfigError, DataError
from patchlm.patching import (
    SCHEMES,
    PatchBoundaries,
    Patcher,
    PatchingConfig,
    CALIBRATION_TOL,
    ENTROPY_THRESHOLDS,
    calibrate_threshold,
    calibrated_config,
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
from tests import composed


def b(s: bytes) -> np.ndarray:
    return np.frombuffer(s, np.uint8)


def _trace(values) -> EntropyTrace:
    return EntropyTrace(np.asarray(values, np.float64))


# -- boundary invariants ------------------------------------------------------


def test_boundaries_validation():
    # each check has its own message; the first that fails is the one raised
    first, increasing, below = "first byte must start a patch", "strictly increasing", "< n_bytes"
    cases = [
        ([1, 2], 5, first),  # missing 0
        ([], 0, first),  # an empty sequence has no patches
        ([1, 1], 5, first),
        ([0, 2, 2], 5, increasing),
        ([0, 3, 2], 5, increasing),
        ([0, 6, 6], 5, increasing),  # also beyond the sequence
        ([0, 5], 5, below),  # start beyond sequence
        ([0, 2, 7], 5, below),
    ]
    for starts, n_bytes, message in cases:
        with pytest.raises(ValueError, match=message):
            PatchBoundaries(np.array(starts, np.int64), n_bytes)
    assert PatchBoundaries(np.array([0, 2, 4]), 5).lengths().tolist() == [2, 2, 1]


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
       theta=st.sampled_from([0.5, 1.5, 2.5, 10.0]), reset=st.booleans())
@example(scheme="entropy_monotonic", data=b"abc\nxyz\n0123\nab c", max_patch=3, k=1, theta=1.5,
         reset=True)  # the reset moves the proposed starts here
def test_make_patcher_forces_the_splits_the_cap_implies(entropy3, scheme, data, max_patch, k,
                                                        theta, reset):
    # the scheme's uncapped proposal, then (L - 1) // max_patch splits per patch of length L
    arr = b(data)
    vocab = train_bpe([b"aaab cab x", b"xyz xyz 012"], n_merges=8)
    trace = entropy3.entropy_trace(arr, reset_on_newline=reset)
    proposals = {
        "strided": lambda: patch_strided(len(arr), k),
        "space": lambda: patch_space(arr),
        "entropy_global": lambda: patch_entropy(trace, theta_g=theta),
        "entropy_monotonic": lambda: patch_entropy(trace, theta_r=theta - 1.0),
        "entropy_or": lambda: patch_entropy(trace, theta, theta - 1.0),
        "bpe": lambda: PatchBoundaries(vocab.token_starts(arr), len(arr)),
    }
    config = PatchingConfig(scheme=scheme, k=k, theta_g=theta, theta_r=theta - 1.0,
                            max_patch_size=max_patch, reset_on_newline=reset)
    got = make_patcher(config, entropy_model=entropy3, bpe_vocab=vocab)(arr)
    proposed = proposals[scheme]()
    assert proposed.forced_splits == 0
    assert got.forced_splits == int(((proposed.lengths() - 1) // max_patch).sum())
    assert got.n_patches == proposed.n_patches + got.forced_splits
    assert np.isin(proposed.starts, got.starts).all()
    assert got.n_bytes == len(arr) and (got.lengths() <= max_patch).all()
    starts, forced = enforce_max_patch(proposed.starts, len(arr), max_patch)
    assert got.starts.dtype == starts.dtype == np.int64
    assert np.array_equal(got.starts, starts) and got.forced_splits == forced


# -- stats -----------------------------------------------------------------------


def test_patch_stats_examples():
    s = patch_stats(PatchBoundaries(np.array([0, 4, 8]), 10))
    assert s.mean_patch_size == 10 / 3
    assert s.histogram == {2: 1, 4: 2}
    assert patch_stats(PatchBoundaries(np.array([0]), 7)).mean_patch_size == 7
    s1 = patch_stats(PatchBoundaries(np.arange(9), 9))
    assert s1.mean_patch_size == 1


def one_sequence_stats(bounds):
    """``patch_stats`` of one sequence before it took several, kept as its oracle."""
    lengths = bounds.lengths()
    hist = {int(size): int(cnt) for size, cnt in zip(*np.unique(lengths, return_counts=True))}
    mean = bounds.n_bytes / bounds.n_patches if bounds.n_patches else 0.0
    return mean, hist, bounds.n_patches, bounds.n_bytes, bounds.forced_splits


@settings(max_examples=50, deadline=None)
@given(lengths=st.lists(st.integers(1, 300), min_size=1, max_size=5), k=st.integers(1, 9),
       max_patch=st.integers(1, 12))
def test_patch_stats_counts_several_sequences_together(lengths, k, max_patch):
    patcher = make_patcher(PatchingConfig(scheme="strided", k=k, max_patch_size=max_patch))
    bounds = [patcher(np.zeros(n, np.uint8)) for n in lengths]
    for one in bounds:
        s = patch_stats(one)
        assert (s.mean_patch_size, s.histogram, s.n_patches, s.n_bytes,
                s.forced_splits) == one_sequence_stats(one)
    s = patch_stats(*bounds)
    assert s.n_patches == sum(x.n_patches for x in bounds)
    assert s.n_bytes == sum(lengths)
    assert s.forced_splits == sum(x.forced_splits for x in bounds)
    assert sum(s.histogram.values()) == s.n_patches
    for size, count in s.histogram.items():
        assert count == sum(one_sequence_stats(x)[1].get(size, 0) for x in bounds)
    assert s.mean_patch_size == (sum(lengths) / s.n_patches if s.n_patches else 0.0)


# -- calibration -----------------------------------------------------------------


def test_calibration_hits_target(entropy3, english_docs):
    sample = english_docs[: len(english_docs) // 4]
    theta = calibrate_threshold(entropy3, sample, 4.5)
    sizes = [patch_entropy(entropy3.entropy_trace(d), theta_g=theta) for d in sample]
    mean = sum(x.n_bytes for x in sizes) / sum(x.n_patches for x in sizes)
    assert abs(mean - 4.5) / 4.5 < 0.02


def test_calibration_rejects_bad_targets(entropy3, english_docs):
    sample = english_docs[: len(english_docs) // 4]
    with pytest.raises(ConfigError, match=r"must be in \(1, 64\]"):
        calibrate_threshold(entropy3, sample, 1.0)
    # far beyond achievable: the message gives the achievable range
    with pytest.raises(ConfigError, match=r"achievable .*\[\d+\.\d+, \d+\.\d+\]"):
        calibrate_threshold(entropy3, sample, 64.0)
    with pytest.raises(ConfigError, match="sample too small"):
        calibrate_threshold(entropy3, sample[:2], 4.5)


_LEVELS = [0.0, 0.5, 1.0, 2.0, 3.5]


@settings(max_examples=150, deadline=None)
@given(docs=st.lists(st.lists(st.sampled_from(_LEVELS), min_size=1, max_size=30),
                     min_size=1, max_size=6),
       theta=st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 3.5]),
       monotonic=st.booleans(), max_patch=st.sampled_from([1, 2, 3, 512]))
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
    want = len(values) / sum(map(len, ref))
    assert _mean_size_at(score, doc_start, theta, max_patch) == want


def test_calibration_monotonic_scheme(entropy3, english_docs):
    sample = english_docs[: len(english_docs) // 4]
    theta = calibrate_threshold(entropy3, sample, 6.0, PatchingConfig(scheme="entropy_monotonic"))
    sizes = [patch_entropy(entropy3.entropy_trace(d), theta_r=theta) for d in sample]
    mean = sum(x.n_bytes for x in sizes) / sum(x.n_patches for x in sizes)
    assert abs(mean - 6.0) / 6.0 < 0.02


def test_calibration_reads_newline_reset_and_max_patch_from_config(entropy3, english_docs):
    sample = english_docs[: len(english_docs) // 4]
    assert sum(int((d == NEWLINE).sum()) for d in sample) > 100
    config = PatchingConfig(reset_on_newline=True, max_patch_size=6)
    # each setting moves theta: the default, the cap alone, the cap and the reset
    thetas = {calibrate_threshold(entropy3, sample, 4.5, c)
              for c in (None, PatchingConfig(max_patch_size=6), config)}
    assert len(thetas) == 3
    stats = patch_stats(*map(make_patcher(calibrated_config(config, entropy3, sample, 4.5),
                                          entropy_model=entropy3), sample))
    assert stats.forced_splits > 0
    assert abs(stats.mean_patch_size - 4.5) / 4.5 <= CALIBRATION_TOL


@pytest.mark.parametrize("reset", [False, True])
@pytest.mark.parametrize("max_patch", [1, 3, 6, 512])
@pytest.mark.parametrize("scheme,target", [("entropy_global", 4.5), ("entropy_global", 2.9),
                                           ("entropy_monotonic", 6.0), ("entropy_monotonic", 2.9)])
def test_calibration_returns_the_plain_bisections_theta(entropy3, english_docs, scheme, target,
                                                        max_patch, reset):
    sample = english_docs[:60]
    config = PatchingConfig(scheme=scheme, max_patch_size=max_patch, reset_on_newline=reset)
    outcomes = []
    for calibrate in (calibrate_threshold, composed.calibrate_threshold):
        try:
            outcomes.append(calibrate(entropy3, sample, target, config))
        except ConfigError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    if (target, max_patch) == (2.9, 3):
        # reachable only with forced splits: at the calibrated threshold the cap splits patches
        (name,) = ENTROPY_THRESHOLDS[scheme]
        patcher = make_patcher(replace(config, **{name: outcomes[0]}), entropy_model=entropy3)
        assert patch_stats(*map(patcher, sample)).forced_splits > 0


class _StoredTraces:
    """A stand-in entropy model that traces each document as the scores stored for it."""

    def __init__(self, traces: dict):
        self.traces = traces

    def entropy_trace(self, data, reset_on_newline=False):
        return _trace(self.traces[bytes(data)])


@pytest.mark.parametrize("max_patch", [1, 2, 3, 6, 512])
@pytest.mark.parametrize("scheme", ["entropy_global", "entropy_monotonic"])
@pytest.mark.parametrize("ties", [True, False])
def test_calibration_on_stored_scores_returns_the_plain_bisections_theta(ties, scheme, max_patch):
    # scores drawn from five levels, so that many tie, or all distinct
    rng = np.random.Generator(np.random.PCG64(7))
    sample = [rng.integers(0, 256, n, dtype=np.uint8) for n in rng.integers(8, 200, 1000)]
    model = _StoredTraces({bytes(d): rng.choice(_LEVELS, len(d)) if ties else rng.uniform(0, 4, len(d))
                           for d in sample})
    config = PatchingConfig(scheme=scheme, max_patch_size=max_patch)
    # both ends of the achievable range, points up to the end or 64, and just past each end
    values = np.concatenate([model.traces[bytes(d)] for d in sample])
    doc_start = np.zeros(len(values), dtype=bool)
    doc_start[np.cumsum([0] + [len(d) for d in sample[:-1]])] = True
    jump = scheme == "entropy_monotonic"
    score = np.diff(values, prepend=values[0]) if jump else values
    ends = [_mean_size_at(score, doc_start, t, max_patch)
            for t in ((-LN256 - 1.0) if jump else 0.0, LN256 + 1.0)]
    assert len(values) >= 10**5
    targets = [*ends, *np.linspace(ends[0], min(ends[1], 64.0), 7), ends[0] * 0.97, ends[1] * 1.03]
    for target in targets:
        outcomes = []
        for calibrate in (calibrate_threshold, composed.calibrate_threshold):
            try:
                outcomes.append(calibrate(model, sample, float(target), config))
            except ConfigError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], target
        if target == ends[1] and 1.0 < target <= 64.0:  # where the range's top is a target
            assert isinstance(outcomes[0], float)


# -- bpe scheme, incrementality ----------------------------------------------------


def test_bpe_scheme_identity_vocab():
    vocab = train_bpe([b"xy"], n_merges=0)
    bounds = make_patcher(PatchingConfig(scheme="bpe"), bpe_vocab=vocab)(b(b"abcd"))
    assert bounds.starts.tolist() == [0, 1, 2, 3]


def test_bpe_scheme_greedy_merge():
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


SAVED_CONFIGS = {
    "strided": PatchingConfig(scheme="strided", k=3),
    "space": PatchingConfig(scheme="space", max_patch_size=7),
    "entropy_global": PatchingConfig(scheme="entropy_global", theta_g=1.8689012345678901,
                                     reset_on_newline=True),
    "entropy_monotonic": PatchingConfig(scheme="entropy_monotonic", theta_r=0.3, max_patch_size=5),
    "entropy_or": PatchingConfig(scheme="entropy_or", theta_g=2.5, theta_r=0.2),
    "bpe": PatchingConfig(scheme="bpe", bpe_merges=40),
}


def saved_config_patcher(scheme, docs, entropy_model) -> Patcher:
    config = SAVED_CONFIGS[scheme]
    vocab = train_bpe(docs[:8], n_merges=config.bpe_merges) if scheme == "bpe" else None
    return Patcher(config, entropy_model if scheme.startswith("entropy") else None, vocab)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_saved_patcher_loads_the_same_patches(tmp_path, small_docs, entropy2_small, scheme):
    config = SAVED_CONFIGS[scheme]
    patcher = saved_config_patcher(scheme, small_docs, entropy2_small)
    vocab = patcher.bpe_vocab
    patcher.save(tmp_path)
    assert (tmp_path / "entropy.bin").exists() == scheme.startswith("entropy")
    loaded = Patcher.load(tmp_path)
    assert loaded.config == config
    if vocab is not None:
        assert loaded.bpe_vocab.merges == vocab.merges
    for doc in small_docs[10:20]:
        want, got = patcher(doc), loaded(doc)
        assert np.array_equal(got.starts, want.starts) and got.forced_splits == want.forced_splits


@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_scheme_rejects_empty_input(small_docs, entropy2_small, scheme):
    patcher = saved_config_patcher(scheme, small_docs, entropy2_small)
    with pytest.raises(DataError, match="non-empty"):
        patcher(np.zeros(0, np.uint8))


def test_boundary_tsv_export(tmp_path):
    out = tmp_path / "b.tsv"
    write_boundaries_tsv(out, [("doc0", PatchBoundaries(np.array([0, 4, 8]), 10))])
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "doc_id\tstart_index"
    assert lines[1:] == ["doc0\t0", "doc0\t4", "doc0\t8"]
