"""Patch boundary schemes, threshold calibration, and incrementality checking.

Every scheme maps a non-empty byte sequence to a strictly increasing list of
patch start indices beginning at 0; patches partition the sequence with no
gaps or overlaps. An empty sequence has no patches: every reader of a corpus
drops empty documents, and a ``Patcher`` called on one raises ``DataError``.
All schemes are pure functions of (bytes, config, model) and only propose
starts. A ``Patcher`` holds a resolved ``PatchingConfig`` with the
entropy model or BPE vocabulary its scheme reads. Calling it runs the scheme
its config names and caps every patch at the maximum patch size
(``enforce_max_patch``), so a single patch can never blow up memory
downstream, and counts the splits it forces. ``save(dir)`` writes what
``load(dir)`` reads: ``patcher.json`` (the config and the BPE merges) and, for
an entropy scheme, ``entropy.bin`` (``EntropyModel.save``).

Entropy patching (BLT §2.3) has two constraints on the next-byte entropy
H(x_t): the global one, H(x_t) > theta_g, and the approximate monotonic one,
H(x_t) - H(x_{t-1}) > theta_r. ``patch_entropy`` is the one rule: a byte
starts a patch when it meets either constraint that is set. The three entropy
schemes differ only in which thresholds they read (``ENTROPY_THRESHOLDS``).
A target mean patch size calibrates the one threshold of ``entropy_global``
(theta_g) or ``entropy_monotonic`` (theta_r) under the rest of the
``PatchingConfig`` the patcher will run; ``calibrated_config`` returns that
config with it filled in, and rejects a config that already sets it. Any
other scheme has no single threshold to fit and rejects a target.
"""

from __future__ import annotations

import functools
import json
import logging
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .bpe import BpeVocab
from .entropy_lm import LN256, EntropyModel, EntropyTrace, _as_bytes_array
from .errors import ConfigError, DataError, read_input

logger = logging.getLogger(__name__)

DEFAULT_MAX_PATCH = 512
CALIBRATION_TOL = 0.02  # largest relative miss of the target mean patch size
CALIBRATION_ITERS = 60  # bisection steps over the threshold

SCHEMES = ("strided", "space", "entropy_global", "entropy_monotonic", "entropy_or", "bpe")

# entropy scheme -> the thresholds its rule reads; a target patch size
# calibrates a scheme that reads exactly one
ENTROPY_THRESHOLDS = {
    "entropy_global": ("theta_g",),
    "entropy_monotonic": ("theta_r",),
    "entropy_or": ("theta_g", "theta_r"),
}


@dataclass(frozen=True)
class PatchBoundaries:
    """Sorted patch start indices over a byte sequence of length ``n_bytes``.

    ``forced_splits`` counts the starts the maximum patch size added.
    """

    starts: np.ndarray
    n_bytes: int
    forced_splits: int = 0
    # the length of every patch but the last; the maximum patch size reads it too
    _gaps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        starts = np.asarray(self.starts, dtype=np.int64)
        object.__setattr__(self, "starts", starts)
        if len(starts) == 0 or starts[0] != 0:
            raise ValueError("first byte must start a patch")
        gaps = starts[1:] - starts[:-1]
        object.__setattr__(self, "_gaps", gaps)
        if np.count_nonzero(gaps <= 0):
            raise ValueError("patch starts must be strictly increasing")
        if starts[-1] >= self.n_bytes:
            raise ValueError("patch starts must be < n_bytes")

    @property
    def n_patches(self) -> int:
        return len(self.starts)

    def lengths(self) -> np.ndarray:
        return np.append(self._gaps, self.n_bytes - self.starts[-1])

    def ends(self) -> np.ndarray:
        """Index of the last byte of each patch."""
        return np.append(self.starts[1:], self.n_bytes) - 1

    def patch_of(self, positions) -> np.ndarray:
        """Patch index of each byte position."""
        return np.searchsorted(self.starts, positions, side="right") - 1


@dataclass
class PatchStats:
    mean_patch_size: float
    histogram: dict[int, int]
    n_patches: int
    n_bytes: int
    forced_splits: int


@dataclass
class PatchingConfig:
    """Declarative patcher choice.

    ``max_patch_size`` is the one maximum patch length; ``bpe_merges`` is the
    merge count of the vocabulary the ``bpe`` scheme trains.
    """

    scheme: str = "entropy_global"
    k: int = 4
    theta_g: float | None = None
    theta_r: float | None = None
    reset_on_newline: bool = False
    max_patch_size: int = DEFAULT_MAX_PATCH
    bpe_merges: int = 200

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; pick one of {SCHEMES}")
        if self.k < 1:
            raise ConfigError("strided k must be >= 1")
        for name in ("theta_g", "theta_r"):
            val = getattr(self, name)
            if val is not None and not math.isfinite(val):
                raise ConfigError(f"{name} must be finite")
        if self.theta_g is not None and self.theta_g < 0:
            raise ConfigError("theta_g must be nonnegative")
        if self.max_patch_size < 1:
            raise ConfigError("max_patch_size must be >= 1")
        if self.bpe_merges < 0:
            raise ConfigError("bpe_merges must be >= 0")


def _forced_splits(lengths: np.ndarray, max_patch: int) -> np.ndarray:
    """The splits that cap a patch of each length at ``max_patch`` bytes."""
    return (lengths - 1) // max_patch


def enforce_max_patch(starts: np.ndarray, n_bytes: int, max_patch: int) -> tuple[np.ndarray, int]:
    """Split any patch longer than ``max_patch``; returns (starts, forced split
    count). ``starts`` must be patch starts over ``n_bytes`` bytes, as
    ``PatchBoundaries`` checks."""
    capped = _capped(PatchBoundaries(starts, n_bytes), max_patch)
    return capped.starts, capped.forced_splits


def _capped(bounds: PatchBoundaries, max_patch: int) -> PatchBoundaries:
    """``bounds`` with every patch longer than ``max_patch`` split each
    ``max_patch`` bytes and the splits counted, or ``bounds`` itself when no
    patch is longer. The cap test reads the gaps ``PatchBoundaries`` computed
    for its own check."""
    starts, last = bounds.starts, bounds.n_bytes - bounds.starts[-1]
    if last <= max_patch and bounds._gaps.max(initial=0) <= max_patch:
        return bounds
    splits = _forced_splits(np.append(bounds._gaps, last), max_patch)
    extra = [starts[i] + max_patch * np.arange(1, splits[i] + 1) for i in np.flatnonzero(splits)]
    return PatchBoundaries(np.sort(np.concatenate([starts] + extra)), bounds.n_bytes,
                           int(splits.sum()))


def _from_flags(flags: np.ndarray) -> PatchBoundaries:
    flags[0] = True  # every caller passes a fresh array
    return PatchBoundaries(flags.nonzero()[0], len(flags))


# ---------------------------------------------------------------------------
# Schemes
# ---------------------------------------------------------------------------


def patch_strided(n_bytes: int, k: int) -> PatchBoundaries:
    """A patch starts every k bytes."""
    if k < 1:
        raise ConfigError("stride k must be >= 1")
    return PatchBoundaries(np.arange(0, n_bytes, k, dtype=np.int64), n_bytes)


_SPACE_LIKE = np.ones(256, dtype=bool)
for _b in range(256):
    if 0x41 <= _b <= 0x5A or 0x61 <= _b <= 0x7A:  # ASCII letters
        _SPACE_LIKE[_b] = False
    elif 0x30 <= _b <= 0x39:  # digits
        _SPACE_LIKE[_b] = False
    elif 0x80 <= _b <= 0xBF:  # UTF-8 continuation bytes
        _SPACE_LIKE[_b] = False


def patch_space(data) -> PatchBoundaries:
    """Boundary where the previous byte is space-like and the current one is not.

    Runs of space-like bytes stay glued to the preceding patch, so every patch
    contains at least one non-space-like byte (except the degenerate all
    space-like input, which is a single patch).
    """
    arr = _as_bytes_array(data)
    n = len(arr)
    sl = _SPACE_LIKE[arr]
    flags = np.zeros(n, dtype=bool)
    flags[1:] = sl[:-1] & ~sl[1:]
    if not flags.any() and sl.all():
        logger.debug("space patching: degenerate all space-like input of %d bytes", n)
    return _from_flags(flags)


def patch_entropy(trace: EntropyTrace, theta_g: float | None = None,
                  theta_r: float | None = None) -> PatchBoundaries:
    """A byte starts a patch when its entropy exceeds theta_g or jumps over the
    previous byte's by more than theta_r; a threshold of None is not checked."""
    if theta_g is None and theta_r is None:
        raise ConfigError("need at least one of theta_g, theta_r")
    v = trace.values
    flags = v > theta_g if theta_g is not None else np.zeros(len(v), dtype=bool)
    if theta_r is not None and len(v) > 1:
        flags[1:] |= (v[1:] - v[:-1]) > theta_r
    return _from_flags(flags)


# ---------------------------------------------------------------------------
# Stats, calibration, incrementality
# ---------------------------------------------------------------------------


def patch_stats(*bounds: PatchBoundaries) -> PatchStats:
    """Patch sizes of one or more sequences' boundaries, counted together: the
    histogram, the totals of patches, bytes and forced splits, and the mean
    patch size, total bytes over total patches (0 without a patch)."""
    lengths = np.concatenate([b.lengths() for b in bounds])
    sizes, counts = np.unique(lengths, return_counts=True)
    n_bytes = sum(b.n_bytes for b in bounds)
    mean = n_bytes / len(lengths) if len(lengths) else 0.0
    return PatchStats(mean, dict(zip(sizes.tolist(), counts.tolist())), len(lengths), n_bytes,
                      sum(b.forced_splits for b in bounds))


@dataclass(frozen=True, eq=False)
class Patcher:
    """A resolved PatchingConfig with the models its scheme reads: the entropy
    model of the entropy schemes, the vocabulary of ``bpe``.

    Construction rejects a scheme whose model or threshold is missing. Calling
    it maps bytes to the boundaries ``config.scheme`` proposes, capped at
    ``config.max_patch_size``; empty input raises ``DataError`` for every scheme.
    """

    config: PatchingConfig
    entropy_model: EntropyModel | None = None
    bpe_vocab: BpeVocab | None = None

    def __post_init__(self):
        scheme = self.config.scheme
        if scheme == "bpe" and self.bpe_vocab is None:
            raise ConfigError("bpe scheme needs a trained vocabulary")
        if scheme in ENTROPY_THRESHOLDS:
            if self.entropy_model is None:
                raise ConfigError(f"scheme {scheme!r} needs an entropy model")
            if all(getattr(self.config, name) is None for name in ENTROPY_THRESHOLDS[scheme]):
                raise ConfigError(f"{scheme} needs {' or '.join(ENTROPY_THRESHOLDS[scheme])}")

    def __call__(self, data) -> PatchBoundaries:
        """The boundaries ``config.scheme`` proposes for ``data``, capped at
        ``config.max_patch_size``. An entropy scheme traces ``data`` once and
        thresholds the trace (``patch_entropy``). The cap reads the gaps
        between starts that ``PatchBoundaries`` computed to check the proposal."""
        arr, config = _as_bytes_array(data), self.config
        if len(arr) == 0:
            raise DataError("patching needs a non-empty byte sequence")
        if config.scheme == "strided":
            proposed = patch_strided(len(arr), config.k)
        elif config.scheme == "space":
            proposed = patch_space(arr)
        elif config.scheme == "bpe":
            proposed = PatchBoundaries(self.bpe_vocab.token_starts(arr), len(arr))
        else:
            reads = ENTROPY_THRESHOLDS[config.scheme]
            trace = self.entropy_model.entropy_trace(arr, reset_on_newline=config.reset_on_newline)
            proposed = patch_entropy(trace, config.theta_g if "theta_g" in reads else None,
                                     config.theta_r if "theta_r" in reads else None)
        return _capped(proposed, config.max_patch_size)

    def save(self, directory: str | Path) -> None:
        """Write ``patcher.json`` and, for an entropy scheme, ``entropy.bin``."""
        merges = self.bpe_vocab.merges if self.config.scheme == "bpe" else None
        doc = {"patching": asdict(self.config), "merges": merges}
        (Path(directory) / "patcher.json").write_text(json.dumps(doc, indent=2))
        if self.config.scheme in ENTROPY_THRESHOLDS:
            self.entropy_model.save(Path(directory) / "entropy.bin")

    @classmethod
    def load(cls, directory: str | Path) -> "Patcher":
        """The patcher ``save`` wrote; a missing or malformed file raises DataError."""
        path = Path(directory) / "patcher.json"
        try:
            doc = json.loads(read_input(path))
            config = PatchingConfig(**doc["patching"])
            model = (EntropyModel.load(path.with_name("entropy.bin"))
                     if config.scheme in ENTROPY_THRESHOLDS else None)
            vocab = (BpeVocab([tuple(map(int, m)) for m in doc["merges"]])
                     if config.scheme == "bpe" else None)
            return cls(config, model, vocab)
        except (ValueError, KeyError, TypeError) as exc:
            raise DataError(f"{path} is not a saved patcher: {exc}") from None


make_patcher = Patcher  # the name the benchmark workloads build a patcher by


def _mean_size_at(score: np.ndarray, doc_start: np.ndarray, theta: float,
                  max_patch: int) -> float:
    """Mean patch size over concatenated documents when ``score > theta`` starts a patch.

    Counts what patching each document on its own gives: every document
    start opens a patch, and a patch of length L gains (L - 1) // max_patch
    forced splits.
    """
    starts = np.flatnonzero(doc_start | (score > theta))
    lengths = np.diff(np.append(starts, len(score)))
    n_patches = len(starts) + int(_forced_splits(lengths, max_patch).sum())
    return len(score) / n_patches


def check_target(target_patch_size: float | None) -> None:
    """Reject a target mean patch size, if one is given, outside (1, 64]."""
    if target_patch_size is not None and not (1.0 < target_patch_size <= 64.0):
        raise ConfigError(f"target patch size must be in (1, 64], got {target_patch_size}")


def calibrate_threshold(model: EntropyModel, sample: Iterable, target_patch_size: float,
                        config: PatchingConfig | None = None) -> float:
    """Bisect the threshold of ``config.scheme`` (default ``PatchingConfig()``) so
    the sample's mean patch size, under the config's newline reset and maximum
    patch size, hits the target.

    Mean patch size is monotone nondecreasing in the threshold for both
    schemes. Each thresholds one fixed score array (the entropies, or their
    jumps), so a higher threshold only removes starts; and merging patches of
    lengths a and b never adds a patch, forced splits included: with M the
    maximum patch size, 1 + (a + b - 1) // M <= 2 + (a - 1) // M + (b - 1) // M.
    Raises ConfigError with the achievable range when the target cannot be
    met within ``CALIBRATION_TOL``.

    Mean patch size changes only where the threshold passes the score of a
    byte that is not a document start, so the lowest threshold that reaches
    the target, s, is the bracket's low end or such a score, and the step
    test ``mean_size(mid) < target`` holds exactly when ``mid < s``: deciding
    each step by ``mid < s`` is the counting bisection, bit for bit. Forced
    splits only add patches, so s is no score below the lowest at which the
    document starts and the scores above it alone are few enough patches. One
    count (``_mean_size_at``) confirms that score where it forces no split, as
    mostly at the default maximum patch size; else a bisection above it finds s.
    """
    config = config or PatchingConfig()
    scheme = config.scheme
    check_target(target_patch_size)
    if len(ENTROPY_THRESHOLDS.get(scheme, ())) != 1:
        raise ConfigError("a target patch size calibrates the one threshold of entropy_global "
                          f"(theta_g) or entropy_monotonic (theta_r), not of {scheme!r}")
    docs = [_as_bytes_array(d) for d in sample]
    n_total = sum(len(d) for d in docs)
    if n_total < 10**5:
        raise ConfigError(f"calibration sample too small: {n_total} bytes < 1e5")
    values = np.empty(n_total)
    doc_start = np.zeros(n_total, dtype=bool)
    at = 0
    for d in docs:
        values[at:at + len(d)] = model.entropy_trace(d, reset_on_newline=config.reset_on_newline).values
        doc_start[at] = True
        at += len(d)
    jump = ENTROPY_THRESHOLDS[scheme] == ("theta_r",)
    # the jump across a document start is never read: that byte starts a patch anyway
    score = np.diff(values, prepend=values[0]) if jump else values
    mean_size = functools.cache(lambda t: _mean_size_at(score, doc_start, t, config.max_patch_size))
    lo, hi = (-LN256 - 1.0, LN256 + 1.0) if jump else (0.0, LN256 + 1.0)
    size_lo, size_hi = mean_size(lo), mean_size(hi)
    if not (size_lo <= target_patch_size <= size_hi):
        raise ConfigError(
            f"target {target_patch_size} outside achievable mean patch size range "
            f"[{size_lo:.3f}, {size_hi:.3f}]")
    s = lo
    if size_lo < target_patch_size:
        inner = np.sort(score[~doc_start])
        most = int(n_total / target_patch_size) + 1  # the most patches that reach the target
        while n_total / most < target_patch_size:
            most -= 1
        # inner[i + 1] is the lowest score with at most `most` document starts and
        # scores above it, so no lower score reaches the target; the highest does
        i, j = max(n_total - most - 2, -1), len(inner) - 1
        mid = i + 1
        while j - i > 1:
            i, j = (mid, j) if mean_size(inner[mid]) < target_patch_size else (i, mid)
            mid = (i + j) // 2
        s = inner[j]
    for _ in range(CALIBRATION_ITERS):
        mid = 0.5 * (lo + hi)
        if mid < s:
            lo = mid
        else:
            hi = mid
    _, theta = min((abs(mean_size(t) - target_patch_size), t) for t in (lo, hi))
    achieved = mean_size(theta)
    if abs(achieved - target_patch_size) / target_patch_size > CALIBRATION_TOL:
        raise ConfigError(
            f"calibration missed target {target_patch_size}: closest achievable {achieved:.4f} "
            f"in [{size_lo:.3f}, {size_hi:.3f}]")
    return theta


def calibrated_config(config: PatchingConfig, model: EntropyModel | None, sample: Iterable,
                      target_patch_size: float) -> PatchingConfig:
    """``config`` with its scheme's one threshold, which it must leave unset,
    calibrated to the target on ``sample``."""
    reads = ENTROPY_THRESHOLDS.get(config.scheme, ())
    if len(reads) == 1 and getattr(config, reads[0]) is not None:
        raise ConfigError(f"{reads[0]}={getattr(config, reads[0])} is given, and a target "
                          "patch size would calibrate it; give one of them")
    theta = calibrate_threshold(model, sample, target_patch_size, config)
    (name,) = ENTROPY_THRESHOLDS[config.scheme]
    return replace(config, **{name: theta})


def check_incrementality(patcher: Callable[..., PatchBoundaries], data, n_prefixes: int,
                         seed: int) -> list[int]:
    """Compare patching of random prefixes against the full sequence's prefix.

    For each random cut i, the prefix bytes[:i] is patched from scratch and its
    starts must equal the full-sequence starts below i. Returns the cut points
    that disagree (empty list for an incremental scheme).
    """
    arr = _as_bytes_array(data)
    n = len(arr)
    if n < 2:
        return []
    full = patcher(arr).starts
    rng = np.random.Generator(np.random.PCG64(seed))
    cuts = rng.integers(1, n, size=n_prefixes)
    bad = []
    for i in sorted(set(int(c) for c in cuts)):
        prefix_starts = patcher(arr[:i]).starts
        expected = full[full < i]
        if len(prefix_starts) != len(expected) or np.any(prefix_starts != expected):
            bad.append(i)
    return bad


def write_boundaries_tsv(path: str | Path, items: Iterable[tuple[str, PatchBoundaries]]) -> None:
    """TSV export: one (doc_id, start_index) row per patch."""
    with open(path, "w") as fh:
        fh.write("doc_id\tstart_index\n")
        for doc_id, bounds in items:
            for s in bounds.starts:
                fh.write(f"{doc_id}\t{int(s)}\n")
