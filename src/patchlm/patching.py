"""Patch boundary schemes, threshold calibration, and incrementality checking.

Every scheme maps a byte sequence to a strictly increasing list of patch start
indices beginning at 0; patches partition the sequence with no gaps or
overlaps. All schemes are pure functions of (bytes, config, model) and only
propose starts. ``make_patcher`` then caps every patch at the config's
maximum patch size (``enforce_max_patch``), so a single patch can never blow
up memory downstream, and counts the splits it forces.

Entropy patching (BLT §2.3) has two constraints on the next-byte entropy
H(x_t): the global one, H(x_t) > theta_g, and the approximate monotonic one,
H(x_t) - H(x_{t-1}) > theta_r. ``patch_entropy`` is the one rule: a byte
starts a patch when it meets either constraint that is set. The three entropy
schemes differ only in which thresholds they read (``ENTROPY_THRESHOLDS``).
A target mean patch size calibrates the one threshold of ``entropy_global``
(theta_g) or ``entropy_monotonic`` (theta_r); ``calibrated_config`` returns
the config with it filled in, and rejects a config that already sets it. Any
other scheme has no single threshold to fit and rejects a target.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .entropy_lm import LN256, EntropyModel, EntropyTrace, _as_bytes_array
from .errors import ConfigError

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


class CalibrationError(ConfigError):
    """Requested mean patch size is not achievable; carries the feasible range."""

    def __init__(self, msg: str, achievable: tuple[float, float] | None = None):
        super().__init__(msg)
        self.achievable = achievable


@dataclass(frozen=True)
class PatchBoundaries:
    """Sorted patch start indices over a byte sequence of length ``n_bytes``.

    ``forced_splits`` counts the starts the maximum patch size added.
    """

    starts: np.ndarray
    n_bytes: int
    forced_splits: int = 0

    def __post_init__(self):
        starts = np.asarray(self.starts, dtype=np.int64)
        object.__setattr__(self, "starts", starts)
        if self.n_bytes < 0:
            raise ValueError("n_bytes must be >= 0")
        if self.n_bytes == 0:
            if len(starts):
                raise ValueError("empty sequence cannot have patch starts")
            return
        if len(starts) == 0 or starts[0] != 0:
            raise ValueError("first byte must start a patch")
        if np.any(np.diff(starts) <= 0):
            raise ValueError("patch starts must be strictly increasing")
        if starts[-1] >= self.n_bytes:
            raise ValueError("patch starts must be < n_bytes")

    @property
    def n_patches(self) -> int:
        return len(self.starts)

    def lengths(self) -> np.ndarray:
        if self.n_bytes == 0:
            return np.zeros(0, dtype=np.int64)
        return np.diff(np.append(self.starts, self.n_bytes))

    def ends(self) -> np.ndarray:
        """Index of the last byte of each patch."""
        return np.append(self.starts[1:], self.n_bytes) - 1

    def patch_of(self, positions=None) -> np.ndarray:
        """Patch index of each byte position."""
        pos = np.arange(self.n_bytes) if positions is None else np.asarray(positions)
        return np.searchsorted(self.starts, pos, side="right") - 1


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
    """Split any patch longer than ``max_patch``; returns (starts, forced split count)."""
    lengths = np.diff(np.append(starts, n_bytes))
    if lengths.max(initial=0) <= max_patch:
        return starts, 0
    splits = _forced_splits(lengths, max_patch)
    extra = [starts[i] + max_patch * np.arange(1, splits[i] + 1) for i in np.flatnonzero(splits)]
    return np.sort(np.concatenate([starts] + extra)), int(splits.sum())


def _from_flags(flags: np.ndarray) -> PatchBoundaries:
    n = len(flags)
    if n == 0:
        return PatchBoundaries(np.zeros(0, np.int64), 0)
    flags[0] = True  # every caller passes a fresh array
    return PatchBoundaries(np.flatnonzero(flags), n)


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
    if n == 0:
        return PatchBoundaries(np.zeros(0, np.int64), 0)
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


def patch_stats(boundaries: PatchBoundaries) -> PatchStats:
    lengths = boundaries.lengths()
    hist: dict[int, int] = {}
    for size, cnt in zip(*np.unique(lengths, return_counts=True)):
        hist[int(size)] = int(cnt)
    mean = boundaries.n_bytes / boundaries.n_patches if boundaries.n_patches else 0.0
    return PatchStats(mean, hist, boundaries.n_patches, boundaries.n_bytes,
                      boundaries.forced_splits)


Patcher = Callable[[np.ndarray], PatchBoundaries]


def make_patcher(config: PatchingConfig, entropy_model: EntropyModel | None = None,
                 bpe_vocab=None) -> Patcher:
    """Close a PatchingConfig over its models into a bytes -> boundaries function:
    the scheme's proposal, capped at ``config.max_patch_size``."""
    if config.scheme == "strided":
        propose = lambda arr: patch_strided(len(arr), config.k)
    elif config.scheme == "space":
        propose = patch_space
    elif config.scheme == "bpe":
        if bpe_vocab is None:
            raise ConfigError("bpe scheme needs a trained vocabulary")
        propose = lambda arr: PatchBoundaries(bpe_vocab.token_starts(arr), len(arr))
    else:
        if entropy_model is None:
            raise ConfigError(f"scheme {config.scheme!r} needs an entropy model")
        reads = ENTROPY_THRESHOLDS[config.scheme]
        theta_g, theta_r = (getattr(config, name) if name in reads else None
                            for name in ("theta_g", "theta_r"))
        if theta_g is None and theta_r is None:
            raise ConfigError(f"{config.scheme} needs {' or '.join(reads)}")
        reset = config.reset_on_newline
        propose = lambda arr: patch_entropy(
            entropy_model.entropy_trace(arr, reset_on_newline=reset), theta_g, theta_r)

    def patcher(data) -> PatchBoundaries:
        proposed = propose(_as_bytes_array(data))
        starts, forced = enforce_max_patch(proposed.starts, proposed.n_bytes,
                                           config.max_patch_size)
        return PatchBoundaries(starts, proposed.n_bytes, forced) if forced else proposed

    return patcher


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


def calibrate_threshold(
    model: EntropyModel,
    sample: Iterable,
    target_patch_size: float,
    scheme: str = "entropy_global",
    reset_on_newline: bool = False,
    max_patch: int = DEFAULT_MAX_PATCH,
) -> float:
    """Bisect the entropy threshold so the sample's mean patch size hits the target.

    Mean patch size is monotone nondecreasing in the threshold (raising it can
    only remove boundaries); for the jump scheme this is verified on the
    bracket rather than assumed. Raises CalibrationError with the achievable
    range when the target cannot be met within ``CALIBRATION_TOL``.
    """
    if not (1.0 < target_patch_size <= 64.0):
        raise CalibrationError(f"target patch size must be in (1, 64], got {target_patch_size}")
    if len(ENTROPY_THRESHOLDS.get(scheme, ())) != 1:
        raise CalibrationError("a target patch size calibrates the one threshold of entropy_global "
                               f"(theta_g) or entropy_monotonic (theta_r), not of {scheme!r}")
    docs = [_as_bytes_array(d) for d in sample]
    n_total = sum(len(d) for d in docs)
    if n_total < 10**5:
        raise CalibrationError(f"calibration sample too small: {n_total} bytes < 1e5")
    values = np.concatenate([model.entropy_trace(d, reset_on_newline=reset_on_newline).values
                             for d in docs])
    doc_start = np.zeros(len(values), dtype=bool)
    doc_start[np.cumsum([0] + [len(d) for d in docs[:-1]])] = True
    jump = ENTROPY_THRESHOLDS[scheme] == ("theta_r",)
    # the jump across a document start is never read: that byte starts a patch anyway
    score = np.diff(values, prepend=values[0]) if jump else values

    def mean_size(theta: float) -> float:
        return _mean_size_at(score, doc_start, theta, max_patch)

    lo, hi = (-LN256 - 1.0, LN256 + 1.0) if jump else (0.0, LN256 + 1.0)
    size_lo = mean_size(lo)
    size_hi = mean_size(hi)
    if size_lo > size_hi:
        raise CalibrationError(f"mean patch size not monotone over bracket for {scheme}")
    if not (size_lo <= target_patch_size <= size_hi):
        raise CalibrationError(
            f"target {target_patch_size} outside achievable mean patch size range "
            f"[{size_lo:.3f}, {size_hi:.3f}]",
            achievable=(size_lo, size_hi),
        )
    for _ in range(CALIBRATION_ITERS):
        mid = 0.5 * (lo + hi)
        if mean_size(mid) < target_patch_size:
            lo = mid
        else:
            hi = mid
    _, theta = min((abs(mean_size(t) - target_patch_size), t) for t in (lo, hi))
    achieved = mean_size(theta)
    if abs(achieved - target_patch_size) / target_patch_size > CALIBRATION_TOL:
        raise CalibrationError(
            f"calibration missed target {target_patch_size}: closest achievable {achieved:.4f}",
            achievable=(size_lo, size_hi),
        )
    return theta


def calibrated_config(config: PatchingConfig, model: EntropyModel | None, sample: Iterable,
                      target_patch_size: float) -> PatchingConfig:
    """``config`` with its scheme's one threshold, which it must leave unset,
    calibrated to the target on ``sample``."""
    reads = ENTROPY_THRESHOLDS.get(config.scheme, ())
    if len(reads) == 1 and getattr(config, reads[0]) is not None:
        raise CalibrationError(f"{reads[0]}={getattr(config, reads[0])} is given, and a target "
                               "patch size would calibrate it; give one of them")
    theta = calibrate_threshold(model, sample, target_patch_size, config.scheme,
                                config.reset_on_newline, config.max_patch_size)
    (name,) = ENTROPY_THRESHOLDS[config.scheme]
    return replace(config, **{name: theta})


def check_incrementality(patcher: Patcher, data, n_prefixes: int = 100, seed: int = 0) -> list[int]:
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
