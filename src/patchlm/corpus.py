"""Corpus loading, one plain ``uint8`` array per document, and character-level noising."""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, read_input

logger = logging.getLogger(__name__)

NOISE_STRATEGIES = ("antspeak", "drop", "random_case", "repeat", "upper_case")

# Default per-character rates for the rate-driven strategies.
DEFAULT_NOISE_RATES = {"drop": 0.10, "random_case": 0.50, "repeat": 0.20}


def load_corpus(path: str | Path, format: str) -> list[np.ndarray]:
    """The ``uint8`` documents of ``path``: one per line (plain-text) or per
    JSONL record with a ``text`` field.

    Bytes are the raw UTF-8 encoding of the text; no normalization is applied.
    Empty records are skipped; a malformed JSONL record is skipped with a
    warning naming its ``file:line``. An unreadable path raises ``DataError``.
    """
    path = Path(path)
    if format not in ("plain-text", "jsonl"):
        raise ConfigError(f"unknown corpus format: {format!r}")

    docs = []
    raw_lines = read_input(path).split(b"\n")
    # A trailing newline produces one empty tail entry, not an empty document.
    if raw_lines and raw_lines[-1] == b"":
        raw_lines.pop()

    for lineno, raw in enumerate(raw_lines, start=1):
        if format == "jsonl":
            try:
                text = json.loads(raw.decode("utf-8"))["text"]
                if not isinstance(text, str):
                    raise TypeError("text field is not a string")
            except (ValueError, KeyError, TypeError) as exc:  # bad UTF-8 or JSON, no text
                logger.warning("%s:%d: malformed record (%s) -- skipped", path.name, lineno, exc)
                continue
            raw = text.encode("utf-8")
        if raw:
            docs.append(np.frombuffer(raw, dtype=np.uint8))
    return docs


# ---------------------------------------------------------------------------
# Character-level noising
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseSpec:
    """Which noiser to run and, for a strategy that reads one, at what rate."""

    strategy: str
    rate: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in NOISE_STRATEGIES:
            raise ConfigError(f"unknown noise strategy {self.strategy!r}; pick one of {NOISE_STRATEGIES}")
        if self.rate is not None and self.strategy not in DEFAULT_NOISE_RATES:
            raise ConfigError(f"noise strategy {self.strategy!r} reads no rate")
        r = self.effective_rate
        if not (0.0 <= r <= 1.0):
            raise ConfigError(f"noise rate must be in [0, 1], got {r}")

    @property
    def effective_rate(self) -> float:
        if self.rate is not None:
            return self.rate
        return DEFAULT_NOISE_RATES.get(self.strategy, 0.0)


def _upper1(c: str) -> str:
    """Length-preserving uppercase; characters that expand are left alone."""
    u = c.upper()
    return u if len(u) == 1 else c


def _lower1(c: str) -> str:
    lo = c.lower()
    return lo if len(lo) == 1 else c


def apply_noise(text: str, spec: NoiseSpec) -> str:
    """Apply one character-level noising strategy.

    Pure function of (text, spec): the PCG64 stream is derived from spec.seed
    only. Operates on characters (Unicode scalars), never on raw bytes, so the
    output is always valid text. A newline is never dropped, repeated or
    joined, so every line (a plain-text document) stays its own line.
    """
    if not text:
        return text
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    rate = spec.effective_rate
    chars = list(text)

    if spec.strategy == "upper_case":
        return "".join(_upper1(c) for c in chars)

    if spec.strategy == "antspeak":
        # a line of only whitespace is left as it is: emptied, it would stop being a document
        return "\n".join(" ".join(_upper1(c) for c in line if not c.isspace()) if line.strip() else line
                         for line in text.split("\n"))

    if spec.strategy == "drop":
        # Exact-count sampling: removes min(floor(rate * L), L - 1) of each line's
        # L characters, so the output length is deterministic and no line empties.
        lines = text.split("\n")
        for j, line in enumerate(lines):
            k = min(math.floor(rate * len(line)), len(line) - 1)
            if k > 0:
                doomed = set(rng.choice(len(line), size=k, replace=False).tolist())
                lines[j] = "".join(c for i, c in enumerate(line) if i not in doomed)
        return "\n".join(lines)

    if spec.strategy == "random_case":
        out = []
        for c in chars:
            if c.upper() != c.lower():  # cased character
                out.append(_upper1(c) if rng.random() < rate else _lower1(c))
            else:
                out.append(c)
        return "".join(out)

    if spec.strategy == "repeat":
        out = []
        for c in chars:
            out.append(c)
            if c != "\n" and rng.random() < rate:
                # 1..3 extra copies, so a character occurs at most 4 times.
                out.append(c * int(rng.integers(1, 4)))
        return "".join(out)

    raise AssertionError(f"unhandled strategy {spec.strategy}")
