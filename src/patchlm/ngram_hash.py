"""Rolling polynomial hashing of byte n-grams into embedding-table bucket ids.

The hash of an n-gram ending at position i is sum over j of
``byte[i - j + 1] * a**(j - 1)`` for j = 1..n, evaluated in wrapping 64-bit
arithmetic, with ``a`` = ``DEFAULT_HASH_PRIME``, the fixed 10-digit prime
multiplier BLT uses; it is not a setting. Bucket ids are the hash modulo the
per-size table vocabulary. n-grams of size n are omitted at positions with
fewer than n preceding-or-current bytes. ``hash_ngram_ids`` is the one place
this rule lives; the model's hash n-gram embeddings look their rows up with it.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

DEFAULT_HASH_PRIME = 1_000_000_007

_MASK64 = (1 << 64) - 1


def rolling_hashes(data, n: int) -> np.ndarray:
    """Hashes of every size-n gram; entry t covers bytes t..t+n-1 (vectorized)."""
    arr = np.asarray(data, dtype=np.uint8)
    if len(arr) < n:
        return np.zeros(0, dtype=np.uint64)
    a64 = arr.astype(np.uint64)
    out = np.zeros(len(arr) - n + 1, dtype=np.uint64)
    power = 1
    with np.errstate(over="ignore"):
        for j in range(1, n + 1):  # j-th byte back from the gram's end
            out += a64[n - j : len(arr) - j + 1] * np.uint64(power)
            power = (power * DEFAULT_HASH_PRIME) & _MASK64
    return out


def hash_ngram_ids(data, sizes: Iterable[int], per_size_vocab: int) -> dict[int, np.ndarray]:
    """Bucket id per position and n-gram size.

    ids[n][i] is defined for positions i >= n - 1 (0-based) and indexes the
    gram data[i - n + 1 .. i]; the returned arrays are aligned so entry t
    corresponds to position t + n - 1.
    """
    out = {}
    for n in sizes:
        out[n] = (rolling_hashes(data, n) % np.uint64(per_size_vocab)).astype(np.int64)
    return out
