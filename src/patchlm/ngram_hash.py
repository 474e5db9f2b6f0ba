"""Polynomial hashing of byte n-grams into embedding-table bucket ids.

The hash of an n-gram ending at position i is sum over j of
``byte[i - j + 1] * a**(j - 1)`` for j = 1..n, evaluated in wrapping 64-bit
arithmetic, with ``a`` = ``DEFAULT_HASH_PRIME``, the fixed 10-digit prime
multiplier BLT uses; it is not a setting. By Horner's rule the size-n hash is
the size-(n-1) hash of the same start times ``a`` plus the gram's last byte,
so one pass per size up to the largest gives every size. Bucket ids are the
hash modulo the per-size table vocabulary. n-grams of size n are omitted at
positions with fewer than n preceding-or-current bytes. ``hash_ngram_ids`` is
the one place this rule lives; the model's hash n-gram embeddings look their
rows up with it.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

DEFAULT_HASH_PRIME = 1_000_000_007


def hash_ngram_ids(data, sizes: Iterable[int], per_size_vocab: int) -> dict[int, np.ndarray]:
    """Bucket id per position and n-gram size.

    ids[n][i] is defined for positions i >= n - 1 (0-based) and indexes the
    gram data[i - n + 1 .. i]; the returned arrays are aligned so entry t
    corresponds to position t + n - 1.
    """
    sizes = list(sizes)
    arr = np.asarray(data, dtype=np.uint8).astype(np.uint64)
    # hashes[n][t] covers bytes t..t+n-1; size 0 is the empty gram's 0
    hashes = [np.zeros(len(arr) + 1, dtype=np.uint64)]
    for n in range(1, max(sizes, default=0) + 1):
        prev = hashes[-1][: max(len(arr) - n + 1, 0)]
        hashes.append(arr[n - 1 :] + np.uint64(DEFAULT_HASH_PRIME) * prev)
    return {n: (hashes[n] % np.uint64(per_size_vocab)).astype(np.int64) for n in sizes}
