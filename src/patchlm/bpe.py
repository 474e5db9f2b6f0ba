"""Minimal byte-level byte-pair encoder.

Trained by greedy merges of the most frequent adjacent symbol pair; encoding
replays the merges in learned rank order. Token start offsets double as patch
boundaries for the baseline comparison. Because a later continuation can
change how an earlier span is merged, this scheme is deliberately *not*
incremental, which the patching tests exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MIN_MERGE_COUNT = 2  # a pair seen fewer times than this is not merged


def _apply_merge(arr: np.ndarray, lengths: np.ndarray, a: int, b: int, new_id: int):
    """Replace non-overlapping (a, b) adjacencies left-to-right with new_id."""
    if len(arr) < 2:
        return arr, lengths
    m = (arr[:-1] == a) & (arr[1:] == b)
    idx = np.nonzero(m)[0]
    if len(idx) == 0:
        return arr, lengths
    if a == b:
        # Overlapping matches only occur inside runs of the same symbol; keep
        # every other match within a run, scanning left to right.
        run_start = np.concatenate([[True], np.diff(idx) != 1])
        run_first = np.nonzero(run_start)[0]
        run_id = np.cumsum(run_start) - 1
        pos_in_run = np.arange(len(idx)) - run_first[run_id]
        idx = idx[pos_in_run % 2 == 0]
    arr = arr.copy()
    lengths = lengths.copy()
    arr[idx] = new_id
    lengths[idx] += lengths[idx + 1]
    keep = np.ones(len(arr), dtype=bool)
    keep[idx + 1] = False
    return arr[keep], lengths[keep]


@dataclass
class BpeVocab:
    merges: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def vocab_size(self) -> int:
        return 256 + len(self.merges)

    def _run(self, data) -> tuple[np.ndarray, np.ndarray]:
        arr = np.asarray(data, dtype=np.int64).ravel()
        lengths = np.ones(len(arr), dtype=np.int64)
        for a, b, new_id in self.merges:
            arr, lengths = _apply_merge(arr, lengths, a, b, new_id)
        return arr, lengths

    def encode(self, data) -> np.ndarray:
        """Token ids for a byte sequence."""
        return self._run(data)[0]

    def token_starts(self, data) -> np.ndarray:
        """Byte offset where each token starts."""
        _, lengths = self._run(data)
        if len(lengths) == 0:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate([[0], np.cumsum(lengths)[:-1]])


def train_bpe(docs, n_merges: int) -> BpeVocab:
    """Learn up to ``n_merges`` merges by repeatedly fusing the most frequent pair,
    while it occurs at least ``MIN_MERGE_COUNT`` times.

    Ties break toward the lexicographically smallest (left, right) pair so
    training is fully deterministic. Pairs never span document boundaries.
    """
    if n_merges < 0:
        raise ValueError(f"n_merges must be >= 0, got {n_merges}")
    seqs = [np.asarray(np.frombuffer(bytes(d), dtype=np.uint8) if isinstance(d, (bytes, bytearray)) else d,
                       dtype=np.int64) for d in docs]
    seqs = [s for s in seqs if len(s) > 0]
    lens = [np.ones(len(s), dtype=np.int64) for s in seqs]
    vocab = BpeVocab()
    for _ in range(n_merges):
        keys_parts = [((s[:-1].astype(np.uint64) << np.uint64(32)) | s[1:].astype(np.uint64))
                      for s in seqs if len(s) >= 2]
        if not keys_parts:
            break
        keys, counts = np.unique(np.concatenate(keys_parts), return_counts=True)
        best = int(np.argmax(counts))  # first max = smallest (a, b) on ties
        if counts[best] < MIN_MERGE_COUNT:
            break
        a = int(keys[best] >> np.uint64(32))
        b = int(keys[best] & np.uint64(0xFFFFFFFF))
        new_id = vocab.vocab_size
        vocab.merges.append((a, b, new_id))
        for i in range(len(seqs)):
            seqs[i], lens[i] = _apply_merge(seqs[i], lens[i], a, b, new_id)
    return vocab
