import math

import numpy as np

from patchlm.model import ModelConfig, Stream, augmented_byte_embeddings, init_params
from patchlm.ngram_hash import DEFAULT_HASH_PRIME, hash_ngram_ids
from patchlm.patching import patch_strided

MASK = (1 << 64) - 1
WIDE_VOCAB = (1 << 61) - 1  # a prime, so an id keeps most of its 64-bit hash


def bigint_hash(gram, a=DEFAULT_HASH_PRIME):
    """Independent oracle: exact polynomial evaluation with python integers."""
    n = len(gram)
    return sum(int(gram[n - j]) * a ** (j - 1) for j in range(1, n + 1)) & MASK


def gram_id(gram) -> int:
    """The id ``hash_ngram_ids`` gives a single whole gram in the wide vocabulary."""
    arr = np.asarray(gram, dtype=np.uint8)
    (h,) = hash_ngram_ids(arr, (len(arr),), WIDE_VOCAB)[len(arr)]
    return int(h)


def test_single_byte_hash_is_identity():
    for c in (0, 1, 97, 255):
        assert gram_id([c]) == c


def test_two_byte_formula():
    a = DEFAULT_HASH_PRIME
    assert gram_id([5, 7]) == ((7 + 5 * a) & MASK) % WIDE_VOCAB


def test_matches_bigint_oracle_on_random_grams():
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(500):
        n = int(rng.integers(1, 9))
        gram = rng.integers(0, 256, n).tolist()
        assert gram_id(gram) == bigint_hash(gram) % WIDE_VOCAB


def test_vectorized_matches_scalar_on_windows():
    # every window of every size, on documents shorter and longer than the sizes
    rng = np.random.Generator(np.random.PCG64(1))
    for sizes in ((1, 3, 8), (3, 4, 5, 6, 7, 8), (8, 2, 5)):
        for length in (0, 1, 2, 5, 7, 8, 9, 300):
            data = rng.integers(0, 256, length, dtype=np.uint8).astype(np.uint8)
            ids = hash_ngram_ids(data, sizes, WIDE_VOCAB)
            assert list(ids) == list(sizes)
            for n in sizes:
                assert ids[n].tolist() == [bigint_hash(data[t : t + n]) % WIDE_VOCAB
                                           for t in range(length - n + 1)]


def test_ids_omission_rule():
    data = np.arange(10, dtype=np.uint8)
    ids = hash_ngram_ids(data, sizes=(3, 5), per_size_vocab=97)
    # entry t of ids[n] covers positions t + n - 1; no id exists below n - 1
    assert len(ids[3]) == 8 and len(ids[5]) == 6
    assert (ids[3] >= 0).all() and (ids[3] < 97).all()


def test_ids_single_bucket():
    data = np.arange(32, dtype=np.uint8)
    ids = hash_ngram_ids(data, sizes=(4,), per_size_vocab=1)
    assert (ids[4] == 0).all()


def test_ids_match_bigint_oracle_mod_vocab():
    rng = np.random.Generator(np.random.PCG64(2))
    data = rng.integers(0, 256, 1000, dtype=np.uint8).astype(np.uint8)
    vocab = 4093
    ids = hash_ngram_ids(data, sizes=(6,), per_size_vocab=vocab)[6]
    for t in (0, 123, 991):
        gram = data[t : t + 6]
        assert int(ids[t]) == bigint_hash(gram) % vocab


def test_default_hash_prime_is_a_10_digit_prime():
    assert len(str(DEFAULT_HASH_PRIME)) == 10
    divisors = np.arange(2, math.isqrt(DEFAULT_HASH_PRIME) + 1)
    assert np.all(DEFAULT_HASH_PRIME % divisors != 0)


def test_bucket_load_smoke():
    rng = np.random.Generator(np.random.PCG64(3))
    data = rng.integers(0, 256, 1_000_000 + 7, dtype=np.uint8).astype(np.uint8)
    vocab = 4096
    ids = hash_ngram_ids(data, sizes=(8,), per_size_vocab=vocab)[8]
    loads = np.bincount(ids, minlength=vocab)
    assert loads.max() <= 3 * loads.mean()


def _model_and_stream(doc_lengths):
    cfg = ModelConfig(enc_dim=16, global_dim=32, enc_layers=1, global_layers=2,
                      dec_layers=1, enc_heads=2, global_heads=2, dec_heads=2, hash_vocab=64)
    docs = [np.arange(n, dtype=np.uint8) + 10 * d for d, n in enumerate(doc_lengths)]
    stream = Stream.from_documents(docs, lambda doc: patch_strided(len(doc), 4))
    return cfg, init_params(cfg, seed=0), stream


def test_augment_divisors_and_zero_tables():
    cfg, params, stream = _model_and_stream([12, 5])
    for n in cfg.ngram_sizes:
        params[f"hash_embed.n{n}"].data[:] = 0.0
    e = augmented_byte_embeddings(params, stream, cfg).data
    # with zeroed tables the result is byte_embed / (available sizes + 1); a
    # size n is available once the document has provided n bytes
    local = np.concatenate([np.arange(12), np.arange(5)])
    available = np.array([sum(i >= n - 1 for n in cfg.ngram_sizes) for i in local])
    assert available[[0, 2, 7, 11, 12, 16]].tolist() == [0, 1, 6, 6, 0, 3]
    want = params["byte_embed"].data[stream.data] / (available + 1.0)[:, None]
    np.testing.assert_allclose(e, want, rtol=1e-6)


def test_augment_linear_in_tables():
    cfg, params, stream = _model_and_stream([16])
    params["byte_embed"].data[:] = 0.0
    base = augmented_byte_embeddings(params, stream, cfg).data
    for n in cfg.ngram_sizes:
        params[f"hash_embed.n{n}"].data[:] *= 2.0
    doubled = augmented_byte_embeddings(params, stream, cfg).data
    assert np.abs(base).max() > 0
    np.testing.assert_allclose(doubled, 2.0 * base, rtol=1e-6)


def test_ids_pure_function_of_inputs():
    data = np.arange(64, dtype=np.uint8)
    a = hash_ngram_ids(data, sizes=(4,), per_size_vocab=101)[4]
    b = hash_ngram_ids(data, sizes=(4,), per_size_vocab=101)[4]
    np.testing.assert_array_equal(a, b)
