import numpy as np
import pytest

from patchlm import textgen


def test_deterministic_by_seed():
    assert textgen.synthetic_text(5000, seed=3) == textgen.synthetic_text(5000, seed=3)
    assert textgen.synthetic_text(5000, seed=3) != textgen.synthetic_text(5000, seed=4)


def test_size_and_structure():
    t = textgen.synthetic_text(50_000, seed=0)
    assert len(t.encode()) == 50_000
    words = t.split()
    assert len(words) > 5000
    assert "\n" in t and "." in t
    # Zipf-ish: 'the' should be the most common token
    from collections import Counter

    common = Counter(w.strip(".,!?").lower() for w in words).most_common(3)
    assert common[0][0] == "the"


def test_documents_vary_in_size():
    docs = textgen.synthetic_documents(20, 400, seed=1)
    sizes = [len(d.encode()) for d in docs]
    assert min(sizes) >= 8 and len(set(sizes)) > 5


def choice_sentence(rng: np.random.Generator) -> str:
    """``textgen._sentence`` as it was when it drew words with ``rng.choice(p=)``,
    kept, with its weights inlined, as the oracle of the cumulative-weights draw."""
    ranks = np.arange(1, len(textgen._VOCAB) + 1, dtype=np.float64)
    weights = (1.0 / ranks) / (1.0 / ranks).sum()
    n_words = int(rng.integers(4, 15))
    idx = rng.choice(len(textgen._VOCAB), size=n_words, p=weights)
    words = [textgen._VOCAB[i] for i in idx]
    # Occasional numerals and mid-sentence commas keep the byte mix honest.
    if rng.random() < 0.12:
        pos = int(rng.integers(1, n_words))
        words[pos] = str(int(rng.integers(0, 2000)))
    if n_words > 6 and rng.random() < 0.35:
        pos = int(rng.integers(2, n_words - 2))
        words[pos] = words[pos] + ","
    words[0] = words[0].capitalize()
    closer = "." if rng.random() < 0.9 else ("?" if rng.random() < 0.5 else "!")
    return " ".join(words) + closer


@pytest.mark.parametrize("seed", [1, 11, 12, 31])
def test_documents_equal_the_choice_draw(monkeypatch, seed):
    got = textgen.synthetic_documents(64, 1000, seed=seed)
    monkeypatch.setattr(textgen, "_sentence", choice_sentence)
    assert got == textgen.synthetic_documents(64, 1000, seed=seed)
