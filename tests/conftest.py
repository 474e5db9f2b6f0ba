import numpy as np
import pytest

from patchlm import textgen
from patchlm.entropy_lm import train_counts


def make_docs(total_bytes: int, doc_bytes: int, seed: int) -> list[np.ndarray]:
    texts = textgen.synthetic_documents(max(1, total_bytes // doc_bytes), doc_bytes, seed=seed)
    return [np.frombuffer(t.encode(), np.uint8) for t in texts]


@pytest.fixture(scope="session")
def english_docs():
    """~1.2 MB of English-like documents."""
    return make_docs(1_200_000, 2000, seed=101)


@pytest.fixture(scope="session")
def entropy3(english_docs):
    """Order-3 model trained on the first half of the corpus."""
    half = english_docs[: len(english_docs) // 2]
    return train_counts(half, order=3)


@pytest.fixture(scope="session")
def small_docs():
    return make_docs(60_000, 800, seed=7)


@pytest.fixture(scope="session")
def entropy2_small(small_docs):
    return train_counts(small_docs, order=2)
