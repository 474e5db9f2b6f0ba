"""Deterministic English-like sample text.

The test and demo corpora are generated locally instead of being downloaded.
Sentences are sampled from a fixed vocabulary with Zipf-like weights, so the
byte stream has realistic word structure: frequent short function words,
a long tail of content words, spaces, punctuation, digits, and newlines.
Generation is a pure function of the seed.
"""

from __future__ import annotations

import numpy as np

# Rank-ordered: earlier words get higher sampling weight.
_FUNCTION_WORDS = (
    "the of and to a in is was that it for on with he as at by his be this "
    "had not are but from or have an they which one you were her all she "
    "there would their we him been has when who will no more if out so up "
    "said what its about into than them can only other time new some could "
    "these two may first then do any my now such like our over man me even "
    "most made after also did many off before must well back through years "
    "where much your way down should because each just those people how too "
    "little state good very make world still see own men work long here get "
    "both between life being under never day same another know while last "
    "might us great old year come since against go came right used take "
    "three himself few house use during without again place american around "
    "however home small found mrs thought went say part once high general "
    "upon school every don does got united left number course war until "
    "always away something fact though water less public put think almost "
    "hand enough far took head yet government system better set told nothing "
    "night end why called didn eyes find going look asked later knew point "
    "next city business case group woman give days young let side"
).split()

_CONTENT_WORDS = (
    "power money story question road light paper church between development "
    "others order national social present possible plan behind certain "
    "among million others real turn face door early problem toward century "
    "across change dark history month morning result study society street "
    "table thing whole action answer april attention became become believe "
    "board book boston brought cannot center common company complete control "
    "cost country court cut death decided department different directly "
    "economic education effect either else england english evening example "
    "experience family federal feel field figure five following force form "
    "four free french friends front full further game gave given ground half "
    "hands having heard heart held help herself hold hope hour human idea "
    "important increased indeed industry information instead interest island "
    "john kind knowledge land large late law least leave letter level line "
    "living local longer looked love lower major makes manner mark market "
    "material matter means meeting member merely method middle miles mind "
    "minutes modern moment moreover mother moved movement music nature near "
    "necessary need needed neither nuclear office often open opened "
    "particular party passed past peace period person picture piece plane "
    "play political position pressure private probably process production "
    "program progress provide province quite rather reached reason received "
    "recent record religious remember report required research respect rest "
    "returned river road room running says school season second secretary "
    "section seemed seen sense sent service seven several short shown simple "
    "simply single situation six size sometimes soon sort sound south space "
    "special spirit spring stage started states stood stopped strength "
    "strong subject success summer sun support sure surface taken talk tax "
    "technology temperature terms test theory therefore third thus today "
    "together total trade training tried trouble true truth type understand "
    "university value values various village voice wall wanted washington "
    "week west western white whose wife window winter wished within word "
    "words wrote yesterday"
).split()

_NAMES = (
    "anna martin george helen robert clara samuel margaret peter alice "
    "thomas edith walter sarah daniel laura victor marion oliver grace"
).split()

_VOCAB = _FUNCTION_WORDS + _CONTENT_WORDS + _NAMES


_WEIGHTS = 1.0 / np.arange(1, len(_VOCAB) + 1, dtype=np.float64)
_CDF = (_WEIGHTS / _WEIGHTS.sum()).cumsum()
_CDF /= _CDF[-1]  # normalised as Generator.choice(p=) normalises it


def _sentence(rng: np.random.Generator) -> str:
    n_words = int(rng.integers(4, 15))
    # the draws of rng.choice(len(_VOCAB), n_words, p=weights), without its per-call checks
    idx = _CDF.searchsorted(rng.random(n_words), side="right")
    words = [_VOCAB[i] for i in idx]
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


def paragraph(rng: np.random.Generator) -> str:
    return " ".join(_sentence(rng) for _ in range(int(rng.integers(2, 6))))


def synthetic_text(n_bytes: int, seed: int = 0) -> str:
    """English-like text of at least ``n_bytes`` UTF-8 bytes (then cut to fit)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    parts: list[str] = []
    size = 0
    while size < n_bytes:
        p = paragraph(rng)
        parts.append(p)
        size += len(p.encode()) + 1
    text = "\n".join(parts)
    return text[:n_bytes] if len(text) > n_bytes else text


def synthetic_documents(n_docs: int, mean_bytes: int, seed: int = 0) -> list[str]:
    """Independent documents with sizes jittered around ``mean_bytes``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    docs = []
    for i in range(n_docs):
        target = max(8, int(rng.normal(mean_bytes, mean_bytes / 4)))
        docs.append(synthetic_text(target, seed=int(rng.integers(0, 2**63 - 1))))
    return docs
