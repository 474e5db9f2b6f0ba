import json
import math

import numpy as np
import pytest

from patchlm.corpus import DEFAULT_NOISE_RATES, NOISE_STRATEGIES, NoiseSpec, apply_noise, load_corpus
from patchlm.errors import ConfigError, DataError


# -- loading -----------------------------------------------------------------


def test_plain_text_one_doc_per_line(tmp_path):
    p = tmp_path / "c.txt"
    p.write_bytes(b"ab\n")
    docs = load_corpus(p, "plain-text")
    assert len(docs) == 1
    assert docs[0].dtype == np.uint8 and docs[0].tolist() == [0x61, 0x62]


def test_empty_file_gives_empty_set(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_bytes(b"")
    assert load_corpus(p, "plain-text") == []


def test_jsonl_utf8_bytes(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text(json.dumps({"text": "hé"}) + "\n")
    assert load_corpus(p, "jsonl")[0].tolist() == [0x68, 0xC3, 0xA9]


def test_jsonl_malformed_record_skipped_with_its_line(tmp_path, caplog):
    p = tmp_path / "c.jsonl"
    p.write_text('{"text": "ok"}\nnot json\n{"text": ""}\n{"text": 3}\n')
    docs = load_corpus(p, "jsonl")
    assert [d.tolist() for d in docs] == [[0x6F, 0x6B]]
    warned = [r.getMessage() for r in caplog.records]
    assert len(warned) == 2 and "c.jsonl:2" in warned[0] and "c.jsonl:4" in warned[1]


def test_missing_path_raises():
    with pytest.raises(DataError):
        load_corpus("/nonexistent/corpus.txt", "plain-text")


# -- noising -----------------------------------------------------------------


def test_antspeak_definition():
    assert apply_noise("cat", NoiseSpec("antspeak")) == "C A T"


def test_antspeak_drops_spaces_and_length_law():
    out = apply_noise("cat sat", NoiseSpec("antspeak"))
    assert out == "C A T S A T"
    n_nonspace = sum(1 for c in "cat sat" if not c.isspace())
    assert len(out) == 2 * n_nonspace - 1


def test_antspeak_keeps_a_whitespace_only_line(tmp_path):
    text = "ab\n \t \ncd\n"
    path = tmp_path / "ws.txt"
    path.write_text(text)
    assert len(load_corpus(path, "plain-text")) == 3
    out = apply_noise(text, NoiseSpec("antspeak"))
    assert out == "A B\n \t \nC D\n"
    path.write_text(out)
    assert len(load_corpus(path, "plain-text")) == 3


def test_uppercase_trivial_and_idempotent():
    assert apply_noise("abc", NoiseSpec("upper_case")) == "ABC"
    t = "mIxEd 123 ß text"
    once = apply_noise(t, NoiseSpec("upper_case"))
    assert apply_noise(once, NoiseSpec("upper_case")) == once


def test_drop_is_subsequence_by_bruteforce():
    # all 9-char subsequences of the input; the noised output must be one of them
    from itertools import combinations

    text = "abcdefghij"
    out = apply_noise(text, NoiseSpec("drop", rate=0.1, seed=3))
    assert len(out) == 9
    subseqs = {"".join(s) for s in combinations(text, 9)}
    assert out in subseqs


def test_drop_exact_count():
    for n, rate in ((10, 0.1), (37, 0.25), (5, 0.9)):
        text = "x" * n
        out = apply_noise(text, NoiseSpec("drop", rate=rate, seed=1))
        assert len(out) == n - math.floor(rate * n)


def test_noise_is_pure_function():
    spec = NoiseSpec("repeat", seed=42)
    t = "the quick brown fox"
    assert apply_noise(t, spec) == apply_noise(t, spec)


def test_repeat_bounded_occurrences():
    out = apply_noise("a" * 50, NoiseSpec("repeat", rate=1.0, seed=0))
    assert 50 * 2 <= len(out) <= 50 * 4


def test_random_case_preserves_uncased():
    out = apply_noise("ab 12 cd", NoiseSpec("random_case", seed=9))
    assert out.lower() == "ab 12 cd"
    assert [c for c in out if not c.isalpha()] == [" ", "1", "2", " "]


def test_empty_text_passthrough():
    assert apply_noise("", NoiseSpec("drop")) == ""


def test_every_strategy_keeps_every_line(tmp_path):
    # and every document: no line that held a character is emptied
    path = tmp_path / "noised.txt"
    for text in ("the cat sat\n\nOn the  mat\tof x\nab\nc d e f g\n" * 3, "ab\ncd\nef\nghij\nk\n",
                 "ab\n \t \ncd\n"):
        path.write_text(text)
        n_docs = len(load_corpus(path, "plain-text"))
        for strategy in NOISE_STRATEGIES:
            rates = (0.1, 0.5, 0.9, 1.0) if strategy in DEFAULT_NOISE_RATES else (None,)
            for rate in rates:
                for seed in range(6):
                    out = apply_noise(text, NoiseSpec(strategy, rate=rate, seed=seed))
                    assert out.count("\n") == text.count("\n"), (strategy, rate, seed)
                    path.write_text(out)
                    assert len(load_corpus(path, "plain-text")) == n_docs, (strategy, rate, seed)


def test_rate_is_rejected_where_it_is_not_read():
    for strategy in NOISE_STRATEGIES:
        if strategy not in DEFAULT_NOISE_RATES:
            with pytest.raises(ConfigError, match="reads no rate"):
                NoiseSpec(strategy, rate=0.5)


def test_bad_spec_rejected():
    with pytest.raises(ValueError):
        NoiseSpec("drop", rate=1.5)
    with pytest.raises(ValueError):
        NoiseSpec("mangle")
