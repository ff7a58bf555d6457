import itertools
import random
import re
import time
from pathlib import Path

import pytest

from topickit.porter import (
    _STEP2,
    _STEP2_RULES,
    _STEP3,
    _STEP3_RULES,
    _STEP4_SUFFIXES,
    _ends_cvc,
    _has_vowel,
    _is_consonant,
    _measure,
    _replace_suffix,
    _step4,
    stem,
)

FIXTURE = Path(__file__).parent / "fixtures" / "porter_reference.txt"


def load_reference():
    pairs = []
    for line in FIXTURE.read_text("utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        word, expected = line.split("\t")
        pairs.append((word, expected))
    return pairs


def test_reference_vocabulary_full_agreement():
    pairs = load_reference()
    assert len(pairs) > 10_000
    mismatches = [(w, stem(w), s) for w, s in pairs if stem(w) != s]
    assert mismatches == []


def test_reference_vocabulary_runtime_under_one_second():
    pairs = load_reference()
    start = time.perf_counter()
    for word, _ in pairs:
        stem(word)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("word,expected", [
    ("programming", "program"),
    ("programs", "program"),
    ("programmer", "programm"),
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("motoring", "motor"),
    ("hopping", "hop"),
    ("falling", "fall"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("rational", "ration"),
    ("geological", "geolog"),
    ("exploration", "explor"),
    ("seismic", "seismic"),
    ("rate", "rate"),
    ("roll", "roll"),
    ("controll", "control"),
])
def test_known_stems(word, expected):
    assert stem(word) == expected


@pytest.mark.parametrize("word", ["a", "ab", "is", "x", ""])
def test_short_tokens_unchanged(word):
    assert stem(word) == word


def test_stem_is_pure():
    for word in ("generalization", "oscillators", "agreed", "sky"):
        first = stem(word)
        assert all(stem(word) == first for _ in range(5))


def measure_oracle(word):
    """m in the spec's [C](VC)^m[V], from each character's C/V class: "y" is a
    consonant at the start and after a vowel, otherwise a vowel."""
    classes = ""
    for i, ch in enumerate(word):
        vowel = ch in "aeiou" or (ch == "y" and i > 0 and classes[-1] == "C")
        classes += "V" if vowel else "C"
    return re.sub(r"(.)\1+", r"\1", classes).count("VC")


@pytest.mark.parametrize("word, m", [
    ("", 0), ("y", 0), ("yyy", 1), ("ayyyb", 2), ("syzygy", 2), ("tree", 0),
    ("trouble", 1), ("oaten", 2), ("private", 2),
])
def test_measure_pinned(word, m):
    assert _measure(word) == measure_oracle(word) == m


def test_measure_matches_spec_on_fixture_words():
    words = {w for pair in load_reference() for w in pair}
    mismatches = [w for w in words if _measure(w) != measure_oracle(w)]
    assert mismatches == []


def words_over(letters, max_len):
    for n in range(max_len + 1):
        yield from map("".join, itertools.product(letters, repeat=n))


def test_has_vowel_matches_per_letter_definition():
    # "y" next to vowels, to consonants and to other "y"s, at every position.
    for word in words_over("aeybc", 6):
        assert _has_vowel(word) == any(not _is_consonant(word, i) for i in range(len(word))), word


def test_ends_cvc_matches_per_letter_definition():
    for word in words_over("aybcwx", 5):
        n = len(word)
        cvc = (n >= 3 and _is_consonant(word, n - 3) and not _is_consonant(word, n - 2)
               and _is_consonant(word, n - 1) and word[-1] not in "wxy")
        assert _ends_cvc(word) == cvc, word


def scan_replace(word, rules):
    """Steps 2 and 3 as a linear first-match scan over the whole rule table."""
    for suffix, repl in rules:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            return stem + repl if measure_oracle(stem) > 0 else word
    return word


def scan_step4(word):
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                return word
            return stem if measure_oracle(stem) > 1 else word
    return word


def test_dispatched_steps_match_linear_scan():
    # Each word is a short random prefix (vowel- and y-heavy, so the measure
    # varies) plus a rule suffix, a fragment of one, or nothing.
    suffixes = [s for s, _ in _STEP2_RULES + _STEP3_RULES] + list(_STEP4_SUFFIXES)
    endings = suffixes + [s[1:] for s in suffixes] + [s[:-1] for s in suffixes] + [""]
    gen = random.Random(20240)
    letters = "aeiouyybcdlnrstz"
    for _ in range(20_000):
        prefix = "".join(gen.choices(letters, k=gen.randrange(0, 7)))
        word = prefix + gen.choice(endings)
        assert _replace_suffix(word, _STEP2) == scan_replace(word, _STEP2_RULES), word
        assert _replace_suffix(word, _STEP3) == scan_replace(word, _STEP3_RULES), word
        assert _step4(word) == scan_step4(word), word
