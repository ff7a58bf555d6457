"""Porter suffix-stripping stemmer.

Implements the classic five-step algorithm in the form made canonical by
the original author's ANSI C release, i.e. including the three commonly
adopted improvements over the 1980 journal text: the ``bli -> ble`` rule
in step 2, the extra ``logi -> log`` rule in step 2, and leaving words of
length <= 2 untouched.  Output agrees with the widely circulated
reference vocabulary/output word lists (see tests/fixtures).

The stemmer is a pure function of its input: no state survives a call.
Steps 2-4 look up their rules by the word's last letter (tables built once).
"""

from __future__ import annotations

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # "y" is a consonant at the start of a word or after a vowel.
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-consonant sequences: [C](VC)^m[V], counted in one pass."""
    m, vowel = 0, None  # None before the first letter: "y" is a consonant there
    for ch in stem:
        if ch in _VOWELS or (ch == "y" and vowel is False):
            vowel = True
        else:
            if vowel:
                m += 1
            vowel = False
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    # consonant-vowel-consonant where the final consonant is not w, x or y.
    n = len(word)
    if n < 3:
        return False
    return (
        _is_consonant(word, n - 3)
        and not _is_consonant(word, n - 2)
        and _is_consonant(word, n - 1)
        and word[-1] not in "wxy"
    )


# (suffix, replacement) pairs; within each table the first matching suffix
# wins and no further suffix is tried, which reproduces the original
# switch-on-penultimate-letter dispatch (suffixes sharing a group are
# ordered longest first).
_STEP2_RULES = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("bli", "ble"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
    ("logi", "log"),
)

_STEP3_RULES = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _by_last_letter(rules) -> dict:
    """The rules grouped by their suffix's last letter, in table order: only that
    group can match a word, so its first match is the table's first match."""
    table = {}
    for rule in rules:
        table.setdefault(rule[0][-1], []).append(rule)
    return table


_STEP2 = _by_last_letter(_STEP2_RULES)
_STEP3 = _by_last_letter(_STEP3_RULES)
_STEP4 = _by_last_letter((suffix, "") for suffix in _STEP4_SUFFIXES)


def _step1ab(word: str) -> str:
    if word.endswith("s"):
        if word.endswith("sses"):
            word = word[:-2]
        elif word.endswith("ies"):
            word = word[:-3] + "i"
        elif not word.endswith("ss"):
            word = word[:-1]
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    elif word.endswith("ed") and _has_vowel(word[:-2]):
        word = _step1b_cleanup(word[:-2])
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        word = _step1b_cleanup(word[:-3])
    return word


def _step1b_cleanup(stem: str) -> str:
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    if _ends_double_consonant(stem) and stem[-1] not in "lsz":
        return stem[:-1]
    if _measure(stem) == 1 and _ends_cvc(stem):
        return stem + "e"
    return stem


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        word = word[:-1] + "i"
    return word


def _replace_suffix(word: str, table: dict) -> str:
    for suffix, repl in table.get(word[-1:], ()):
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _measure(stem) > 0:
                return stem + repl
            return word
    return word


def _step4(word: str) -> str:
    for suffix, _ in _STEP4.get(word[-1:], ()):
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                return word
            if _measure(stem) > 1:
                return stem
            return word
    return word


def _step5(word: str) -> str:
    if word.endswith("e"):
        m = _measure(word[:-1])
        if m > 1 or (m == 1 and not _ends_cvc(word[:-1])):
            word = word[:-1]
    if word.endswith("ll") and _measure(word) > 1:
        word = word[:-1]
    return word


def stem(token: str) -> str:
    """Return the Porter stem of a single lowercase token.

    Tokens of length <= 2 are returned unchanged.  The function is
    deterministic and side-effect free.
    """
    if len(token) <= 2:
        return token
    word = _step1ab(token)
    word = _step1c(word)
    word = _replace_suffix(word, _STEP2)
    word = _replace_suffix(word, _STEP3)
    word = _step4(word)
    word = _step5(word)
    return word
