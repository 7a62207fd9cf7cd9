"""Classic suffix-stripping stemmer (Porter, 1980).

Implements the original published algorithm: five rule steps applied in
sequence, each firing at most the single rule whose suffix is the longest
match. Used by the METEOR stem-matching stage; no external lexical data.
"""

from __future__ import annotations

import functools


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in "aeiou":
        return False
    if ch == "y":
        # y is a vowel only when it follows a consonant ("syzygy")
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Count of vowel-consonant sequences: [C](VC)^m[V]."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_consonant(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
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
    """Consonant-vowel-consonant ending where the last is not w, x or y."""
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _replace(word: str, suffix: str, repl: str) -> str:
    return word[: len(word) - len(suffix)] + repl


def _rule_table(word: str, rules: list[tuple[str, str, int]]) -> str:
    """Apply the longest-suffix rule whose measure condition holds.

    Per the algorithm, only the longest matching suffix is considered; if
    its condition fails, no other rule in the step fires.
    """
    best = None
    for suffix, repl, min_m in rules:
        if word.endswith(suffix) and (best is None or len(suffix) > len(best[0])):
            best = (suffix, repl, min_m)
    if best is None:
        return word
    suffix, repl, min_m = best
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) > min_m:
        return stem + repl
    return word


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return _replace(word, "sses", "ss")
    if word.endswith("ies"):
        return _replace(word, "ies", "i")
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        return stem + "ee" if _measure(stem) > 0 else word
    fired = None
    if word.endswith("ed") and _has_vowel(word[:-2]):
        fired = word[:-2]
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        fired = word[:-3]
    if fired is None:
        return word
    word = fired
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP2 = [
    ("ational", "ate", 0), ("tional", "tion", 0), ("enci", "ence", 0),
    ("anci", "ance", 0), ("izer", "ize", 0), ("abli", "able", 0),
    ("alli", "al", 0), ("entli", "ent", 0), ("eli", "e", 0),
    ("ousli", "ous", 0), ("ization", "ize", 0), ("ation", "ate", 0),
    ("ator", "ate", 0), ("alism", "al", 0), ("iveness", "ive", 0),
    ("fulness", "ful", 0), ("ousness", "ous", 0), ("aliti", "al", 0),
    ("iviti", "ive", 0), ("biliti", "ble", 0),
]

_STEP3 = [
    ("icate", "ic", 0), ("ative", "", 0), ("alize", "al", 0),
    ("iciti", "ic", 0), ("ical", "ic", 0), ("ful", "", 0), ("ness", "", 0),
]

_STEP4 = [
    ("al", "", 1), ("ance", "", 1), ("ence", "", 1), ("er", "", 1),
    ("ic", "", 1), ("able", "", 1), ("ible", "", 1), ("ant", "", 1),
    ("ement", "", 1), ("ment", "", 1), ("ent", "", 1), ("ou", "", 1),
    ("ism", "", 1), ("ate", "", 1), ("iti", "", 1), ("ous", "", 1),
    ("ive", "", 1), ("ize", "", 1),
]


def _step4(word: str) -> str:
    # "ion" deletes only after s or t, checked on top of the m > 1 condition
    best = None
    for suffix, repl, min_m in _STEP4:
        if word.endswith(suffix) and (best is None or len(suffix) > len(best[0])):
            best = (suffix, repl, min_m)
    if word.endswith("ion") and (best is None or len("ion") > len(best[0])):
        stem = word[:-3]
        if stem and stem[-1] in "st" and _measure(stem) > 1:
            return stem
        return word
    if best is None:
        return word
    suffix, repl, min_m = best
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) > min_m:
        return stem + repl
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        return word[:-1]
    return word


@functools.lru_cache(maxsize=4096)
def stem(word: str) -> str:
    """Stem one lowercase word; inputs of length <= 2 pass through.

    Pure, so memoised: METEOR stems the same few hundred words over and over.
    """
    word = word.lower()
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _rule_table(word, _STEP2)
    word = _rule_table(word, _STEP3)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
