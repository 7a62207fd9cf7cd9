"""Classic suffix-stripping stemmer (Porter, 1980).

Implements the original published algorithm: five rule steps applied in
sequence. Each step is a table of `(suffix, replacement, condition)` rows,
Porter's `(condition) S1 -> S2`: the condition is a test of the stem that the
suffix leaves, such as its measure m being above k. `_apply` reads every
table the same way: only the row with the longest matching suffix is
considered, and if its condition fails, no other row in the step fires. Two
pieces stay code: step 1b's clean-up, whose tests are ordered and run only
after `ed` or `ing` fired, and step 5b, one test of the whole word. Used by
the METEOR stem-matching stage; no external lexical data.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional

_Rule = tuple[str, str, Callable[[str], bool]]


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


def _apply(word: str, rules: list[_Rule]) -> tuple[str, Optional[str]]:
    """Fire the longest-suffix row if its condition holds on the stem left.

    Returns the new word and the suffix that fired, or the word unchanged and
    None.
    """
    matches = [rule for rule in rules if word.endswith(rule[0])]
    if not matches:
        return word, None
    suffix, repl, condition = max(matches, key=lambda rule: len(rule[0]))
    stem = word[: len(word) - len(suffix)]
    return (stem + repl, suffix) if condition(stem) else (word, None)


def _any(stem: str) -> bool:
    return True


def _m0(stem: str) -> bool:
    return _measure(stem) > 0


def _m1(stem: str) -> bool:
    return _measure(stem) > 1


_STEP1A = [("sses", "ss", _any), ("ies", "i", _any), ("ss", "ss", _any), ("s", "", _any)]

_STEP1B = [("eed", "ee", _m0), ("ed", "", _has_vowel), ("ing", "", _has_vowel)]

_STEP1C = [("y", "i", _has_vowel)]

_STEP2 = [
    ("ational", "ate", _m0), ("tional", "tion", _m0), ("enci", "ence", _m0),
    ("anci", "ance", _m0), ("izer", "ize", _m0), ("abli", "able", _m0),
    ("alli", "al", _m0), ("entli", "ent", _m0), ("eli", "e", _m0),
    ("ousli", "ous", _m0), ("ization", "ize", _m0), ("ation", "ate", _m0),
    ("ator", "ate", _m0), ("alism", "al", _m0), ("iveness", "ive", _m0),
    ("fulness", "ful", _m0), ("ousness", "ous", _m0), ("aliti", "al", _m0),
    ("iviti", "ive", _m0), ("biliti", "ble", _m0),
]

_STEP3 = [
    ("icate", "ic", _m0), ("ative", "", _m0), ("alize", "al", _m0),
    ("iciti", "ic", _m0), ("ical", "ic", _m0), ("ful", "", _m0), ("ness", "", _m0),
]

_STEP4 = [
    ("al", "", _m1), ("ance", "", _m1), ("ence", "", _m1), ("er", "", _m1),
    ("ic", "", _m1), ("able", "", _m1), ("ible", "", _m1), ("ant", "", _m1),
    ("ement", "", _m1), ("ment", "", _m1), ("ent", "", _m1), ("ou", "", _m1),
    ("ism", "", _m1), ("ate", "", _m1), ("iti", "", _m1), ("ous", "", _m1),
    ("ive", "", _m1), ("ize", "", _m1),
    ("ion", "", lambda stem: _m1(stem) and stem.endswith(("s", "t"))),
]

# (m > 1) or (m = 1 and not *o)
_STEP5A = [("e", "", lambda stem: _m1(stem) or (_m0(stem) and not _ends_cvc(stem)))]


@functools.lru_cache(maxsize=4096)
def stem(word: str) -> str:
    """Stem one lowercase word; inputs of length <= 2 pass through.

    Pure, so memoised: METEOR stems the same few hundred words over and over.
    """
    word = word.lower()
    if len(word) <= 2:
        return word
    word, _ = _apply(word, _STEP1A)
    word, fired = _apply(word, _STEP1B)
    if fired in ("ed", "ing"):
        if word.endswith(("at", "bl", "iz")):
            word += "e"
        elif _ends_double_consonant(word) and word[-1] not in "lsz":
            word = word[:-1]
        elif _measure(word) == 1 and _ends_cvc(word):
            word += "e"
    for rules in (_STEP1C, _STEP2, _STEP3, _STEP4, _STEP5A):
        word, _ = _apply(word, rules)
    # step 5b: (m > 1 and *d and *L) -> single letter
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        word = word[:-1]
    return word
