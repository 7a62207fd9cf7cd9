"""Suffix-stripping stemmer: canonical input/output pairs."""

import pytest

from d2t_selftrain.stemming import stem

# hand-traced through all five steps of the published algorithm
CASES = {
    "caresses": "caress",
    "ponies": "poni",
    "ties": "ti",
    "caress": "caress",
    "cats": "cat",
    "feed": "feed",
    "agreed": "agre",
    "motoring": "motor",
    "sing": "sing",
    "hopping": "hop",
    "falling": "fall",
    "hissing": "hiss",
    "filing": "file",
    "happy": "happi",
    "sky": "sky",
    "relational": "relat",
    "conditional": "condit",
    "electricity": "electr",
    "electrical": "electr",
    "adjustable": "adjust",
    "effective": "effect",
    "controlling": "control",
    "generalization": "gener",
}


@pytest.mark.parametrize("word,expected", sorted(CASES.items()))
def test_known_stems(word, expected):
    assert stem(word) == expected


def test_short_words_pass_through():
    assert stem("at") == "at"
    assert stem("a") == "a"
    assert stem("") == ""


def test_stem_unifies_inflections():
    assert stem("cats") == stem("cat")
    assert stem("pony") == stem("ponies")
    assert stem("electricity") == stem("electrical")


def test_memoised_stem_matches_uncached():
    uncached = stem.__wrapped__
    words = list(CASES) + list(CASES.values()) + ["at", "a", "", "Cats", "PONIES"]
    for word in words + words:  # the second pass reads the cache
        assert stem(word) == uncached(word)


def test_stem_cache_is_bounded():
    for i in range(5000):
        stem(f"walking{i}")
    info = stem.cache_info()
    assert info.maxsize == 4096
    assert info.currsize <= 4096
