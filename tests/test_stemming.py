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

# one word per row of each step's rule table, (step, suffix, word, stem):
# the word fires that row on its way through all five steps
ROW_CASES = [
    ("1a", "sses", "caresses", "caress"),
    ("1a", "ies", "ponies", "poni"),
    ("1a", "ss", "caress", "caress"),
    ("1a", "s", "cats", "cat"),
    ("1b", "eed", "agreed", "agre"),
    ("1b", "ed", "plastered", "plaster"),
    ("1b", "ing", "motoring", "motor"),
    ("1c", "y", "happy", "happi"),
    ("2", "ational", "relational", "relat"),
    ("2", "tional", "conditional", "condit"),
    ("2", "enci", "valenci", "valenc"),
    ("2", "anci", "hesitanci", "hesit"),
    ("2", "izer", "digitizer", "digit"),
    ("2", "abli", "conformabli", "conform"),
    ("2", "alli", "radicalli", "radic"),
    ("2", "entli", "differentli", "differ"),
    ("2", "eli", "vileli", "vile"),
    ("2", "ousli", "analogousli", "analog"),
    ("2", "ization", "vietnamization", "vietnam"),
    ("2", "ation", "predication", "predic"),
    ("2", "ator", "operator", "oper"),
    ("2", "alism", "feudalism", "feudal"),
    ("2", "iveness", "decisiveness", "decis"),
    ("2", "fulness", "hopefulness", "hope"),
    ("2", "ousness", "callousness", "callous"),
    ("2", "aliti", "formaliti", "formal"),
    ("2", "iviti", "sensitiviti", "sensit"),
    ("2", "biliti", "sensibiliti", "sensibl"),
    ("3", "icate", "triplicate", "triplic"),
    ("3", "ative", "formative", "form"),
    ("3", "alize", "formalize", "formal"),
    ("3", "iciti", "electriciti", "electr"),
    ("3", "ical", "electrical", "electr"),
    ("3", "ful", "hopeful", "hope"),
    ("3", "ness", "goodness", "good"),
    ("4", "al", "revival", "reviv"),
    ("4", "ance", "allowance", "allow"),
    ("4", "ence", "inference", "infer"),
    ("4", "er", "airliner", "airlin"),
    ("4", "ic", "gyroscopic", "gyroscop"),
    ("4", "able", "adjustable", "adjust"),
    ("4", "ible", "defensible", "defens"),
    ("4", "ant", "irritant", "irrit"),
    ("4", "ement", "replacement", "replac"),
    ("4", "ment", "adjustment", "adjust"),
    ("4", "ent", "dependent", "depend"),
    ("4", "ou", "homologou", "homolog"),
    ("4", "ism", "communism", "commun"),
    ("4", "ate", "activate", "activ"),
    ("4", "iti", "angulariti", "angular"),
    # step 1a strips a final s, so ous reaches step 4 only from step 2
    ("4", "ous", "ambiguousness", "ambigu"),
    ("4", "ive", "effective", "effect"),
    ("4", "ize", "bowdlerize", "bowdler"),
    ("4", "ion", "adoption", "adopt"),
    ("5a", "e", "probate", "probat"),  # m > 1
    ("5a", "e", "cease", "ceas"),  # m = 1 and not *o
]


@pytest.mark.parametrize("step,suffix,word,expected", ROW_CASES, ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in ROW_CASES])
def test_every_rule_row_fires(step, suffix, word, expected):
    assert stem(word) == expected


# what stays code, step 1b's clean-up after ed or ing and step 5b, and
# conditions that block a row; each stem shows its branch
BRANCH_CASES = {
    "activated": "activ",  # at -> ate, which step 4 then strips
    "adjustabled": "adjust",  # bl -> ble, so step 4 strips able
    "bowdlerized": "bowdler",  # iz -> ize, which step 4 then strips
    "hopping": "hop",  # a double consonant loses one letter
    "tanned": "tan",
    "falling": "fall",  # unless it is l, s or z
    "hissing": "hiss",
    "fizzed": "fizz",
    "filing": "file",  # m = 1 and *o -> e
    "failing": "fail",  # m = 1 but not *o: nothing
    "controll": "control",  # step 5b: m > 1 and a double l
    "roll": "roll",  # step 5b: m = 1
    "rate": "rate",  # step 5a: m = 1 and *o keeps the e
    "opinion": "opinion",  # ion only after s or t
    # ement fails on m = 1 and blocks ent, whose stem has m = 2
    "agreement": "agreement",
}


@pytest.mark.parametrize("word,expected", sorted(BRANCH_CASES.items()))
def test_clean_up_and_conditions(word, expected):
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
