"""Each text is read once: evaluation analyses every distinct text once and
shares it across the metrics, and the value checks fold each text once and
read each source's folded values from its RecordSet. Both must give exactly
the scores and verdicts of the oracles in `tests/oracles.py`, which derive
them afresh per use from plain strings."""

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import random_record_set
from d2t_selftrain import (
    Condition,
    Mr,
    RecordFieldError,
    RecordKind,
    RecordSet,
    RuleBasedT2D,
    SelfMemTuple,
    evaluate_corpus,
    judge_pair,
    optimize_target,
    selection,
)
from d2t_selftrain import metrics
from d2t_selftrain.records import fold

# ---------------------------------------------------------------- evaluation

# Words with edge punctuation, internal punctuation, re-cased and inflected
# forms, and the case-fold pair "ß"/"SS".
_WORDS = [
    "a", "b", "the", "The", "CAT", "cat", "cats", "sat", "sitting", "mat.",
    "a.", "b,", '"c"', "(d)", "e!", "x-y", "o'k", ",", ".", "?", "ß", "SS",
]
_SEPARATORS = [" ", "  ", "\t", "\n"]


@st.composite
def _texts(draw, min_words, max_words):
    words = draw(st.lists(st.sampled_from(_WORDS), min_size=min_words, max_size=max_words))
    seps = draw(st.lists(st.sampled_from(_SEPARATORS), min_size=len(words), max_size=len(words)))
    return "".join(s + w for s, w in zip(seps, words))


@st.composite
def _corpora(draw):
    """Aligned candidates and reference lists drawn from one shared pool, so
    that a string is often both a candidate and a reference, or a reference
    of several items; candidates may also be fresh or empty, and references
    may pass 64 tokens, the bit-parallel kernels' word size."""
    pool = draw(st.lists(_texts(1, 12), min_size=1, max_size=6))
    n = draw(st.integers(2, 5))
    cands = [draw(st.sampled_from(pool) | _texts(0, 12) | st.just("")) for _ in range(n)]
    refs = [
        draw(st.lists(st.sampled_from(pool) | _texts(65, 70), min_size=1, max_size=3))
        for _ in range(n)
    ]
    return cands, refs


_SHARED = (
    ["the cat sat.", "", "the cat sat."],
    [["the cat sat.", "a cat"], ["the cat sat."], ["(d) e! x-y the " * 17]],
)


@settings(max_examples=100, deadline=None)
@given(corpus=_corpora(), smoothing=st.booleans(), seed=st.integers(0, 2**16))
@example(corpus=_SHARED, smoothing=False, seed=0)
def test_evaluate_corpus_equals_per_metric_reads(corpus, smoothing, seed):
    cands, refs = corpus
    rng = random.Random(seed)
    sources = [random_record_set(rng) for _ in cands]
    # a reconstruction is missing, exact, or shares only x's first record
    recon = [
        rng.choice([None, x, RecordSet(x.records[:1] + random_record_set(rng, x.kind).records, x.kind)])
        for x in sources
    ]
    got = evaluate_corpus(cands, refs, sources=sources, reconstructions=recon, smoothing=smoothing)
    want = oracles.evaluate_corpus(cands, refs, sources, recon, smoothing)
    assert got == want


@settings(max_examples=100, deadline=None)
@given(corpus=_corpora())
@example(corpus=_SHARED)
def test_each_public_metric_equals_its_per_metric_read(corpus):
    cands, refs = corpus
    assert metrics.bleu(cands, refs) == oracles.bleu(cands, refs)
    assert metrics.bleu(cands, refs, smoothing=True) == oracles.bleu(cands, refs, smoothing=True)
    assert metrics.nist(cands, refs) == oracles.nist(cands, refs)
    assert metrics.cider(cands, refs) == oracles.cider(cands, refs)
    for c, rs in zip(cands, refs):
        assert metrics.meteor(c, rs) == oracles.meteor(c, rs)
        assert metrics.rouge_l(c, rs) == oracles.rouge_l(c, rs)
        assert metrics.ter(c, rs) == oracles.ter(c, rs)


def test_evaluate_corpus_analyses_each_distinct_text_once(monkeypatch):
    tokenize, ngrams = metrics.tokenize, metrics._ngrams
    tokenized: Counter = Counter()
    counted: Counter = Counter()

    def counting_tokenize(text):
        tokenized[text] += 1
        return tokenize(text)

    def counting_ngrams(tokens, n):
        counted[tuple(tokens), n] += 1
        return ngrams(tokens, n)

    monkeypatch.setattr(metrics, "tokenize", counting_tokenize)
    monkeypatch.setattr(metrics, "_ngrams", counting_ngrams)
    cands = ["the cat sat.", "a dog ran", "the cat sat."]
    refs = [["the cat sat on the mat.", "a dog ran"], ["a dog ran"], ["the cat sat."]]
    evaluate_corpus(cands, refs)
    assert tokenized == Counter(set(cands) | {r for rs in refs for r in rs})
    assert set(counted.values()) == {1}


def test_sentence_metrics_build_no_ngram_counts(monkeypatch):
    def refuse(tokens, n):
        raise AssertionError("n-gram counts built")

    monkeypatch.setattr(metrics, "_ngrams", refuse)
    cand, refs = "the cats sat.", ["the cat sat on the mat.", "a cat"]
    assert metrics.meteor(cand, refs) == oracles.meteor(cand, refs)
    assert metrics.rouge_l(cand, refs) == oracles.rouge_l(cand, refs)
    assert metrics.ter(cand, refs) == oracles.ter(cand, refs)


# ---------------------------------------------------------------- value checks

def _check_against_value_in_text(x, text):
    values = oracles.source_values(x)
    assert list(x.source_values) == values
    want = [oracles.value_in_text(v, text) for v in values]
    assert [oracles.value_in_text(k, text) for k in x.folded_values] == want
    assert metrics.epm(x, text) == oracles.epm(values, text)
    failed = selection._judge_candidate(x, "gold", text, None)
    assert (Condition.MISSING_SOURCE_VALUE in failed) == (not all(want))
    assert optimize_target(x, text) == oracles.optimize_target(values, text)


# whitespace runs, tabs, newlines, sentence ends and case-fold variants:
# "ß" and "ẞ" fold to "ss", "İ" to "i" plus a combining dot
_FOLD_ALPHABET = "aAsSßẞİi \t\n.!?"


@pytest.mark.hypothesis_seeds
@settings(max_examples=500, deadline=None)
@given(
    # raw values, distinct under case-folding, unnormalized and empty ones too
    values=st.lists(st.text(_FOLD_ALPHABET, max_size=6), max_size=4, unique_by=str.casefold),
    text=st.text(_FOLD_ALPHABET, max_size=40),
)
@example(values=["ß"], text="SS")
@example(values=["SS", "ẞ a"], text="ß\t\nA. ss a!")
@example(values=["a  b"], text="A\tB")
@example(values=["", " \t", "a"], text="a")
@example(values=["İ"], text="i̇ x.")
def test_folded_value_checks_agree_with_value_in_text(values, text):
    # a value empty after whitespace normalization never reaches a check:
    # no record holds it
    kept = [v for v in values if v.split()]
    for v in values:
        if not v.split():
            with pytest.raises(RecordFieldError):
                Mr("k", v)
    if not kept:
        return
    x = RecordSet(tuple(Mr(f"k{i}", v) for i, v in enumerate(kept)), RecordKind.MR_SET)
    # each raw value's verdict is read off its stored, folded form
    assert set(x.folded_values) == {fold(v) for v in kept}
    assert [oracles.value_in_text(fold(v), text) for v in kept] == [oracles.value_in_text(v, text) for v in kept]
    _check_against_value_in_text(x, text)


@pytest.mark.hypothesis_seeds
@settings(max_examples=500, deadline=None)
@given(
    fields=st.lists(st.text(_FOLD_ALPHABET, max_size=6), min_size=1, max_size=4),
    text=st.text(_FOLD_ALPHABET, max_size=40),
)
@example(fields=["ß"], text="SS")
@example(fields=["SS", "ẞ a"], text="ß\t\nA. ss a!")
@example(fields=["a  b"], text="A\tB")
@example(fields=["a"], text="a")
@example(fields=["İ"], text="i̇ x.")
def test_folded_value_checks_agree_on_record_values(fields, text):
    fields = [f for f in fields if f.split()]
    if not fields:
        return
    x = RecordSet(tuple(Mr(f"k{i}", f) for i, f in enumerate(fields)), RecordKind.MR_SET)
    _check_against_value_in_text(x, text)


# E2E-shaped values that the text holds only inside a longer word or number
_PROBES = [
    ("familyFriendly", "no", "The Eagle is known for Indian food. It is not cheap."),
    ("eatType", "pub", "The Eagle serves Indian food. It is a public house."),
    ("customer rating", "1 out of 5", "The Eagle serves Indian food. It is rated 1 out of 50."),
]


@pytest.mark.parametrize("key, value, text", _PROBES, ids=[v for _, v, _ in _PROBES])
def test_a_value_inside_a_longer_word_is_missing(key, value, text):
    x = RecordSet((Mr("name", "The Eagle"), Mr("food", "Indian"), Mr(key, value)), RecordKind.MR_SET)
    assert metrics.epm(x, text) == 2 / 3
    verdict = judge_pair(SelfMemTuple(x, text + " It is a fine place.", y_prime=text, x_prime=x))
    assert verdict.failed_conditions == (Condition.MISSING_SOURCE_VALUE,)
    outcome = optimize_target(x, text)
    assert value not in outcome.matched_values
    assert outcome.kept_sentences == (text.split(". ")[0] + ".",)
    # and the T2D model, reading the same rule, recovers all but that record
    assert RuleBasedT2D([x]).generate(text) == "name : The Eagle | food : Indian"
