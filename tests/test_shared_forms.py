"""Each text is read once: evaluation analyses every distinct text once and
shares it across the metrics, and the value checks fold each text and each
value once. Both must give exactly the scores and verdicts of the code that
re-derived them per use."""

import random
from collections import Counter
from unittest import mock

from hypothesis import example, given, settings, strategies as st

import metrics_before_shared_analysis as before
from conftest import random_record_set
from d2t_selftrain import (
    Condition,
    Mr,
    RecordKind,
    RecordSet,
    evaluate_corpus,
    optimize,
    optimize_target,
    selection,
    split_sentences,
    value_in_text,
)
from d2t_selftrain import metrics
from d2t_selftrain.optimize import OptimizationOutcome

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
    recon = [x if rng.random() < 0.5 else None for x in sources]
    got = evaluate_corpus(cands, refs, sources=sources, reconstructions=recon, smoothing=smoothing)
    want = before.evaluate_corpus(cands, refs, sources=sources, reconstructions=recon, smoothing=smoothing)
    assert got == want


@settings(max_examples=100, deadline=None)
@given(corpus=_corpora())
@example(corpus=_SHARED)
def test_each_public_metric_equals_its_per_metric_read(corpus):
    cands, refs = corpus
    assert metrics.bleu(cands, refs) == before.bleu(cands, refs)
    assert metrics.bleu(cands, refs, smoothing=True) == before.bleu(cands, refs, smoothing=True)
    assert metrics.nist(cands, refs) == before.nist(cands, refs)
    assert metrics.cider(cands, refs) == before.cider(cands, refs)
    for c, rs in zip(cands, refs):
        assert metrics.meteor(c, rs) == before.meteor(c, rs)
        assert metrics.rouge_l(c, rs) == before.rouge_l(c, rs)
        assert metrics.ter(c, rs) == before.ter(c, rs)


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
    assert metrics.meteor(cand, refs) == before.meteor(cand, refs)
    assert metrics.rouge_l(cand, refs) == before.rouge_l(cand, refs)
    assert metrics.ter(cand, refs) == before.ter(cand, refs)


# ---------------------------------------------------------------- value checks


def _optimize_target_per_pair(values, y_prime):
    """`optimize_target` as it was before it folded each text once, with the
    values passed in, kept verbatim otherwise."""
    sentences = split_sentences(y_prime)
    kept: list[str] = []
    matched: list[str] = []
    matched_keys: set[str] = set()
    for s in sentences:
        for v in values:
            k = v.casefold()
            if k in matched_keys:
                continue
            if value_in_text(v, s):
                matched_keys.add(k)
                matched.append(v)
                if s not in kept:
                    kept.append(s)
    if len(matched) == len(values) and values:
        optimized = " ".join(kept)
        return OptimizationOutcome(optimized, optimized != y_prime, tuple(matched), tuple(kept))
    return OptimizationOutcome(y_prime, False, tuple(matched), tuple(kept))


def _check_against_value_in_text(x, values, text):
    want = [value_in_text(v, text) for v in values]
    assert metrics.epm(x, text) == (sum(want) / len(values) if values else 0.0)
    failed = selection._judge_candidate(x, "gold", text, None)
    assert (Condition.MISSING_SOURCE_VALUE in failed) == (not all(want))
    assert optimize_target(x, text) == _optimize_target_per_pair(values, text)


# whitespace runs, tabs, newlines, sentence ends and case-fold variants:
# "ß" and "ẞ" fold to "ss", "İ" to "i" plus a combining dot
_FOLD_ALPHABET = "aAsSßẞİi \t\n.!?"
_STAND_IN = RecordSet((Mr("name", "stand-in"),), RecordKind.MR_SET)


@settings(max_examples=500, deadline=None)
@given(
    # distinct under case-folding, as extract_source_values returns them
    values=st.lists(st.text(_FOLD_ALPHABET, max_size=6), max_size=4, unique_by=str.casefold),
    text=st.text(_FOLD_ALPHABET, max_size=40),
)
@example(values=["ß"], text="SS")
@example(values=["SS", "ẞ a"], text="ß\t\nA. ss a!")
@example(values=["a  b"], text="A\tB")
@example(values=["", " \t", "a"], text="a")
@example(values=["İ"], text="i̇ x.")
def test_folded_value_checks_agree_with_value_in_text(values, text):
    # values are patched in raw, so unnormalized and empty ones are covered
    get = lambda _x: tuple(values)  # noqa: E731
    with mock.patch.object(metrics, "extract_source_values", get), mock.patch.object(
        selection, "extract_source_values", get
    ), mock.patch.object(optimize, "extract_source_values", get):
        _check_against_value_in_text(_STAND_IN, values, text)


@settings(max_examples=200, deadline=None)
@given(
    fields=st.lists(st.text(_FOLD_ALPHABET, max_size=6), min_size=1, max_size=4),
    text=st.text(_FOLD_ALPHABET, max_size=40),
)
def test_folded_value_checks_agree_on_record_values(fields, text):
    fields = [f for f in fields if f.split()]
    if not fields:
        return
    x = RecordSet(tuple(Mr(f"k{i}", f) for i, f in enumerate(fields)), RecordKind.MR_SET)
    _check_against_value_in_text(x, list(metrics.extract_source_values(x)), text)
