"""Evaluation metrics: hand-computed cases, invariants, report plumbing, and
each fast kernel against its one oracle in `tests/oracles.py`.

The bit-parallel edit distance (`_lane_distances`) is checked against `oracles.edit_distance`, the bit-parallel LCS against
`oracles.lcs_len`, the TER search against `oracles.ter_edits` and CIDEr
against `oracles.cider`. A change that replaces one of these kernels
compares against that oracle and adds no copy of the old code here."""

import math
import os
import random
import subprocess
import sys
import unicodedata
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import d2t_selftrain
import oracles
from conftest import random_record_set
from d2t_selftrain import (
    MetricError,
    MetricReport,
    Mr,
    OsfScore,
    RecordKind,
    RecordSet,
    Triple,
    VariantMismatchError,
    bleu,
    cider,
    epm,
    evaluate_corpus,
    meteor,
    nist,
    osf,
    rouge_l,
    ter,
    tokenize,
)
from d2t_selftrain import metrics
from d2t_selftrain.metrics import _lane_distances, _lcs_len, _match_masks, _ter_edits
from d2t_selftrain.records import record_key

APPROX = 1e-9


def _tokens(alphabet: str, min_size: int, max_size: int):
    return st.lists(st.sampled_from(list(alphabet)), min_size=min_size, max_size=max_size)


# ---------------------------------------------------------------- tokenizer


def test_tokenize_splits_edge_punctuation():
    assert tokenize("The cat, sat.") == ["the", "cat", ",", "sat", "."]
    assert tokenize('"Hello!"') == ['"', "hello", "!", '"']


def test_tokenize_keeps_internal_punctuation():
    assert tokenize("family-friendly o'clock") == ["family-friendly", "o'clock"]


def test_tokenize_casefolds_and_collapses():
    assert tokenize("  A  \t B ") == ["a", "b"]
    assert tokenize("") == []


# ---------------------------------------------------------------- BLEU


def test_alphanumeric_characters_are_never_punctuation():
    # tokenize keeps a chunk whole when both its ends are alphanumeric; that
    # is exact only if no alphanumeric character is punctuation
    chars = map(chr, range(sys.maxunicode + 1))
    assert [c for c in chars if c.isalnum() and unicodedata.category(c).startswith("P")] == []


def test_bleu_perfect_match():
    cands = ["the cat sat on the mat", "a b c d"]
    assert bleu(cands, [[c] for c in cands]) == pytest.approx(1.0, abs=APPROX)


def test_bleu_unigram_clipping():
    # "the" appears twice in the reference at most once... no: once. clipped
    # matches = 1, total = 3
    assert bleu(["the the the"], [["the cat"]], max_n=1) == pytest.approx(
        1 / 3, abs=APPROX
    )


def test_bleu_zero_without_any_4gram_overlap():
    assert bleu(["the the the"], [["the cat"]]) == 0.0
    assert bleu(["w x y z"], [["a b c d"]]) == 0.0


def test_bleu_smoothing_rescues_tiny_corpora():
    assert bleu(["a b c"], [["a b d"]]) == 0.0
    assert bleu(["a b c"], [["a b d"]], smoothing=True) > 0.0


def test_bleu_brevity_penalty():
    # candidate 2 tokens vs reference 6: BP = exp(1 - 6/2)
    got = bleu(["the cat"], [["the cat sat on the mat"]], max_n=1)
    assert got == pytest.approx(math.exp(-2.0), abs=APPROX)


def test_bleu_closest_reference_length_prefers_shorter_tie():
    # candidate length 3; references 2 and 4 tie, shorter wins so no penalty
    got = bleu(["a b x"], [["a b", "a b c d"]], max_n=1)
    assert got == pytest.approx(2 / 3, abs=APPROX)


def test_bleu_alignment_errors():
    with pytest.raises(MetricError):
        bleu(["a"], [["a"], ["b"]])
    with pytest.raises(MetricError):
        bleu(["a"], [[]])
    with pytest.raises(MetricError):
        bleu([], [])


def test_bleu_rejects_max_n_below_one():
    with pytest.raises(MetricError, match="max_n"):
        bleu(["a"], [["a"]], max_n=0)


# ---------------------------------------------------------------- NIST


def test_nist_zero_overlap():
    assert nist(["x y"], [["a b"]]) == 0.0


def test_nist_empty_candidate():
    assert nist([""], [["a b"]]) == 0.0


def test_nist_matches_hand_computed_info_weights():
    # all-unique corpus: every unigram has info log2(6/1); bigram info is
    # log2(count(prefix)/count(bigram)) = log2(1/1) = 0
    cands = ["a b", "c d", "e f"]
    refs = [["a b"], ["c d"], ["e f"]]
    expected = math.log2(6.0)  # unigram contribution only, brevity factor 1
    assert nist(cands, refs) == pytest.approx(expected, abs=APPROX)


def test_nist_identity_beats_perturbation():
    refs = [["the cat sat on the mat"], ["a dog ran in the park"]]
    ident = nist([r[0] for r in refs], refs)
    worse = nist(["the cat sat", "a dog ran"], refs)
    assert ident > worse >= 0.0


# ---------------------------------------------------------------- METEOR


def test_meteor_hand_oracle():
    # matches=2, chunks=1: Fmean=1, penalty=0.5*(1/2)^3
    assert meteor("the cat", ["the cat"]) == pytest.approx(0.9375, abs=APPROX)


def test_meteor_zero_overlap():
    assert meteor("x y", ["a b"]) == 0.0


def test_meteor_stem_module_matches_inflections():
    # single token pair matched via stemming: F=1, penalty=0.5
    assert meteor("cats", ["cat"]) == pytest.approx(0.5, abs=APPROX)


def test_meteor_best_reference_wins():
    assert meteor("the cat", ["x y", "the cat"]) == pytest.approx(0.9375, abs=APPROX)


def test_meteor_requires_references():
    with pytest.raises(MetricError):
        meteor("a", [])


# words whose stems collide ("run", "runs", "running"; "cat", "cats") next to
# exact repeats, so either stage can take a position the other wanted
_meteor_words = st.lists(st.sampled_from(["run", "runs", "running", "ran", "cat", "cats", "the", "a"]), max_size=12)


@settings(max_examples=500, deadline=None)
@given(ct=_meteor_words, rt=_meteor_words)
@example(ct=[], rt=["cat"])
@example(ct=["cat"], rt=[])
@example(ct=["runs", "run", "run"], rt=["run", "running", "runs"])
@example(ct=["cats", "cat", "cats"], rt=["cat", "cats", "cat", "cats"])
def test_meteor_alignment_matches_first_unused_scan(ct, rt):
    assert metrics._meteor_single(ct, rt) == oracles.meteor_single(ct, rt)


# ---------------------------------------------------------------- ROUGE-L


def test_rouge_identity():
    assert rouge_l("a b c d", ["a b c d"]) == pytest.approx(1.0, abs=APPROX)


def test_rouge_hand_oracle():
    # LCS("a b c d", "a c b d") = 3 of 4 either way: P = R = F = 0.75
    assert rouge_l("a b c d", ["a c b d"]) == pytest.approx(0.75, abs=APPROX)


def test_rouge_disjoint():
    assert rouge_l("x y", ["a b"]) == 0.0


def test_rouge_beta_favors_recall():
    # LCS=2, P=1, R=0.5: F = 2.2*0.5 / (0.5 + 1.2)
    got = rouge_l("a b", ["a b c d"])
    assert got == pytest.approx(1.1 / 1.7, abs=APPROX)


def test_rouge_requires_references():
    with pytest.raises(MetricError):
        rouge_l("a", [])


@settings(max_examples=300, deadline=None)
@given(
    a=_tokens("abcd", 0, 100),
    b=st.one_of(_tokens("abcde", 0, 20), _tokens("abcde", 65, 150)),
)
@example(a=[], b=["a"])
@example(a=["a"], b=[])
@example(a=list("ab" * 40), b=list("ba" * 40))
def test_bit_parallel_lcs_matches_dp(a, b):
    want = oracles.lcs_len(a, b)
    assert _lcs_len(a, b) == want
    assert _lcs_len(b, a) == want


# ---------------------------------------------------------------- CIDEr


def test_cider_needs_two_items():
    with pytest.raises(MetricError):
        cider(["a"], [["a"]])


def test_cider_two_item_hand_oracle():
    # exact-match item scores 10, disjoint one scores 0; corpus mean 5
    cands = ["a b c d e", "x y"]
    refs = [["a b c d e"], ["p q"]]
    assert cider(cands, refs) == pytest.approx(5.0, abs=APPROX)


def test_cider_matches_independent_vector_oracle():
    cands = ["the cat sat on the mat", "a dog ran fast", "the cat ran"]
    refs = [
        ["the cat sat on a mat", "the cat is on the mat"],
        ["a dog ran very fast"],
        ["the dog ran", "a cat ran"],
    ]
    assert cider(cands, refs) == oracles.cider(cands, refs)


_CIDER_SCRIPT = """
import random
from d2t_selftrain import cider
rng = random.Random(5)
words = "the a cat dog sat ran on near mat barn red old fast past by river town of in at".split()
sent = lambda: " ".join(rng.choice(words) for _ in range(rng.randint(10, 30)))
cands = [sent() for _ in range(4)]
refs = [[sent() for _ in range(2)] for _ in range(4)]
print(repr(cider(cands, refs)))
"""


def test_cider_independent_of_hash_seed():
    # summing the cosine's dot product in set order changed the last bit of
    # this corpus's score between string hash seeds
    src = str(Path(d2t_selftrain.__file__).resolve().parent.parent)
    outputs = set()
    for seed in range(8):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", _CIDER_SCRIPT],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        outputs.add(run.stdout)
    assert len(outputs) == 1


# ---------------------------------------------------------------- TER


def test_ter_identity():
    assert ter("a b c", ["a b c"]) == 0.0


def test_ter_substitution():
    assert ter("a b c", ["a b d"]) == pytest.approx(1 / 3, abs=APPROX)


def test_ter_shift_counts_one_edit():
    assert ter("b a", ["a b"]) == pytest.approx(0.5, abs=APPROX)
    assert ter("c a b", ["a b c"]) == pytest.approx(1 / 3, abs=APPROX)


def test_ter_insertion_and_deletion():
    assert ter("a b c", ["a b"]) == pytest.approx(0.5, abs=APPROX)  # 1 del / 2
    assert ter("a", ["a b"]) == pytest.approx(0.5, abs=APPROX)  # 1 ins / 2


def test_ter_min_over_references():
    assert ter("a b c", ["x y z", "a b c"]) == 0.0


def test_ter_shift_never_hurts():
    # shift search may only reduce the plain edit distance rate: a shift is
    # taken only when it cuts the distance by more than the one edit it costs
    rng = random.Random(5)
    vocab = ["a", "b", "c", "d"]
    for _ in range(100):
        cand = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 6)))
        ref = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 6)))
        rt = tokenize(ref)
        assert ter(cand, [ref]) <= oracles.edit_distance(tokenize(cand), rt) / len(rt)


def _token_pairs(max_hyp: int, ref_sizes: tuple[int, int]):
    """(hyp, ref) over an alphabet of 1 to 6 tokens: the small ones make ties
    between shifts and repeated blocks the norm."""
    return st.sampled_from(["a", "ab", "abc", "abcdef"]).flatmap(
        lambda abc: st.tuples(_tokens(abc, 0, max_hyp), _tokens(abc, *ref_sizes))
    )


@settings(max_examples=500, deadline=None)
@given(hyp=_tokens("abc", 0, 10), ref=_tokens("abc", 1, 10))
@example(hyp=[], ref=["a", "b"])
def test_ter_edits_match_dp_search_on_small_alphabet(hyp, ref):
    # three tokens: ties between shifts and repeated blocks are the norm
    assert _ter_edits(hyp, ref) == oracles.ter_edits(hyp, ref)


@settings(max_examples=30, deadline=None)
@given(hyp=_tokens("abcdefgh", 0, 10), ref=_tokens("abcdefgh", 65, 80))
def test_ter_edits_match_dp_search_past_64_reference_tokens(hyp, ref):
    assert _ter_edits(hyp, ref) == oracles.ter_edits(hyp, ref)


@pytest.mark.hypothesis_seeds
@settings(max_examples=1000, deadline=None)
@given(pair=_token_pairs(12, (1, 12)))
@example(pair=("a a b c".split(), "c b a a".split()))
@example(pair=("b a".split(), "a b c".split()))
def test_ter_edits_match_full_scan_search(pair):
    hyp, ref = pair
    assert _ter_edits(hyp, ref) == oracles.ter_edits(hyp, ref)


@settings(max_examples=60, deadline=None)
@given(pair=_token_pairs(24, (65, 90)))
def test_ter_edits_match_full_scan_search_past_64_reference_tokens(pair):
    hyp, ref = pair
    assert _ter_edits(hyp, ref) == oracles.ter_edits(hyp, ref)


@settings(max_examples=200, deadline=None)
@given(hyp=_tokens("abcd", 0, 100), ref=_tokens("abcd", 1, 100))
def test_bit_parallel_distance_matches_dp(hyp, ref):
    # the null move (0, n, 0) is the hypothesis itself, n = 0 included
    null_move = (0, len(hyp), 0)
    got = _lane_distances(_match_masks(ref), len(ref), hyp, [null_move])
    assert got == [oracles.edit_distance(hyp, ref)]


@settings(max_examples=200, deadline=None)
@given(ref=_tokens("abcd", 1, 80), keep=st.lists(st.booleans(), min_size=80, max_size=80))
@example(ref="the cat sat on the mat".split(), keep=[False, True, False, True, True, True] + [False] * 74)
def test_ter_scores_no_candidate_for_a_subsequence_of_the_reference(ref, keep):
    # a subsequence is m - n insertions away, which the bag-of-words floor
    # already proves optimal: only the null move's pass over hyp reads tokens
    hyp = [tok for tok, kept in zip(ref, keep) if kept]
    calls = []

    def recording_lane_distances(peq, m, hyp, lanes):
        calls.append(list(lanes))
        return _lane_distances(peq, m, hyp, lanes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_lane_distances", recording_lane_distances)
        assert _ter_edits(hyp, ref) == len(ref) - len(hyp)
    assert calls == [[(0, len(hyp), 0)]]


def test_ter_ties_keep_the_first_shift():
    # Seven shifts each cut the distance from 4 to 2. The first one found
    # moves hyp[0] behind "b" and leaves 2 more edits, 3 in all; the later
    # tie that moves "a a" to the end leaves one shift, 2 in all.
    hyp, ref = "a a b c".split(), "c b a a".split()
    assert 1 + oracles.ter_edits("b c a a".split(), ref) == 2
    assert _ter_edits(hyp, ref) == oracles.ter_edits(hyp, ref) == 3
    assert ter("a a b c", ["c b a a"]) == pytest.approx(3 / 4, abs=APPROX)


# The packed search: candidates of a step share one bit-vector pass.


def _shifted(hyp: Sequence[str], i: int, length: int, j: int) -> list[str]:
    removed = list(hyp[:i]) + list(hyp[i + length :])
    return removed[:j] + list(hyp[i : i + length]) + removed[j:]


@st.composite
def _lane_cases(draw, ref_sizes):
    """(hyp, ref, lanes): any block moves (i, L, j) of hyp, in any order,
    repeats and null moves included."""
    abc = draw(st.sampled_from(["a", "ab", "abc", "abcdef"]))
    ref = draw(_tokens(abc, *ref_sizes))
    hyp = draw(_tokens(abc, 1, 16))
    n = len(hyp)
    lanes = []
    for _ in range(draw(st.integers(1, 40))):
        length = draw(st.integers(1, n))
        i = draw(st.integers(0, n - length))
        j = draw(st.integers(0, n - length))
        lanes.append((i, length, j))
    return hyp, ref, lanes


@pytest.mark.hypothesis_seeds
@settings(max_examples=300, deadline=None)
@given(case=st.one_of(_lane_cases((1, 1)), _lane_cases((2, 12)), _lane_cases((63, 65))))
@example(case=(["a"], ["a"], [(0, 1, 0)]))
@example(case=(["b", "a"], ["a"], [(0, 1, 1), (1, 1, 0)]))
def test_lane_distances_match_dp_per_candidate(case):
    # 1-token references make 2-bit lanes; 63-65 tokens straddle a machine word
    hyp, ref, lanes = case
    expected = [oracles.edit_distance(_shifted(hyp, *lane), ref) for lane in lanes]
    assert _lane_distances(_match_masks(ref), len(ref), hyp, lanes) == expected


@settings(max_examples=300, deadline=None)
@given(hyp=_tokens("ab", 0, 12), ref=_tokens("ab", 1, 1))
def test_ter_edits_match_both_searches_on_a_one_token_reference(hyp, ref):
    assert _ter_edits(hyp, ref) == oracles.ter_edits(hyp, ref)


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from([63, 64, 65]), data=st.data())
def test_ter_edits_match_both_searches_around_a_word_of_reference_tokens(m, data):
    ref = data.draw(_tokens("abcdefgh", m, m))
    hyp = data.draw(_tokens("abcdefgh", 0, 10))
    assert _ter_edits(hyp, ref) == oracles.ter_edits(hyp, ref)


@pytest.mark.hypothesis_seeds
@settings(max_examples=100, deadline=None)
@given(m=st.sampled_from([63, 64, 65]), data=st.data())
def test_ter_edits_match_full_scan_search_around_a_word_of_reference_tokens(m, data):
    abc = data.draw(st.sampled_from(["ab", "abc", "abcdef"]))
    ref = data.draw(_tokens(abc, m, m))
    hyp = data.draw(st.one_of(_tokens(abc, 0, 24), st.permutations(ref).map(lambda p: p[:24])))
    assert _ter_edits(hyp, ref) == oracles.ter_edits(hyp, ref)


@pytest.mark.parametrize("lanes", [1, 2, 3, 7])
@settings(max_examples=200, deadline=None)
@given(pair=_token_pairs(12, (1, 12)))
@example(pair=("a a b c".split(), "c b a a".split()))
def test_ter_edits_match_full_scan_search_across_chunk_edges(lanes, pair):
    # chunks this small end between candidates of every step with more
    # than a few, so the floor exit and gain bound run between chunks
    hyp, ref = pair
    want = oracles.ter_edits(hyp, ref)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_TER_LANES", lanes)
        assert _ter_edits(hyp, ref) == want
    assert _ter_edits(hyp, ref) == want


def test_ter_edits_cross_a_chunk_edge_at_the_module_chunk_size():
    rng = random.Random(11)
    ref = [rng.choice("abcdefghijkl") for _ in range(40)]
    hyp = ref[:]
    rng.shuffle(hyp)
    chunks = []

    def recording_lane_distances(peq, m, hyp, lanes):
        chunks.append(len(lanes))
        return _lane_distances(peq, m, hyp, lanes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_lane_distances", recording_lane_distances)
        assert _ter_edits(hyp, ref) == oracles.ter_edits(hyp, ref)
    # a full chunk followed by more lanes of the same or a later step
    assert metrics._TER_LANES in chunks[:-1]
    assert max(chunks) == metrics._TER_LANES


def _first_step_best_shifts(hyp: Sequence[str], ref: Sequence[str]) -> list[tuple]:
    """Every (i, L, j) of the first step whose shift reaches the largest
    gain, with its shifted hypothesis, by the dynamic program."""
    dist = oracles.edit_distance(hyp, ref)
    scored = [
        (dist - oracles.edit_distance(shifted, ref), lane, shifted)
        for lane, shifted in oracles.shifts(hyp, ref)
    ]
    best = max((gain for gain, _, _ in scored), default=0)
    return [(lane, shifted) for gain, lane, shifted in scored if gain == best > 0]


@st.composite
def _rotations(draw):
    """hyp = a + b + c against ref = b + a + c: moving a behind b and moving
    b in front of a give the same shifted hypothesis, both at distance 0."""
    abc = draw(st.sampled_from(["ab", "abc"]))
    a, b = draw(_tokens(abc, 1, 4)), draw(_tokens(abc, 1, 4))
    c = draw(_tokens(abc, 0, 3))
    return a + b + c, b + a + c


@settings(max_examples=200, deadline=None)
@given(pair=st.one_of(_rotations(), _token_pairs(8, (1, 8))))
@example(pair=("a b c c".split(), "c c a b".split()))
@example(pair=("a a b".split(), "b a a".split()))
def test_ter_edits_keep_the_first_of_duplicate_best_shifts(pair):
    hyp, ref = pair
    best = _first_step_best_shifts(hyp, ref)
    shifted = [s for _, s in best]
    assume(len(shifted) > len({tuple(s) for s in shifted}))  # a tied duplicate
    want = oracles.ter_edits(hyp, ref)
    assert _ter_edits(hyp, ref) == want
    for lanes in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_TER_LANES", lanes)
            assert _ter_edits(hyp, ref) == want


@pytest.mark.parametrize("seed", range(4))
def test_ter_reads_the_hypothesis_distance_once_per_search(seed):
    # the first pass of a search is the null move alone; every later lane is
    # a real shift, so after a shift the distance is the winner's
    rng = random.Random(seed)
    ref = [rng.choice("abcdef") for _ in range(rng.randint(8, 20))]
    hyp = ref[:]
    rng.shuffle(hyp)
    hyp = hyp[: rng.randint(len(hyp) - 3, len(hyp))]
    calls = []

    def recording_lane_distances(peq, m, hyp, lanes):
        calls.append(list(lanes))
        return _lane_distances(peq, m, hyp, lanes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_lane_distances", recording_lane_distances)
        assert _ter_edits(hyp, ref) == oracles.ter_edits(hyp, ref)
    assert calls[0] == [(0, len(hyp), 0)]
    assert calls[1:], "no candidate was scored"
    assert all(i != j for lanes in calls[1:] for i, _, j in lanes)


def test_ter_empty_reference_rejected():
    with pytest.raises(MetricError):
        ter("a", [""])
    with pytest.raises(MetricError):
        ter("a", [])


# ---------------------------------------------------------------- EPM / OSF


def test_epm_all_and_partial():
    rs = RecordSet(
        (Mr("k0", "alpha"), Mr("k1", "beta"), Mr("k2", "gamma"), Mr("k3", "delta")),
        RecordKind.MR_SET,
    )
    assert epm(rs, "alpha beta gamma delta") == pytest.approx(1.0, abs=APPROX)
    assert epm(rs, "only alpha here") == pytest.approx(0.25, abs=APPROX)
    assert epm(rs, "") == 0.0
    assert epm(RecordSet.empty(RecordKind.MR_SET), "anything") == 0.0


def test_osf_identity():
    rs = RecordSet(
        (Triple("a", "p", "b"), Triple("c", "q", "d")), RecordKind.TRIPLESET
    )
    score = osf(rs, rs)
    assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)


def test_osf_hand_oracle():
    rs = RecordSet(
        (Triple("a", "p", "b"), Triple("c", "q", "d")), RecordKind.TRIPLESET
    )
    partial = RecordSet((Triple("a", "p", "b"),), RecordKind.TRIPLESET)
    score = osf(rs, partial)
    assert score.precision == pytest.approx(1.0, abs=APPROX)
    assert score.recall == pytest.approx(0.5, abs=APPROX)
    assert score.f1 == pytest.approx(2 / 3, abs=APPROX)


def test_osf_disjoint_and_empty():
    rs = RecordSet((Triple("a", "p", "b"),), RecordKind.TRIPLESET)
    other = RecordSet((Triple("x", "y", "z"),), RecordKind.TRIPLESET)
    assert osf(rs, other) == OsfScore(0.0, 0.0, 0.0)
    assert osf(rs, RecordSet.empty(RecordKind.TRIPLESET)) == OsfScore(0.0, 0.0, 0.0)


def test_osf_kind_mismatch():
    rs = RecordSet((Triple("a", "p", "b"),), RecordKind.TRIPLESET)
    mr = RecordSet((Mr("a", "b"),), RecordKind.MR_SET)
    with pytest.raises(VariantMismatchError):
        osf(rs, mr)


def test_osf_strict_flag_respects_case():
    rs = RecordSet((Triple("Alpha", "P", "B"),), RecordKind.TRIPLESET)
    recased = RecordSet((Triple("alpha", "p", "b"),), RecordKind.TRIPLESET)
    assert osf(rs, recased).precision == 1.0


def test_osf_precision_equals_subset_inclusion_oracle():
    rng = random.Random(17)
    for _ in range(200):
        a = random_record_set(rng, RecordKind.TRIPLESET)
        b = random_record_set(rng, RecordKind.TRIPLESET)
        # independent set-inclusion check over case-folded record identities
        subset = {record_key(r) for r in b.records} <= {
            record_key(r) for r in a.records
        }
        assert (osf(a, b).precision == 1.0) == subset


# ---------------------------------------------------------------- invariants


def _random_corpus(rng, n):
    vocab = "the a cat dog sat ran mat park quickly".split()
    sent = lambda: " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
    cands = [sent() for _ in range(n)]
    refs = [[sent() for _ in range(rng.randint(1, 2))] for _ in range(n)]
    return cands, refs


def test_bounded_metrics_stay_in_range():
    rng = random.Random(3)
    for _ in range(20):
        cands, refs = _random_corpus(rng, 3)
        assert 0.0 <= bleu(cands, refs) <= 1.0
        assert nist(cands, refs) >= 0.0
        assert 0.0 <= cider(cands, refs) <= 10.0 + APPROX
        for c, r in zip(cands, refs):
            assert 0.0 <= meteor(c, r) <= 1.0
            assert 0.0 <= rouge_l(c, r) <= 1.0
            assert ter(c, r) >= 0.0


def test_identity_is_every_metrics_optimum():
    cands = ["the cat sat on the mat", "a dog ran in the park today"]
    refs = [[c] for c in cands]
    assert bleu(cands, refs) == pytest.approx(1.0, abs=APPROX)
    assert cider(cands, refs) == pytest.approx(10.0, abs=APPROX)
    for c in cands:
        m = len(tokenize(c))
        assert meteor(c, [c]) == pytest.approx(1 - 0.5 / m**3, abs=APPROX)
        assert rouge_l(c, [c]) == pytest.approx(1.0, abs=APPROX)
        assert ter(c, [c]) == 0.0


def test_appending_junk_never_raises_precision_or_rouge():
    rng = random.Random(8)
    for _ in range(50):
        cands, refs = _random_corpus(rng, 2)
        # keep candidates longer than references so brevity stays pinned at 1
        cands = [c + " zzz zzz zzz zzz zzz zzz zzz zzz" for c in cands]
        before = bleu(cands, refs, max_n=1)
        after = bleu([c + " qqq" for c in cands], refs, max_n=1)
        assert after <= before + APPROX
        for c, r in zip(cands, refs):
            assert rouge_l(c + " qqq", r) <= rouge_l(c, r) + APPROX


# ---------------------------------------------------------------- reports


def test_metric_report_scale_spares_nist_and_cider():
    report = MetricReport(
        bleu=0.5,
        nist=4.2,
        meteor=0.4,
        rouge_l=0.6,
        cider=2.2,
        ter=0.3,
        epm=0.9,
        osf=OsfScore(1.0, 0.5, 2 / 3),
    )
    d = report.to_dict(scale=100)
    assert d["bleu"] == pytest.approx(50.0)
    assert d["ter"] == pytest.approx(30.0)
    assert d["epm"] == pytest.approx(90.0)
    assert d["osf"]["recall"] == pytest.approx(50.0)
    assert d["nist"] == pytest.approx(4.2)
    assert d["cider"] == pytest.approx(2.2)


def test_metric_report_optional_fields_default_to_none():
    d = MetricReport(0.1, 1.0, 0.2, 0.3, 2.0, 0.4).to_dict()
    assert d["epm"] is None
    assert d["osf"] is None


def test_evaluate_corpus_full_report():
    sources = [
        RecordSet((Triple("a", "p", "b"),), RecordKind.TRIPLESET),
        RecordSet((Triple("c", "q", "d"),), RecordKind.TRIPLESET),
    ]
    cands = ["a p b", "c q d"]
    refs = [[c] for c in cands]
    recon = [sources[0], RecordSet.empty(RecordKind.TRIPLESET)]  # second reconstruction failed to parse
    report = evaluate_corpus(cands, refs, sources=sources, reconstructions=recon)
    assert report.epm == pytest.approx(1.0, abs=APPROX)
    assert report.osf.precision == pytest.approx(0.5, abs=APPROX)
    assert report.ter == 0.0


def test_evaluate_corpus_fewer_reconstructions_than_candidates():
    source = RecordSet((Triple("a", "p", "b"),), RecordKind.TRIPLESET)
    with pytest.raises(MetricError, match="reconstructions misaligned"):
        evaluate_corpus(["a", "b"], [["a"], ["b"]], sources=[source, source], reconstructions=[source])


def test_evaluate_corpus_alignment_errors():
    with pytest.raises(MetricError):
        evaluate_corpus(["a"], [["a"]], sources=[])
    with pytest.raises(MetricError):
        evaluate_corpus(["a", "b"], [["a"], ["b"]], reconstructions=[None, None])
