"""Evaluation metrics: hand oracles, invariants, and report plumbing."""

import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import d2t_selftrain
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
from d2t_selftrain.records import record_key

APPROX = 1e-9


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


# ---------------------------------------------------------------- CIDEr


def test_cider_needs_two_items():
    with pytest.raises(MetricError):
        cider(["a"], [["a"]])


def test_cider_two_item_hand_oracle():
    # exact-match item scores 10, disjoint one scores 0; corpus mean 5
    cands = ["a b c d e", "x y"]
    refs = [["a b c d e"], ["p q"]]
    assert cider(cands, refs) == pytest.approx(5.0, abs=APPROX)


def _cider_oracle(cands, refs, max_n=4):
    """Independent tf-idf cosine implementation for cross-checking."""
    n_items = len(cands)
    df = Counter()
    tok = lambda s: s.split()
    for ref_list in refs:
        grams = set()
        for r in ref_list:
            t = tok(r)
            for n in range(1, max_n + 1):
                grams.update(
                    tuple(t[i : i + n]) for i in range(len(t) - n + 1)
                )
        df.update(grams)

    def vec(t, n):
        c = Counter(tuple(t[i : i + n]) for i in range(len(t) - n + 1))
        return {g: k * math.log(n_items / max(1, df[g])) for g, k in c.items()}

    total = 0.0
    for cand, ref_list in zip(cands, refs):
        item = 0.0
        for n in range(1, max_n + 1):
            cv = vec(tok(cand), n)
            for r in ref_list:
                rv = vec(tok(r), n)
                dot = sum(cv[g] * rv[g] for g in cv.keys() & rv.keys())
                nc = math.sqrt(sum(x * x for x in cv.values()))
                nr = math.sqrt(sum(x * x for x in rv.values()))
                item += dot / (nc * nr) if nc and nr else 0.0
        total += 10.0 * item / (max_n * len(ref_list))
    return total / n_items


def test_cider_matches_independent_vector_oracle():
    # lowercase space-separated corpora make both tokenizers agree
    cands = ["the cat sat on the mat", "a dog ran fast", "the cat ran"]
    refs = [
        ["the cat sat on a mat", "the cat is on the mat"],
        ["a dog ran very fast"],
        ["the dog ran", "a cat ran"],
    ]
    assert cider(cands, refs) == pytest.approx(_cider_oracle(cands, refs), abs=APPROX)


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
    # shift search may only reduce the plain edit distance rate
    rng = random.Random(5)
    vocab = ["a", "b", "c", "d"]
    for _ in range(100):
        cand = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 6)))
        ref = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 6)))
        assert ter(cand, [ref]) >= 0.0


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
    assert osf(rs, recased, strict=True).precision == 0.0


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
    recon = [sources[0], None]  # second reconstruction failed to parse
    report = evaluate_corpus(cands, refs, sources=sources, reconstructions=recon)
    assert report.epm == pytest.approx(1.0, abs=APPROX)
    assert report.osf.precision == pytest.approx(0.5, abs=APPROX)
    assert report.ter == 0.0


def test_evaluate_corpus_alignment_errors():
    with pytest.raises(MetricError):
        evaluate_corpus(["a"], [["a"]], sources=[])
    with pytest.raises(MetricError):
        evaluate_corpus(["a", "b"], [["a"], ["b"]], reconstructions=[None, None])
