"""Elite-pair judging, subset assembly, and epoch allocation."""

import hashlib
import random

import pytest

from d2t_selftrain import (
    AllocationError,
    CaseId,
    Condition,
    EmptySubsetError,
    Example,
    Origin,
    RecordKind,
    RecordSet,
    SelfMemTuple,
    Strategy,
    Triple,
    allocate,
    build_subset,
    derive_seed,
    judge_pair,
    linearize,
)
from d2t_selftrain.selection import block_size

X = RecordSet((Triple("A", "P", "B"),), RecordKind.TRIPLESET)
Y = "A is related to B somehow."


def tup(y_prime, x_prime=X, y_dprime=None, x_dprime=None, x=X, y=Y):
    return SelfMemTuple(
        x=x, y=y, y_prime=y_prime, x_prime=x_prime, y_dprime=y_dprime, x_dprime=x_dprime
    )


def test_case1_accept():
    v = judge_pair(tup("A P B.", y_dprime="A P B."))
    assert v.accepted
    assert v.case_id is CaseId.CASE1
    assert v.failed_conditions == ()


def test_foreign_reconstruction_rejected():
    bad = RecordSet((Triple("A", "P", "C"),), RecordKind.TRIPLESET)
    v = judge_pair(tup("A P B.", x_prime=bad))
    assert not v.accepted
    assert v.failed_conditions == (Condition.NOT_SUBSET_OF_SOURCE,)


def test_longer_candidate_rejected():
    v = judge_pair(tup("A P B, and quite a lot of extra words besides."))
    assert not v.accepted
    assert v.failed_conditions == (Condition.LEN_NOT_SHORTER,)


def test_missing_value_rejected():
    v = judge_pair(tup("A P."))
    assert not v.accepted
    assert v.failed_conditions == (Condition.MISSING_SOURCE_VALUE,)


def test_missing_generation_rejected_without_case():
    v = judge_pair(tup(None))
    assert not v.accepted
    assert v.case_id is CaseId.NONE
    assert Condition.MISSING_SOURCE_VALUE in v.failed_conditions


@pytest.mark.parametrize("x_prime", [None, RecordSet.empty(RecordKind.TRIPLESET)])
def test_unparseable_reconstruction_fails_subset_condition(x_prime):
    v = judge_pair(tup("A P B.", x_prime=x_prime))
    assert not v.accepted
    assert v.failed_conditions == (Condition.NOT_SUBSET_OF_SOURCE,)


def test_strictly_smaller_reconstruction_still_passes():
    two = RecordSet(
        (Triple("A", "P", "B"), Triple("A", "Q", "C")), RecordKind.TRIPLESET
    )
    one = RecordSet((Triple("A", "Q", "C"),), RecordKind.TRIPLESET)
    v = judge_pair(tup("A P B C.", x_prime=one, x=two, y="A is related to B and to C."))
    assert v.accepted  # subset, not equality: precision 1.0 suffices


def test_optimized_target_judged_as_case2():
    # y' fails the length condition; the optimized y'' passes all three
    v = judge_pair(
        tup(
            "A is definitely related to B in many words indeed.",
            x_prime=None,
            y_dprime="A P B.",
            x_dprime=X,
        )
    )
    assert v.accepted
    assert v.case_id is CaseId.CASE2


def test_unchanged_optimization_judged_as_case1():
    # y'' == y' means Case 1 credentials (x') decide, not x''
    bad = RecordSet((Triple("Z", "Z", "Z"),), RecordKind.TRIPLESET)
    v = judge_pair(tup("A P B.", y_dprime="A P B.", x_dprime=bad))
    assert v.accepted
    assert v.case_id is CaseId.CASE1


def test_token_length_mode():
    x = RecordSet((Triple("a", "p", "b"),), RecordKind.TRIPLESET)
    y = "a widewideword b extensions"  # 3+ tokens, 27 chars
    cand = "a b c d e"  # 9 chars but 5 tokens
    assert judge_pair(tup(cand, x_prime=x, x=x, y=y)).accepted


def test_strict_mode_respects_case():
    v = judge_pair(tup("a p b."))
    assert v.accepted


def test_verdict_to_dict():
    d = judge_pair(tup(None)).to_dict()
    assert d == {
        "accepted": False,
        "case_id": "none",
        "failed_conditions": ["missing-source-value"],
    }


# ---------------------------------------------------------------- subsets


def make_example(i):
    rs = RecordSet((Triple(f"S{i}", "P", f"O{i}"),), RecordKind.TRIPLESET)
    return Example(rs, linearize(rs), f"S{i} is famously connected to O{i} somehow.")


def accepted_tuple(ex):
    y_prime = f"{ex.source.records[0].subject} p {ex.source.records[0].object}."
    t = SelfMemTuple(x=ex.source, y=ex.target, y_prime=y_prime, x_prime=ex.source)
    v = judge_pair(t)
    assert v.accepted
    return t, v


def rejected_tuple(ex):
    t = SelfMemTuple(x=ex.source, y=ex.target)
    return t, judge_pair(t)


def test_build_subset_mixes_elite_and_remaining():
    gold = [make_example(i) for i in range(10)]
    tuples, verdicts = [], []
    for i, ex in enumerate(gold):
        t, v = accepted_tuple(ex) if i < 4 else rejected_tuple(ex)
        tuples.append(t)
        verdicts.append(v)
    subset = build_subset(gold, tuples, verdicts, 10, seed=1, reserve=[])
    assert len(subset) == 10
    origins = [p.origin for p in subset]
    assert origins.count(Origin.SELF_MEMORY_Y_PRIME) == 4
    assert origins.count(Origin.REMAINING) == 6
    # elite pairs carry the generated target, remaining pairs the gold one
    assert subset[0].target_text == tuples[0].y_prime
    assert subset[4].target_text == gold[4].target


def test_build_subset_no_acceptances_returns_gold():
    gold = [make_example(i) for i in range(10)]
    pairs = [rejected_tuple(ex) for ex in gold]
    subset = build_subset(
        gold, [t for t, _ in pairs], [v for _, v in pairs], 10, seed=1, reserve=[]
    )
    assert [(p.source_text, p.target_text) for p in subset] == [
        (ex.source_text, ex.target) for ex in gold
    ]


def test_build_subset_dedupes_on_source_and_target():
    ex = make_example(0)
    # accepted generation that reproduced the gold target verbatim is a dup
    t = SelfMemTuple(x=ex.source, y=ex.target + " extra", y_prime=ex.target, x_prime=ex.source)
    v = judge_pair(t)
    assert v.accepted
    rt, rv = rejected_tuple(ex)
    subset = build_subset([ex, ex], [t, rt], [v, rv], 2, seed=3, reserve=[make_example(1)])
    keys = [p.key() for p in subset]
    assert len(keys) == len(set(keys)) == 2


def test_build_subset_downsamples_with_seed():
    gold = [make_example(i) for i in range(10)]
    pairs = [rejected_tuple(ex) for ex in gold]
    args = (gold, [t for t, _ in pairs], [v for _, v in pairs])
    a = build_subset(*args, 5, seed=7, reserve=[])
    b = build_subset(*args, 5, seed=7, reserve=[])
    assert a == b
    assert len(a) == 5
    # down-sampling preserves the union order
    all_keys = [(ex.source_text, ex.target) for ex in gold]
    positions = [all_keys.index(p.key()) for p in a]
    assert positions == sorted(positions)


def test_build_subset_tops_up_from_reserve():
    gold = [make_example(i) for i in range(4)]
    tuples, verdicts = [], []
    for i, ex in enumerate(gold):
        t, v = accepted_tuple(ex) if i < 2 else rejected_tuple(ex)
        tuples.append(t)
        verdicts.append(v)
    reserve = [make_example(i) for i in range(100, 110)]
    subset = build_subset(
        gold, tuples, verdicts, 6, seed=5, reserve=reserve, include_remaining=False
    )
    assert len(subset) == 6
    origins = [p.origin for p in subset]
    assert origins.count(Origin.SELF_MEMORY_Y_PRIME) == 2
    assert origins.count(Origin.GOLD) == 4
    keys = [p.key() for p in subset]
    assert len(keys) == len(set(keys))


def test_build_subset_reserve_exhaustion_is_not_an_error():
    gold = [make_example(0)]
    t, v = accepted_tuple(gold[0])
    subset = build_subset(gold, [t], [v], 5, seed=1, reserve=[make_example(1)])
    assert len(subset) == 2  # best effort below target_size


def test_build_subset_empty_everything_raises():
    gold = [make_example(0)]
    t, v = rejected_tuple(gold[0])
    with pytest.raises(EmptySubsetError):
        build_subset(gold, [t], [v], 3, seed=1, reserve=[], include_remaining=False)


def test_build_subset_validates_arguments():
    gold = [make_example(0)]
    t, v = rejected_tuple(gold[0])
    with pytest.raises(ValueError):
        build_subset(gold, [], [v], 3, seed=1, reserve=[])
    with pytest.raises(ValueError):
        build_subset(gold, [t], [v], 0, seed=1, reserve=[])


# ---------------------------------------------------------------- allocation


def test_allocate_non_overlap_partitions():
    plan = allocate(10, Strategy.FIXED_NON_OVERLAP, 0.3, 3, seed=42)
    assert plan.block_size == 3
    blocks = [set(b) for b in plan.epoch_indices]
    assert all(len(b) == 3 for b in blocks)
    assert len(blocks[0] | blocks[1] | blocks[2]) == 9
    assert len(plan.unused_indices()) == 1


def test_allocate_repeated_reuses_first_block():
    plan = allocate(10, Strategy.FIXED_REPEATED, 0.3, 3, seed=42)
    assert plan.epoch_indices[0] == plan.epoch_indices[1] == plan.epoch_indices[2]
    shuffled = allocate(10, Strategy.FIXED_NON_OVERLAP, 0.3, 3, seed=42)
    assert plan.epoch_indices[0] == shuffled.epoch_indices[0]


def test_allocate_full_ratio_covers_everything():
    for strategy in Strategy:
        plan = allocate(10, strategy, 1.0, 1, seed=0)
        assert plan.used_indices() == set(range(10))


def test_allocate_random_per_epoch():
    plan = allocate(20, Strategy.RANDOM_PER_EPOCH, 0.5, 4, seed=9)
    for block in plan.epoch_indices:
        assert len(block) == 10
        assert len(set(block)) == 10
    again = allocate(20, Strategy.RANDOM_PER_EPOCH, 0.5, 4, seed=9)
    assert plan == again
    # independent draws: with 4 epochs of 10-of-20 a repeat of all blocks
    # under a different seed is vanishingly unlikely
    other = allocate(20, Strategy.RANDOM_PER_EPOCH, 0.5, 4, seed=10)
    assert plan.epoch_indices != other.epoch_indices


@pytest.mark.parametrize(
    "n,strategy,ratio,epochs",
    [
        (10, Strategy.FIXED_NON_OVERLAP, 0.0, 3),
        (10, Strategy.FIXED_NON_OVERLAP, 1.1, 3),
        (10, Strategy.FIXED_NON_OVERLAP, 0.3, 0),
        (2, Strategy.FIXED_NON_OVERLAP, 0.3, 3),
        (10, Strategy.FIXED_NON_OVERLAP, 0.5, 3),  # 3 disjoint blocks of 5 > 10
        (10, Strategy.FIXED_REPEATED, 0.05, 1),  # empty block
    ],
)
def test_allocate_rejects_infeasible_plans(n, strategy, ratio, epochs):
    with pytest.raises(AllocationError):
        allocate(n, strategy, ratio, epochs, seed=1)


def test_block_size_is_float_dust_proof():
    assert block_size(100, 0.29) == 29
    assert block_size(1000, 0.3) == 300
    assert block_size(10, 0.35) == 3


def test_derive_seed_matches_independent_recomputation():
    expected = int.from_bytes(hashlib.sha256(b"42:top-up").digest()[:8], "big")
    assert derive_seed(42, "top-up") == expected
    assert derive_seed(42, "a") != derive_seed(42, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_subset_plan_to_dict():
    plan = allocate(10, Strategy.FIXED_NON_OVERLAP, 0.3, 2, seed=5)
    d = plan.to_dict()
    assert d["strategy"] == "fixed-non-overlap"
    assert d["n_examples"] == 10
    assert len(d["epoch_indices"]) == 2


def test_randomized_judgements_are_deterministic():
    rng = random.Random(0)
    for _ in range(50):
        y_prime = " ".join(rng.choice(["A", "B", "p", "quite"]) for _ in range(rng.randint(1, 8))) + "."
        t = tup(y_prime)
        assert judge_pair(t) == judge_pair(t)
