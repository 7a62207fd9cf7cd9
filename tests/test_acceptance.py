"""Acceptance suite: one test per release criterion, each with a pinned
tolerance and a wall-clock budget, printing one PASS line when green.

Criteria:
  1. golden linearization strings, byte-exact, <1s
  2. 1,000 randomized linearize/delinearize round-trips, exact, <5s
  3. 500 randomized greedy-optimizer instances against a step-by-step
     reference simulation plus brute-force coverage enumeration, exact, <10s
  4. 500 randomized selection verdicts re-checked independently, exact, <5s
  5. fixed non-overlapping allocation budget (N=1000, ratio 0.3, 3 epochs),
     exact, <1s
  6. metric hand-oracles within 1e-9 and identity optima, <2s
  7. end-to-end desk run on the bundled synthetic corpus, deterministic
     rerun byte-identical, <60s
  8. non-reproducibility statement in the README plus a full pipeline run
     against wire-protocol mock servers matching the in-process run, <10s
"""

import json
import math
import random
import time
from pathlib import Path

from conftest import DART_SOURCE, E2E_SOURCE, random_record_set, rule_handles
from d2t_selftrain import (
    CaseId,
    Condition,
    Direction,
    Method,
    ModelServer,
    Mr,
    Orchestrator,
    RecordKind,
    RecordSet,
    RuleBasedD2T,
    RuleBasedT2D,
    RuleServable,
    RunConfig,
    SelfMemTuple,
    Strategy,
    Triple,
    allocate,
    bleu,
    cider,
    delinearize,
    epm,
    external_handle,
    judge_pair,
    linearize,
    meteor,
    nist,
    optimize_target,
    osf,
    rouge_l,
    synthetic_dataset,
    ter,
)

APPROX = 1e-9


def test_criterion_1_linearization_golden_strings():
    t0 = time.perf_counter()
    dart = RecordSet(
        (
            Triple("Clapham", "STARTED", "20 August"),
            Triple("Clapham", "ENDED", "20 November"),
            Triple("Clapham", "LOAN_CLUB", "Wolverhampton Wanderers"),
        ),
        RecordKind.TRIPLESET,
    )
    e2e = RecordSet(
        (
            Mr("name", "The Golden Curry"),
            Mr("food", "English"),
            Mr("customer rating", "5 out of 5"),
            Mr("area", "riverside"),
            Mr("familyFriendly", "yes"),
            Mr("near", "Café Rouge"),
        ),
        RecordKind.MR_SET,
    )
    assert linearize(dart) == DART_SOURCE
    assert linearize(e2e) == E2E_SOURCE
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 1: golden linearizations byte-exact ({elapsed:.3f}s)")


def test_criterion_2_round_trip_property():
    t0 = time.perf_counter()
    rng = random.Random(424242)
    for _ in range(1000):
        rs = random_record_set(rng)
        result = delinearize(linearize(rs), rs.kind)
        assert result.dropped == 0
        assert result.record_set == rs
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"PASS criterion 2: 1000 round-trips identical ({elapsed:.3f}s)")


# --- criterion 3: greedy optimizer vs reference simulation + brute force ---

_C3_FILLERS = ("lorem", "ipsum", "dolor", "sit", "amet", "porta")


def _c3_instance(rng):
    """Instance with single-token values that cannot collide with fillers
    or span sentence joins, so substring containment is unambiguous."""
    n_values = rng.randint(1, 5)
    values = [f"val{i}" for i in range(n_values)]
    records = [Mr("name", values[0])]
    records += [Mr(f"k{i}", values[i]) for i in range(1, n_values)]
    x = RecordSet(tuple(records), RecordKind.MR_SET)
    sentences = []
    for _ in range(rng.randint(1, 6)):
        tokens = [v for v in values if rng.random() < 0.4]
        tokens += [rng.choice(_C3_FILLERS) for _ in range(rng.randint(0, 2))]
        if not tokens:
            tokens = [rng.choice(_C3_FILLERS)]
        rng.shuffle(tokens)
        sentences.append(" ".join(tokens) + rng.choice(".!?"))
    return x, values, sentences, " ".join(sentences)


def _c3_simulate(values, sentences, y_prime):
    """Literal transcription of the greedy pseudocode: sentences outer,
    values inner, keep a sentence the first time it has a new value."""
    kept, matched = [], []
    for s in sentences:
        low = s.casefold()
        for v in values:
            if v in matched:
                continue
            if v.casefold() in low:
                matched.append(v)
                if s not in kept:
                    kept.append(s)
    if len(matched) == len(values):
        optimized = " ".join(kept)
        return optimized, optimized != y_prime, matched, kept
    return y_prime, False, matched, kept


def _c3_cover_exists(values, sentences):
    for mask in range(1, 1 << len(sentences)):
        joined = " ".join(
            s for i, s in enumerate(sentences) if mask >> i & 1
        ).casefold()
        if all(v.casefold() in joined for v in values):
            return True
    return False


def test_criterion_3_optimizer_matches_reference_and_brute_force():
    t0 = time.perf_counter()
    rng = random.Random(31337)
    n_changed = n_unchanged = n_uncoverable = 0
    for _ in range(500):
        x, values, sentences, y_prime = _c3_instance(rng)
        outcome = optimize_target(x, y_prime)
        sim_opt, sim_changed, sim_matched, sim_kept = _c3_simulate(
            values, sentences, y_prime
        )
        assert outcome.optimized == sim_opt
        assert outcome.changed == sim_changed
        assert list(outcome.matched_values) == sim_matched
        assert list(outcome.kept_sentences) == sim_kept

        exists = _c3_cover_exists(values, sentences)
        # a covering subset exists exactly when greedy covers; changed
        # additionally requires the kept join to differ from the input
        assert outcome.changed == (exists and " ".join(sim_kept) != y_prime)
        if not exists:
            assert outcome.optimized == y_prime
            n_uncoverable += 1
        elif outcome.changed:
            n_changed += 1
        else:
            n_unchanged += 1
    assert n_changed > 0 and n_unchanged > 0 and n_uncoverable > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        "PASS criterion 3: 500 optimizer instances match simulation and "
        f"brute force ({n_changed} changed/{n_unchanged} kept/"
        f"{n_uncoverable} uncoverable, {elapsed:.3f}s)"
    )


# --- criterion 4: selection verdicts re-checked independently ---


def _c4_norm(text):
    return " ".join(text.split())


def _c4_record_key(record):
    if isinstance(record, Triple):
        return (
            "t",
            _c4_norm(record.subject).casefold(),
            _c4_norm(record.predicate).casefold(),
            _c4_norm(record.object).casefold(),
        )
    return ("m", _c4_norm(record.key).casefold(), _c4_norm(record.value).casefold())


def _c4_values(x):
    out, seen = [], set()
    for r in x.records:
        fields = (r.subject, r.object) if isinstance(r, Triple) else (r.value,)
        for f in fields:
            if f.casefold() not in seen:
                seen.add(f.casefold())
                out.append(f)
    return out


def _c4_candidate_text(rng, values, y):
    style = rng.choice(("cover", "miss", "long", "equal"))
    if style == "cover":
        return "It lists " + " ".join(values) + "."
    if style == "miss":
        if len(values) > 1:
            keep = [v for i, v in enumerate(values) if i != rng.randrange(len(values))]
            return "It lists " + " ".join(keep) + "."
        return "It lists nothing here."
    if style == "long":
        return y + " Plus an additional clause that only makes it longer."
    return y


def _c4_reconstruction(rng, x):
    roll = rng.random()
    records = list(x.records)
    if roll < 0.15:
        return None
    if roll < 0.30:
        return RecordSet.empty(x.kind)
    if roll < 0.55:
        rng.shuffle(records)
        return RecordSet(tuple(records), x.kind)
    if roll < 0.70 and len(records) > 1:
        return RecordSet(tuple(records[:-1]), x.kind)
    if roll < 0.85:
        extra = (
            Triple("zinc spur", "HAS", "extra bits")
            if x.kind is RecordKind.TRIPLESET
            else Mr("extrakey", "zinc spur")
        )
        return RecordSet(tuple(records) + (extra,), x.kind)
    foreign = (
        Triple("pluto ridgeline", "ON", "far side")
        if x.kind is RecordKind.TRIPLESET
        else Mr("oddkey", "pluto ridgeline")
    )
    return RecordSet((foreign,), x.kind)


def _c4_tuple(rng):
    x = random_record_set(rng)
    values = _c4_values(x)
    y = (
        "The gold target mentions "
        + " and ".join(values)
        + " alongside a considerable amount of supplementary narrative."
    )
    if rng.random() < 0.08:
        return SelfMemTuple(
            x=x, y=y, y_prime=None, x_prime=None, y_dprime=None, x_dprime=None
        )
    y_prime = _c4_candidate_text(rng, values, y)
    x_prime = _c4_reconstruction(rng, x)
    roll = rng.random()
    if roll < 0.4:
        y_dprime, x_dprime = None, None
    elif roll < 0.6:
        y_dprime, x_dprime = y_prime, x_prime
    else:
        y_dprime = "Then noted: " + _c4_candidate_text(rng, values, y)
        x_dprime = _c4_reconstruction(rng, x)
    return SelfMemTuple(
        x=x, y=y, y_prime=y_prime, x_prime=x_prime, y_dprime=y_dprime, x_dprime=x_dprime
    )


def _c4_expected(tup):
    """Re-derive the verdict from scratch: case routing, strict length,
    value containment, and record-subset reconstruction."""
    if tup.y_prime is None:
        return False, CaseId.NONE, {Condition.MISSING_SOURCE_VALUE}
    is_case2 = tup.y_dprime is not None and tup.y_dprime != tup.y_prime
    cand_y = tup.y_dprime if is_case2 else tup.y_prime
    cand_x = tup.x_dprime if is_case2 else tup.x_prime
    failed = set()
    if not len(_c4_norm(cand_y)) < len(_c4_norm(tup.y)):
        failed.add(Condition.LEN_NOT_SHORTER)
    low = _c4_norm(cand_y).casefold()
    if not all(_c4_norm(v).casefold() in low for v in _c4_values(tup.x)):
        failed.add(Condition.MISSING_SOURCE_VALUE)
    source_keys = {_c4_record_key(r) for r in tup.x.records}
    if (
        cand_x is None
        or not cand_x.records
        or not all(_c4_record_key(r) in source_keys for r in cand_x.records)
    ):
        failed.add(Condition.NOT_SUBSET_OF_SOURCE)
    case = CaseId.CASE2 if is_case2 else CaseId.CASE1
    return not failed, case, failed


def test_criterion_4_selection_soundness():
    t0 = time.perf_counter()
    rng = random.Random(90125)
    seen_cases = set()
    seen_failures = set()
    for _ in range(500):
        tup = _c4_tuple(rng)
        verdict = judge_pair(tup)
        expected_ok, expected_case, expected_failed = _c4_expected(tup)
        assert verdict.accepted == expected_ok
        assert verdict.case_id is expected_case
        assert set(verdict.failed_conditions) == expected_failed
        if verdict.accepted:
            seen_cases.add(verdict.case_id)
        else:
            assert verdict.failed_conditions
            seen_failures.update(verdict.failed_conditions)
    # the generator must exercise both accept cases and every condition
    assert seen_cases == {CaseId.CASE1, CaseId.CASE2}
    assert seen_failures == set(Condition)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"PASS criterion 4: 500 verdicts re-checked independently ({elapsed:.3f}s)")


def test_criterion_5_data_budget():
    t0 = time.perf_counter()
    plan = allocate(1000, Strategy.FIXED_NON_OVERLAP, 0.3, 3, seed=42)
    blocks = [set(block) for block in plan.epoch_indices]
    assert [len(b) for b in blocks] == [300, 300, 300]
    for i in range(3):
        for j in range(i + 1, 3):
            assert not blocks[i] & blocks[j]
    assert len(plan.used_indices()) == 900
    assert len(plan.unused_indices()) == 100
    assert set(plan.used_indices()) | set(plan.unused_indices()) == set(range(1000))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 5: 900 used / 100 unused, blocks disjoint ({elapsed:.3f}s)")


def test_criterion_6_metric_hand_oracles():
    t0 = time.perf_counter()
    # frozen hand-computed oracle values
    assert abs(bleu(["the the the"], [["the cat"]], max_n=1) - 1 / 3) <= APPROX
    assert abs(ter("a b c", ["a b d"]) - 1 / 3) <= APPROX
    assert abs(ter("b a", ["a b"]) - 0.5) <= APPROX
    assert abs(rouge_l("a b c d", ["a c b d"]) - 0.75) <= APPROX
    assert abs(meteor("the cat", ["the cat"]) - 0.9375) <= APPROX
    two = RecordSet((Triple("A", "P", "B"), Triple("C", "Q", "D")), RecordKind.TRIPLESET)
    one = RecordSet((Triple("A", "P", "B"),), RecordKind.TRIPLESET)
    score = osf(two, one)
    assert abs(score.precision - 1.0) <= APPROX
    assert abs(score.recall - 0.5) <= APPROX
    assert abs(score.f1 - 2 / 3) <= APPROX
    four = RecordSet(
        (Triple("alpha", "P", "beta"), Triple("gamma", "Q", "delta")),
        RecordKind.TRIPLESET,
    )
    assert abs(epm(four, "only alpha appears") - 0.25) <= APPROX

    # identity inputs reach each metric's optimum
    cands = ["a b c d e", "f g h i j"]
    refs = [[c] for c in cands]
    assert abs(bleu(cands, refs) - 1.0) <= APPROX
    assert abs(cider(cands, refs) - 10.0) <= APPROX
    for c, r in zip(cands, refs):
        assert abs(rouge_l(c, r) - 1.0) <= APPROX
        assert abs(ter(c, r) - 0.0) <= APPROX
        m = len(c.split())
        assert abs(meteor(c, r) - (1.0 - 0.5 / m**3)) <= APPROX
    identity_nist = nist(cands, refs)
    assert identity_nist > 0.0
    assert identity_nist >= nist(["a b x d e", "f g h i j"], refs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    print(f"PASS criterion 6: metric hand-oracles within 1e-9 ({elapsed:.3f}s)")


def test_criterion_7_desk_run():
    t0 = time.perf_counter()

    def one_run():
        splits = synthetic_dataset()
        train, val, test = splits
        d2t, t2d = rule_handles(splits)
        cfg = RunConfig(
            method=Method.SELF_MEM_NEW_DATA,
            d2t=d2t,
            t2d=t2d,
            train=train,
            val=val,
            test=test,
            seed=42,
        )
        return Orchestrator(cfg).run()

    report = one_run()
    assert report.selection_stats["accepted_case1"] >= 1
    assert report.audit["valid"] is True
    assert report.final_metrics.epm == 1.0
    assert report.final_metrics.osf.f1 == 1.0

    rerun = one_run()
    first = json.dumps(report.to_dict(include_timing=False), sort_keys=True)
    second = json.dumps(rerun.to_dict(include_timing=False), sort_keys=True)
    assert first == second
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        "PASS criterion 7: desk run valid with "
        f"{report.selection_stats['accepted_case1']} case-1 acceptances, "
        f"EPM/OSF-F1 = 1.0, rerun byte-identical ({elapsed:.3f}s)"
    )


def test_criterion_8_exclusion_statement_and_protocol_conformance():
    t0 = time.perf_counter()
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8"
    )
    # published full-scale results are declared out of desk-scale scope
    assert "47.76" in readme
    assert "46.11" in readme
    assert "exclude" in readme.lower()

    splits = synthetic_dataset(n_train=30, n_val=6, n_test=6, seed=7)
    train, val, test = splits
    catalog = RuleBasedT2D.from_examples(
        [ex for split in splits for ex in split.examples]
    )

    def run_with(d2t, t2d):
        cfg = RunConfig(
            method=Method.SELF_MEM_NEW_DATA,
            d2t=d2t,
            t2d=t2d,
            train=train,
            val=val,
            test=test,
            epochs=2,
            seed=42,
        )
        return Orchestrator(cfg).run()

    with ModelServer(RuleServable(RuleBasedD2T())) as d2t_srv:
        with ModelServer(RuleServable(catalog)) as t2d_srv:
            d2t_handle = external_handle(Direction.D2T, d2t_srv.endpoint)
            t2d_handle = external_handle(Direction.T2D, t2d_srv.endpoint)
            try:
                wire_report = run_with(d2t_handle, t2d_handle)
            finally:
                d2t_handle.close()
                t2d_handle.close()
    local_report = run_with(*rule_handles(splits))

    assert wire_report.audit["valid"] is True
    wire = wire_report.to_dict(include_timing=False)
    local = local_report.to_dict(include_timing=False)
    wire.pop("config")
    local.pop("config")
    # identical decisions, subsets, metrics and audits over the wire
    assert json.dumps(wire, sort_keys=True) == json.dumps(local, sort_keys=True)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        "PASS criterion 8: exclusion statement present; wire-protocol run "
        f"matches in-process run ({elapsed:.3f}s)"
    )
