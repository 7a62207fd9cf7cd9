"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

import json
import re
from pathlib import Path

import pytest

import inputs
import run
import tracing
import workloads
from tracing import Span

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_generator_is_deterministic_per_seed(tmp_path):
    assert inputs.dart_splits(7, 20, 5, 5) == inputs.dart_splits(7, 20, 5, 5)
    assert inputs.dart_splits(7, 20, 5, 5) != inputs.dart_splits(8, 20, 5, 5)
    assert inputs.rpc_mix(7, 100) == inputs.rpc_mix(7, 100)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = inputs.write_dart_splits(tmp_path / "a", 7, 20, 5, 5)
    second = inputs.write_dart_splits(tmp_path / "b", 7, 20, 5, 5)
    for split in first:
        assert first[split].read_bytes() == second[split].read_bytes()


def test_rpc_mix_loads_only_saved_tags():
    saved = {"base"}
    for cmd, arg in inputs.rpc_mix(5, 500):
        if cmd == "save":
            saved.add(arg)
        elif cmd == "load":
            assert arg in saved
        elif cmd == "generate":
            assert len(arg) in (1, 8, 32)


def test_fillers_hold_no_catalog_value_or_predicate_phrase():
    values = [v for _, pool, _ in inputs._PREDICATES for v in pool]
    words = [*inputs._ADJECTIVES, *inputs._NOUNS, *values, *(inputs.phrase(p) for p, _, _ in inputs._PREDICATES)]
    gold_words = {w.strip(".,{}").casefold() for _, _, ts in inputs._PREDICATES for t in ts for w in t.split()}
    for filler in inputs.FILLERS:
        for w in words:
            assert not re.search(rf"(?<!\w){re.escape(w.casefold())}(?!\w)", filler.casefold()), (filler, w)
        # equal length and no word shared with a gold target: TER costs the
        # same whichever filler an item gets
        filler_words = [w.strip(".").casefold() for w in filler.split()]
        assert len(filler_words) == 7 and not gold_words & set(filler_words)


def test_percentile_needs_ten_samples_beyond():
    assert tracing.percentile(range(1, 1001), 99) == 990
    with pytest.raises(tracing.TooFewSamples):
        tracing.percentile(range(1, 1000), 99)
    assert tracing.percentile(range(1, 101), 90) == 90
    with pytest.raises(tracing.TooFewSamples):
        tracing.percentile(range(1, 101), 95)


def test_self_time_of_nested_spans():
    spans = [
        Span(1, None, "pipeline.run", 0.0, 10.0, "job0", None),
        Span(2, 1, "gateway.rpc.generate", 1.0, 4.0, "job0", None),
        Span(3, 2, "server.generate", 2.0, 3.5, "job0", None),  # server thread, child of the RPC
        Span(4, 1, "metrics.ter", 3.0, 6.0, "job0", None),  # overlaps span 2: covered once
        Span(5, 4, "stemming.stem", 4.0, 5.0, "job0", None),
        Span(6, 1, "metrics.bleu", 9.5, 11.0, "job0", None),  # clipped to the parent's end
    ]
    got = tracing.self_times(spans)
    assert got[1] == pytest.approx(10 - 5 - 0.5)
    assert got[2] == pytest.approx(3 - 1.5)
    assert got[3] == pytest.approx(1.5)
    assert got[4] == pytest.approx(2)
    assert got[5] == pytest.approx(1)
    assert got[6] == pytest.approx(1.5)


def _small_run(tmp_path, served, expected):
    name = "served-run" if served else "desk-run"
    return workloads.PipelineRun(name, 4, tmp_path, n_train=40, n_eval=10, served=served, expected=expected)


def _one_job(wl, wrap=workloads._untraced):
    state = wl.setup(wrap)
    try:
        return wl.job(state)
    finally:
        wl.teardown(state)


def test_wrong_expected_digest_counts_as_failure(tmp_path):
    wl = _small_run(tmp_path, served=False, expected=None)
    report = _one_job(wl)
    assert wl.failures(report) == ["digest", "final_metrics"]
    wl.expected = wl.outcome(report)
    assert wl.check(report) == (1, 0)
    wl.expected = {**wl.outcome(report), "digest": "0" * 64}
    assert wl.failures(report) == ["digest"]
    assert wl.check(report) == (1, 1)
    wl.expected = wl.outcome(report)
    wl.expected["final_metrics"]["cider"] += 1e-6
    assert wl.failures(report) == ["final_metrics"]


def test_served_run_takes_case2_and_tracing_changes_no_output(tmp_path):
    wl = _small_run(tmp_path, served=True, expected=None)
    plain = _one_job(wl)
    assert plain.selection_stats["accepted_case2"] > 0
    assert plain.final_metrics.epm == 1.0

    tracer = tracing.Tracer()
    originals = (tracing.pipeline.generate_batch, tracing.gateway.RuleBasedT2D.__dict__["generate"])
    tracing.install(tracer)
    try:
        tracer.run = "setup0"
        state = wl.setup(tracer.servable)
        tracer.run = "job0"
        try:
            traced = wl.job(state)
        finally:
            wl.teardown(state)
    finally:
        tracer.uninstall()
    assert (tracing.pipeline.generate_batch, tracing.gateway.RuleBasedT2D.__dict__["generate"]) == originals
    assert workloads.report_digest(traced) == workloads.report_digest(plain)

    layer = tracing.layer_metrics(tracer.spans, ["job0"], ["setup0"], [traced])
    assert layer["datasets.load_s"] > 0 and layer["gateway.catalog_build_s"] > 0
    assert layer["selection.case2"] == traced.selection_stats["accepted_case2"]
    assert layer["gateway.t2d.inputs"] > 0 and layer["server.requests"] > 0
    assert layer["gateway.rpc.overhead_us"] > 0
    assert sum(layer[f"self_s.{x}"] for x in tracing.LAYERS) == pytest.approx(
        sum(s.end - s.start for s in tracer.spans if s.name == "pipeline.run"))


def test_metric_names_match_benchmark_json(tmp_path):
    wl = workloads.make("gateway-rpc", 1, tmp_path, workloads.load_expected())
    metrics, attempted, failed, _ = run.measure(wl, 0)
    assert failed == 0 and attempted == wl.PASS_REQUESTS
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {k: u for k, (_, u) in metrics.items()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_baseline_says_what_every_layer_metric_moves():
    baseline = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    covered = [m for group in baseline["expected_moves"] for m in group["metrics"]]
    assert sorted(covered) == sorted(tracing.PER_LAYER)
    for group in baseline["expected_moves"]:
        assert set(group["on"]) | set(group["unchanged_on"]) <= set(workloads.WORKLOADS)
