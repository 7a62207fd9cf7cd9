"""Orchestrator tests: method routing, epochs, checkpoints, audit, aborts."""

import hashlib
import json
from dataclasses import replace

import pytest

from conftest import rule_handles
from d2t_selftrain import (
    DataMode,
    DatasetError,
    Direction,
    EpochError,
    EpochTrace,
    Method,
    ModelServer,
    Orchestrator,
    Origin,
    Pair,
    RecordKind,
    RecordSet,
    RuleBasedD2T,
    RuleServable,
    RunConfig,
    SelfMemTuple,
    Strategy,
    Triple,
    external_handle,
    strategy_for,
    synthetic_dataset,
)
from d2t_selftrain.datasets import DatasetSplit
from d2t_selftrain.gateway import CheckpointAction

BASELINES = (Method.NO_SELF_MEM_1, Method.NO_SELF_MEM_2, Method.NO_SELF_MEM_3)


def make_config(splits, method=Method.SELF_MEM, **kwargs):
    train, val, test = splits
    d2t, t2d = rule_handles(splits)
    defaults = dict(epochs=3, ratio=0.3, seed=42)
    defaults.update(kwargs)
    return RunConfig(
        method=method, d2t=d2t, t2d=t2d, train=train, val=val, test=test, **defaults
    )


class TestMethodProperties:
    @pytest.mark.parametrize("method", list(Method))
    def test_uses_self_memory(self, method):
        assert method.uses_self_memory == (method not in BASELINES)

    def test_trains_t2d(self):
        expected = {Method.SELF_MEM_SELF_T2D, Method.SELF_MEM_NEW_DATA_SELF_T2D}
        assert {m for m in Method if m.trains_t2d} == expected

    def test_includes_new_data(self):
        expected = {Method.SELF_MEM_NEW_DATA, Method.SELF_MEM_NEW_DATA_SELF_T2D}
        assert {m for m in Method if m.includes_new_data} == expected

    @pytest.mark.parametrize(
        "method, expected",
        [
            (Method.NO_SELF_MEM_1, Strategy.FIXED_NON_OVERLAP),
            (Method.NO_SELF_MEM_2, Strategy.FIXED_REPEATED),
            (Method.NO_SELF_MEM_3, Strategy.RANDOM_PER_EPOCH),
        ],
    )
    def test_baselines_pin_strategy(self, method, expected):
        # baselines ignore the data mode entirely
        assert strategy_for(method, DataMode.FIXED) is expected
        assert strategy_for(method, DataMode.RANDOM) is expected

    @pytest.mark.parametrize(
        "method",
        [m for m in Method if m.uses_self_memory],
    )
    def test_self_memory_methods_follow_data_mode(self, method):
        assert strategy_for(method, DataMode.FIXED) is Strategy.FIXED_NON_OVERLAP
        assert strategy_for(method, DataMode.RANDOM) is Strategy.RANDOM_PER_EPOCH


class TestRunConfig:
    def test_to_dict(self, small_splits):
        cfg = make_config(small_splits, method=Method.SELF_MEM_NEW_DATA)
        d = cfg.to_dict()
        assert d["method"] == "self-mem+new-data"
        assert d["data_mode"] == "fixed"
        assert d["strategy"] == "fixed-non-overlap"
        assert d["epochs"] == 3
        assert d["ratio"] == 0.3
        assert d["seed"] == 42
        assert d["d2t"] == {"backend": "rule-based", "endpoint": None}
        assert d["t2d"] == {"backend": "rule-based", "endpoint": None}
        assert d["dataset_sizes"] == {"train": 40, "validation": 8, "test": 8}
        assert set(d["decode_limits"]) == {"max_len", "min_len"}


class TestOrchestratorSetup:
    def test_empty_split_rejected(self, small_splits):
        train, val, test = small_splits
        empty = DatasetSplit(val.name, ())
        cfg = make_config((train, empty, test))
        with pytest.raises(DatasetError, match="validation split is empty"):
            Orchestrator(cfg)

    def test_plan_matches_config(self, small_splits):
        orch = Orchestrator(make_config(small_splits))
        assert orch.plan.block_size == 12
        assert len(orch.plan.epoch_indices) == 3
        assert len(orch._reserve) == 4

    def test_bootstrap_indices_fixed_reuses_first_block(self, small_splits):
        orch = Orchestrator(make_config(small_splits))
        assert orch._bootstrap_indices() == orch.plan.epoch_indices[0]

    def test_bootstrap_indices_random_is_seeded_draw(self, small_splits):
        a = Orchestrator(make_config(small_splits, data_mode=DataMode.RANDOM))
        b = Orchestrator(make_config(small_splits, data_mode=DataMode.RANDOM))
        idx = a._bootstrap_indices()
        assert idx == b._bootstrap_indices()
        assert len(idx) == a.plan.block_size
        assert len(set(idx)) == len(idx)
        assert all(0 <= i < 40 for i in idx)

    def test_bootstrap_trains_d2t_then_swapped_t2d(self, small_splits, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "d2t_selftrain.pipeline.train_batch",
            lambda handle, pairs, tag=None: calls.append((handle, list(pairs))),
        )
        orch = Orchestrator(make_config(small_splits))
        orch.bootstrap()
        assert len(calls) == 2
        (d2t_handle, d2t_pairs), (t2d_handle, t2d_pairs) = calls
        assert d2t_handle is orch.cfg.d2t
        assert t2d_handle is orch.cfg.t2d
        gold = [orch.cfg.train.examples[i] for i in orch.plan.epoch_indices[0]]
        assert d2t_pairs == [(ex.source_text, ex.target) for ex in gold]
        assert t2d_pairs == [(ex.target, ex.source_text) for ex in gold]


class TestEpochTrace:
    def _trace(self, **kwargs):
        defaults = dict(
            epoch=0,
            tuples=(),
            verdicts=(),
            subset=(Pair("A : P : B", "A stands by B.", Origin.GOLD),),
            val_meteor_d2t=0.5,
            val_osf_precision_t2d=0.5,
        )
        defaults.update(kwargs)
        return EpochTrace(**defaults)

    def test_alignment_enforced(self):
        tup = SelfMemTuple(
            x=RecordSet((Triple("A", "P", "B"),), RecordKind.TRIPLESET),
            y="A stands by B.",
            y_prime=None,
            x_prime=None,
            y_dprime=None,
            x_dprime=None,
        )
        with pytest.raises(ValueError, match="align"):
            self._trace(tuples=(tup,), verdicts=())

    def test_digest_stable_and_sensitive(self):
        a = self._trace()
        b = self._trace()
        assert a.digest() == b.digest()
        assert a.digest() != self._trace(epoch=1).digest()

    def test_summary_keys(self):
        summary = self._trace().summary()
        assert set(summary) == {
            "epoch",
            "tuples",
            "subset_size",
            "selection",
            "val_meteor_d2t",
            "val_osf_precision_t2d",
            "checkpoint_saved_d2t",
            "checkpoint_saved_t2d",
            "digest",
        }
        assert summary["selection"]["subset_origins"]["gold"] == 1


class TestCheckpointSelection:
    def _orch_with_spy(self, small_splits, monkeypatch):
        orch = Orchestrator(make_config(small_splits))
        saved = []
        monkeypatch.setattr(
            "d2t_selftrain.pipeline.checkpoint",
            lambda handle, action, tag: saved.append((action, tag)),
        )
        return orch, saved

    def _trace(self, epoch, meteor_val, osf_val):
        return EpochTrace(
            epoch=epoch,
            tuples=(),
            verdicts=(),
            subset=(Pair("A : P : B", "A stands by B.", Origin.GOLD),),
            val_meteor_d2t=meteor_val,
            val_osf_precision_t2d=osf_val,
        )

    def test_strict_improvement_only(self, small_splits, monkeypatch):
        orch, saved = self._orch_with_spy(small_splits, monkeypatch)

        first = orch.select_checkpoint(self._trace(0, 0.30, 0.40))
        assert first.checkpoint_saved_d2t and first.checkpoint_saved_t2d
        assert orch.best.d2t_tag == "d2t-epoch1"
        assert orch.best.t2d_tag == "t2d-epoch1"

        second = orch.select_checkpoint(self._trace(1, 0.35, 0.40))
        # METEOR improved, slot precision tied: only the D2T model rolls
        assert second.checkpoint_saved_d2t and not second.checkpoint_saved_t2d
        assert orch.best.d2t_tag == "d2t-epoch2"
        assert orch.best.t2d_tag == "t2d-epoch1"

        third = orch.select_checkpoint(self._trace(2, 0.33, 0.39))
        assert not third.checkpoint_saved
        assert orch.best.meteor == 0.35
        assert orch.best.osf_precision == 0.40

        assert saved == [
            (CheckpointAction.SAVE, "d2t-epoch1"),
            (CheckpointAction.SAVE, "t2d-epoch1"),
            (CheckpointAction.SAVE, "d2t-epoch2"),
        ]

    def test_first_epoch_always_saves(self, small_splits, monkeypatch):
        orch, saved = self._orch_with_spy(small_splits, monkeypatch)
        trace = orch.select_checkpoint(self._trace(0, 0.0, 0.0))
        # no prior best: even a zero score establishes the baseline
        assert trace.checkpoint_saved_d2t and trace.checkpoint_saved_t2d
        assert len(saved) == 2


class TestFullRuns:
    def test_baseline_run(self, small_splits):
        report = Orchestrator(make_config(small_splits, method=Method.NO_SELF_MEM_1)).run()
        assert report.audit["valid"]
        check_names = [c["name"] for c in report.audit["checks"]]
        assert "data-budget-disjoint-blocks" in check_names
        assert len(report.epoch_summaries) == 3
        for summary in report.epoch_summaries:
            assert summary["tuples"] == 0
            assert summary["subset_size"] == 12
            origins = summary["selection"]["subset_origins"]
            assert origins["gold"] == 12
            assert sum(origins.values()) == 12
        assert "step0-bootstrap" not in report.timing
        assert "step6b-train-t2d" not in report.timing
        assert "step6a-train-d2t" in report.timing

    def test_repeated_baseline_audit_has_no_budget_check(self, small_splits):
        report = Orchestrator(make_config(small_splits, method=Method.NO_SELF_MEM_2)).run()
        assert report.audit["valid"]
        check_names = [c["name"] for c in report.audit["checks"]]
        assert "data-budget-disjoint-blocks" not in check_names

    def test_self_mem_run_accepts_case1_on_clean_corpus(self, small_splits):
        report = Orchestrator(make_config(small_splits, method=Method.SELF_MEM)).run()
        assert report.audit["valid"]
        stats = report.selection_stats
        # rule outputs are value-complete, shorter than the verbose gold,
        # and reconstruct exactly, so every tuple lands in case 1 unchanged
        assert stats["accepted_case1"] == 36
        assert stats["accepted_case2"] == 0
        assert stats["rejected"] == 0
        assert stats["subset_origins"]["self-memory-y-prime"] == 36
        assert stats["subset_origins"]["gold"] == 0
        assert stats["subset_origins"]["remaining"] == 0
        assert "step0-bootstrap" in report.timing
        assert "step6b-train-t2d" not in report.timing
        for key in (
            "step1-subset",
            "step2-infer-y-prime",
            "step3-infer-x-prime",
            "step4-optimize",
            "step4-infer-x-dprime",
            "step5-select",
            "step6a-train-d2t",
            "validation",
            "evaluate-test",
        ):
            assert key in report.timing

    def test_self_t2d_method_trains_t2d(self, small_splits):
        report = Orchestrator(
            make_config(small_splits, method=Method.SELF_MEM_SELF_T2D)
        ).run()
        assert report.audit["valid"]
        assert "step6b-train-t2d" in report.timing
        assert report.best["t2d_tag"] is not None

    def test_random_mode_audit_omits_budget_check(self, small_splits):
        report = Orchestrator(
            make_config(small_splits, data_mode=DataMode.RANDOM)
        ).run()
        assert report.audit["valid"]
        check_names = [c["name"] for c in report.audit["checks"]]
        assert "data-budget-disjoint-blocks" not in check_names

    def test_rerun_is_byte_identical_without_timing(self, small_splits):
        def one_run():
            cfg = make_config(small_splits, method=Method.SELF_MEM_NEW_DATA)
            return Orchestrator(cfg).run()

        a = json.dumps(one_run().to_dict(include_timing=False), sort_keys=True)
        b = json.dumps(one_run().to_dict(include_timing=False), sort_keys=True)
        assert a == b

    def test_report_shape_and_write(self, small_splits, tmp_path):
        report = Orchestrator(make_config(small_splits)).run()
        d = report.to_dict()
        assert set(d) == {
            "config",
            "epochs",
            "selection_stats",
            "final_metrics",
            "audit",
            "best",
            "timing",
        }
        assert "timing" not in report.to_dict(include_timing=False)
        out = tmp_path / "report.json"
        report.write(out)
        text = out.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert json.loads(text)["best"] == report.best

    def test_best_checkpoint_tags_recorded(self, small_splits):
        report = Orchestrator(make_config(small_splits)).run()
        # first epoch always establishes a best for both models
        assert report.best["d2t_tag"] is not None
        assert report.best["t2d_tag"] is not None
        assert report.best["meteor"] is not None
        assert report.best["osf_precision"] is not None


class TestAuditTamperDetection:
    def _run_orchestrator(self, small_splits):
        orch = Orchestrator(make_config(small_splits, method=Method.SELF_MEM))
        orch.run()
        return orch

    def test_tampered_target_text_fails_revalidation(self, small_splits):
        orch = self._run_orchestrator(small_splits)
        assert orch.audit()["valid"]
        trace = orch.traces[-1]
        pair = trace.subset[0]
        assert pair.origin is Origin.SELF_MEMORY_Y_PRIME
        tampered = (replace(pair, target_text="now something else"),) + trace.subset[1:]
        orch.traces[-1] = replace(trace, subset=tampered)
        audit = orch.audit()
        assert not audit["valid"]
        failing = {c["name"] for c in audit["checks"] if not c["passed"]}
        assert "self-memory-pairs-revalidate" in failing

    def test_truncated_subset_fails_size_check(self, small_splits):
        orch = self._run_orchestrator(small_splits)
        trace = orch.traces[0]
        orch.traces[0] = replace(trace, subset=trace.subset[:-1])
        audit = orch.audit()
        assert not audit["valid"]
        failing = {c["name"] for c in audit["checks"] if not c["passed"]}
        assert "subset-size-equals-step1-size" in failing

    def test_foreign_origin_fails_origin_check(self, small_splits):
        orch = self._run_orchestrator(small_splits)
        trace = orch.traces[0]
        pair = replace(trace.subset[0], origin=Origin.REMAINING)
        orch.traces[0] = replace(trace, subset=(pair,) + trace.subset[1:])
        audit = orch.audit()
        assert not audit["valid"]
        failing = {c["name"] for c in audit["checks"] if not c["passed"]}
        # self-mem without new data must never carry remaining-pool pairs
        assert "subset-origins-allowed" in failing


class TestAborts:
    def test_bootstrap_abort_writes_snapshot(self, small_splits, tmp_path):
        train, val, test = small_splits
        _, t2d = rule_handles(small_splits)
        snap = tmp_path / "snapshot.json"
        cfg = RunConfig(
            method=Method.SELF_MEM,
            d2t=external_handle(Direction.D2T, "127.0.0.1:9"),
            t2d=t2d,
            train=train,
            val=val,
            test=test,
            resume_path=snap,
        )
        orch = Orchestrator(cfg)
        with pytest.raises(EpochError, match="bootstrap aborted") as exc_info:
            orch.run()
        assert exc_info.value.epoch == -1
        assert orch.last_snapshot is not None
        assert orch.last_snapshot["completed_epochs"] == 0
        data = json.loads(snap.read_text(encoding="utf-8"))
        assert data["epoch"] == -1
        assert data["method"] == "self-mem"
        assert data["best"] == {
            "meteor": None,
            "osf_precision": None,
            "d2t_tag": None,
            "t2d_tag": None,
        }

    def test_epoch_abort_labels_one_based_epoch(self, small_splits):
        train, val, test = small_splits
        _, t2d = rule_handles(small_splits)
        cfg = RunConfig(
            method=Method.NO_SELF_MEM_1,
            d2t=external_handle(Direction.D2T, "127.0.0.1:9"),
            t2d=t2d,
            train=train,
            val=val,
            test=test,
        )
        orch = Orchestrator(cfg)
        # baselines skip bootstrap, so the first failure is inside epoch 1
        with pytest.raises(EpochError, match="epoch 1 aborted") as exc_info:
            orch.run()
        assert exc_info.value.epoch == 0
        assert orch.last_snapshot["completed_epochs"] == 0


def _report_digest(report) -> str:
    """sha256 of the compact, key-sorted report without timing, with server
    endpoints (ephemeral loopback ports) replaced by a placeholder."""
    data = report.to_dict(include_timing=False)
    for direction in ("d2t", "t2d"):
        if data["config"][direction]["endpoint"] is not None:
            data["config"][direction]["endpoint"] = "loopback"
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TestGoldenDigests:
    """Whole-report digests of one desk run, pinned so that a refactor of the
    gateway or the pipeline keeps reports byte-identical, in process and
    with both models behind a ModelServer."""

    METHOD = Method.SELF_MEM_NEW_DATA_SELF_T2D

    def _digest(self, splits, d2t, t2d) -> str:
        train, val, test = splits
        cfg = RunConfig(method=self.METHOD, d2t=d2t, t2d=t2d, train=train, val=val, test=test, seed=42)
        return _report_digest(Orchestrator(cfg).run())

    def test_in_process(self):
        splits = synthetic_dataset()
        digest = self._digest(splits, *rule_handles(splits))
        assert digest == "fc4d7417bad9122da7c705c8a66412a75cc7df6a5ac5e88c929d74417ea5456b"

    def test_served(self):
        splits = synthetic_dataset()
        _, t2d = rule_handles(splits)
        with ModelServer(RuleServable(RuleBasedD2T())) as d2t_srv, ModelServer(t2d.servable) as t2d_srv:
            handles = (
                external_handle(Direction.D2T, d2t_srv.endpoint),
                external_handle(Direction.T2D, t2d_srv.endpoint),
            )
            try:
                digest = self._digest(splits, *handles)
            finally:
                for h in handles:
                    h.close()
        assert digest == "f3a2dac6ff94886020acf85bbb7a7c7c54fdb2032bd4d63d200cde4e3f429caf"
