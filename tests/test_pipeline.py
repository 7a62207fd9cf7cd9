"""Orchestrator tests: method routing, epochs, checkpoints, audit, aborts."""

import gc
import hashlib
import itertools
import json
import time
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import linear_texts, rule_handles
from d2t_selftrain import (
    DataMode,
    DatasetError,
    DelinearizeError,
    Direction,
    EmptySubsetError,
    EpochError,
    EpochTrace,
    Example,
    GatewayError,
    Method,
    ModelServer,
    ModelHandle,
    Mr,
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
    delinearize,
    external_handle,
    linearize,
    strategy_for,
    synthetic_dataset,
)
from d2t_selftrain import gateway, pipeline, records, selection
from d2t_selftrain.datasets import DatasetSplit
from d2t_selftrain.gateway import CheckpointAction

BASELINES = (Method.NO_SELF_MEM_1, Method.NO_SELF_MEM_2, Method.NO_SELF_MEM_3)


class _LoadFails(RuleServable):
    """Rule servable whose checkpoints cannot be loaded back."""

    def load(self, tag):
        raise GatewayError(f"cannot load {tag!r}")


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

    def test_one_example_test_split_rejected_before_training(self, monkeypatch):
        # CIDEr needs two test items; a 1-item split must fail before any epoch
        train, val, test = synthetic_dataset(30, 6, 6)
        one = DatasetSplit(test.name, test.examples[:1])
        monkeypatch.setattr(
            "d2t_selftrain.pipeline.train_batch",
            lambda *a, **k: pytest.fail("trained before the test split was checked"),
        )
        cfg = make_config((train, val, one), epochs=2)
        with pytest.raises(DatasetError, match="test split needs at least 2 examples"):
            Orchestrator(cfg).run()

    @pytest.mark.parametrize("mixed", range(3), ids=["train", "validation", "test"])
    def test_mixed_record_kinds_rejected_before_training(self, monkeypatch, mixed):
        # refused before any training: T2D output is parsed as the first
        # train example's kind, so a mix would fail mid-run
        splits = list(synthetic_dataset(30, 6, 6))
        d2t, t2d = rule_handles(splits)
        mr = RecordSet((Mr("name", "The Inn"), Mr("food", "English")), RecordKind.MR_SET)
        split = splits[mixed]
        tail = Example(mr, linearize(mr), "The Inn serves English food.")
        splits[mixed] = DatasetSplit(split.name, split.examples[:-1] + (tail,))
        monkeypatch.setattr(
            "d2t_selftrain.pipeline.train_batch",
            lambda *a, **k: pytest.fail("trained before the record kinds were checked"),
        )
        train, val, test = splits
        cfg = RunConfig(method=Method.SELF_MEM, d2t=d2t, t2d=t2d, train=train, val=val, test=test)
        at = f"{split.name.value} example {len(split) - 1} is a mrset"
        with pytest.raises(DatasetError, match=at):
            Orchestrator(cfg).run()

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
        assert orch.state.best["d2t_tag"] == "d2t-epoch1"
        assert orch.state.best["t2d_tag"] == "t2d-epoch1"

        second = orch.select_checkpoint(self._trace(1, 0.35, 0.40))
        # METEOR improved, slot precision tied: only the D2T model rolls
        assert second.checkpoint_saved_d2t and not second.checkpoint_saved_t2d
        assert orch.state.best["d2t_tag"] == "d2t-epoch2"
        assert orch.state.best["t2d_tag"] == "t2d-epoch1"

        third = orch.select_checkpoint(self._trace(2, 0.33, 0.39))
        assert not third.checkpoint_saved_d2t and not third.checkpoint_saved_t2d
        assert orch.state.best["meteor"] == 0.35
        assert orch.state.best["osf_precision"] == 0.40

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

    def test_audit_is_timed_apart(self, small_splits, monkeypatch):
        # the re-judging of each epoch's self-memory pairs runs under "audit"
        def slow_judge(tup):
            time.sleep(0.001)
            return selection.judge_pair(tup)

        monkeypatch.setattr(pipeline, "judge_pair", slow_judge)
        report = Orchestrator(make_config(small_splits, method=Method.SELF_MEM)).run()
        assert report.audit["checks"][0]["detail"] == "36 pairs re-judged"
        assert report.timing["audit"] >= 36 * 0.001
        assert "audit" in Orchestrator(make_config(small_splits, method=Method.NO_SELF_MEM_1)).run().timing

    def test_timing_covers_the_run(self):
        # every stage of run(), the epoch summaries and digests too, is under
        # a timing key; the best of three runs damps a busy host
        splits = synthetic_dataset(300, 30, 30, seed=1)
        shares = []
        for _ in range(3):
            orch = Orchestrator(make_config(splits, method=Method.SELF_MEM))
            t0 = time.perf_counter()
            report = orch.run()
            shares.append(sum(report.timing.values()) / (time.perf_counter() - t0))
        assert "digest" in report.timing
        assert max(shares) >= 0.93

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


def _tamper_subset(monkeypatch, epoch, edit):
    """Route the subset `build_subset` assembles in `epoch` (0-based) through
    `edit(subset, tuples)`: a fault enters where the subset is made, before
    the epoch is audited as it ends."""
    epochs = itertools.count()

    def tampered(gold, tuples, *args, **kwargs):
        subset = selection.build_subset(gold, tuples, *args, **kwargs)
        return edit(subset, tuples) if next(epochs) == epoch else subset

    monkeypatch.setattr(pipeline, "build_subset", tampered)


@pytest.mark.hash_seeds
class TestAuditTamperDetection:
    def _run_orchestrator(self, small_splits):
        orch = Orchestrator(make_config(small_splits, method=Method.SELF_MEM))
        orch.run()
        return orch

    def test_tampered_target_text_fails_revalidation(self, small_splits, monkeypatch):
        assert self._run_orchestrator(small_splits).audit()["valid"]

        def retarget_first_pair(subset, tuples):
            pair = subset[0]
            assert pair.origin is Origin.SELF_MEMORY_Y_PRIME
            return [replace(pair, target_text="now something else")] + subset[1:]

        _tamper_subset(monkeypatch, 2, retarget_first_pair)
        audit = self._run_orchestrator(small_splits).audit()
        assert not audit["valid"]
        failing = {c["name"] for c in audit["checks"] if not c["passed"]}
        assert "self-memory-pairs-revalidate" in failing

    def test_truncated_subset_fails_size_check(self, small_splits, monkeypatch):
        _tamper_subset(monkeypatch, 0, lambda subset, tuples: subset[:-1])
        audit = self._run_orchestrator(small_splits).audit()
        assert not audit["valid"]
        failing = {c["name"] for c in audit["checks"] if not c["passed"]}
        assert "subset-size-equals-step1-size" in failing

    def test_foreign_origin_fails_origin_check(self, small_splits, monkeypatch):
        def relabel_first_pair(subset, tuples):
            return [replace(subset[0], origin=Origin.REMAINING)] + subset[1:]

        _tamper_subset(monkeypatch, 0, relabel_first_pair)
        audit = self._run_orchestrator(small_splits).audit()
        assert not audit["valid"]
        failing = {c["name"] for c in audit["checks"] if not c["passed"]}
        # self-mem without new data must never carry remaining-pool pairs
        assert "subset-origins-allowed" in failing

    def _assert_stale_pairs(self, small_splits, monkeypatch, edit):
        _tamper_subset(monkeypatch, 2, edit)
        audit = self._run_orchestrator(small_splits).audit()
        check = audit["checks"][0]
        assert check["name"] == "self-memory-pairs-revalidate"
        assert not check["passed"] and not audit["valid"]
        assert "re-judge rejects" in check["detail"]

    @staticmethod
    def _self_memory_positions(subset):
        found = [k for k, p in enumerate(subset) if p.origin is Origin.SELF_MEMORY_Y_PRIME]
        assert len(found) >= 2
        return found

    def test_swapped_sources_fail_revalidation(self, small_splits, monkeypatch):
        # each pair's source is still a source of the block, but not its own
        def swap_sources(subset, tuples):
            a, b = self._self_memory_positions(subset)[:2]
            subset = list(subset)
            subset[a], subset[b] = (
                replace(subset[a], source_text=subset[b].source_text),
                replace(subset[b], source_text=subset[a].source_text),
            )
            return subset

        self._assert_stale_pairs(small_splits, monkeypatch, swap_sources)

    def test_source_from_outside_the_block_fails_revalidation(self, small_splits, monkeypatch):
        train = small_splits[0].examples
        block = Orchestrator(make_config(small_splits)).plan.epoch_indices[2]
        in_block = {train[i].source_text for i in block}
        outside = next(ex.source_text for ex in train if ex.source_text not in in_block)

        def move_first_pair_out(subset, tuples):
            a = self._self_memory_positions(subset)[0]
            return subset[:a] + [replace(subset[a], source_text=outside)] + subset[a + 1 :]

        self._assert_stale_pairs(small_splits, monkeypatch, move_first_pair_out)

    def test_copied_pair_fails_revalidation(self, small_splits, monkeypatch):
        # the copy's tuple is already matched by the pair it copies
        def copy_first_pair(subset, tuples):
            a, b = self._self_memory_positions(subset)[:2]
            return subset[:b] + [subset[a]] + subset[b + 1 :]

        self._assert_stale_pairs(small_splits, monkeypatch, copy_first_pair)


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
        data = json.loads(snap.read_text(encoding="utf-8"))
        assert data["epoch"] == -1
        assert data["config"] == cfg.to_dict()
        assert data["config"]["method"] == "self-mem"
        assert data["state"]["epochs"] == []
        assert data["state"]["best"] == {
            "meteor": None,
            "osf_precision": None,
            "d2t_tag": None,
            "t2d_tag": None,
        }

    def test_epoch_abort_labels_one_based_epoch(self, small_splits, tmp_path):
        train, val, test = small_splits
        _, t2d = rule_handles(small_splits)
        snap = tmp_path / "snapshot.json"
        cfg = RunConfig(
            method=Method.NO_SELF_MEM_1,
            d2t=external_handle(Direction.D2T, "127.0.0.1:9"),
            t2d=t2d,
            train=train,
            val=val,
            test=test,
            resume_path=snap,
        )
        orch = Orchestrator(cfg)
        # baselines skip bootstrap, so the first failure is inside epoch 1
        with pytest.raises(EpochError, match="epoch 1 aborted") as exc_info:
            orch.run()
        assert exc_info.value.epoch == 0
        assert orch.state.epochs == []
        data = json.loads(snap.read_text(encoding="utf-8"))
        assert data["epoch"] == 0
        assert data["state"]["epochs"] == []

    def test_test_evaluation_abort_is_not_labelled_as_an_epoch(self, small_splits, tmp_path):
        train, val, test = small_splits
        _, t2d = rule_handles(small_splits)
        snap = tmp_path / "snapshot.json"
        cfg = RunConfig(
            method=Method.SELF_MEM,
            d2t=ModelHandle(Direction.D2T, _LoadFails(RuleBasedD2T())),
            t2d=t2d,
            train=train,
            val=val,
            test=test,
            epochs=2,
            resume_path=snap,
        )
        orch = Orchestrator(cfg)
        # both epochs finish; loading the best D2T checkpoint for the test split fails
        with pytest.raises(EpochError, match="^test evaluation aborted: cannot load 'd2t-epoch1'") as exc_info:
            orch.run()
        assert exc_info.value.epoch == 2
        assert len(orch.state.epochs) == 2
        data = json.loads(snap.read_text(encoding="utf-8"))
        assert data["epoch"] == 2
        assert data["reason"] == "cannot load 'd2t-epoch1'"
        assert data["state"]["epochs"] == orch.state.epochs
        assert data["state"]["best"]["d2t_tag"] == "d2t-epoch1"


    def test_in_process_contract_breach_ends_in_epoch_error_with_snapshot(self, small_splits, tmp_path):
        class AnswersNone(RuleServable):
            def generate(self, inputs, max_len, min_len):
                return [None] * len(inputs)

        train, val, test = small_splits
        _, t2d = rule_handles(small_splits)
        snap = tmp_path / "snapshot.json"
        cfg = RunConfig(
            method=Method.SELF_MEM,
            d2t=ModelHandle(Direction.D2T, AnswersNone(RuleBasedD2T())),
            t2d=t2d,
            train=train,
            val=val,
            test=test,
            resume_path=snap,
        )
        orch = Orchestrator(cfg)
        # bootstrap trains; the first epoch's y' inference breaks the contract
        with pytest.raises(EpochError, match="^epoch 1 aborted: generate answer is not a list of strings") as exc_info:
            orch.run()
        assert isinstance(exc_info.value.__cause__, GatewayError)
        assert exc_info.value.epoch == 0
        data = json.loads(snap.read_text(encoding="utf-8"))
        assert data["epoch"] == 0
        assert data["state"]["epochs"] == []
        assert data["reason"] == str(exc_info.value.__cause__)

    @pytest.mark.parametrize("served", [False, True], ids=["in-process", "served"])
    def test_lone_surrogate_answer_ends_in_epoch_error_with_snapshot(self, small_splits, tmp_path, monkeypatch, served):
        class AppendsSurrogate(RuleServable):
            def generate(self, inputs, max_len, min_len):
                return [y + " \ud800" for y in super().generate(inputs, max_len, min_len)]

        # a server whose encoder escapes non-ASCII text, as JSON encoders may,
        # sends the lone surrogate as a "\ud800" escape
        monkeypatch.setattr(gateway, "_ENCODER", json.JSONEncoder(allow_nan=False))
        train, val, test = small_splits
        _, t2d = rule_handles(small_splits)
        snap = tmp_path / "snapshot.json"
        servable = AppendsSurrogate(RuleBasedD2T())
        with ModelServer(servable) as d2t_srv:
            d2t = external_handle(Direction.D2T, d2t_srv.endpoint) if served else ModelHandle(Direction.D2T, servable)
            cfg = RunConfig(
                method=Method.SELF_MEM,
                d2t=d2t,
                t2d=t2d,
                train=train,
                val=val,
                test=test,
                resume_path=snap,
            )
            orch = Orchestrator(cfg)
            try:
                # bootstrap trains; the first epoch's y' is refused before
                # it reaches the T2D, a digest or the snapshot
                want = "^epoch 1 aborted: generate answer holds a lone surrogate"
                with pytest.raises(EpochError, match=want) as exc_info:
                    orch.run()
            finally:
                d2t.close()
        assert isinstance(exc_info.value.__cause__, GatewayError)
        assert exc_info.value.epoch == 0
        data = json.loads(snap.read_text(encoding="utf-8"))
        assert data["epoch"] == 0
        assert data["reason"] == str(exc_info.value.__cause__)
        assert data["state"]["epochs"] == []

    @pytest.mark.parametrize("served", [False, True], ids=["in-process", "served"])
    @pytest.mark.parametrize(
        "cmd, direction, label, epoch",
        [
            ("generate", Direction.D2T, "epoch 1", 0),
            ("train", Direction.D2T, "bootstrap", -1),
            # the D2T save goes through first; the best checkpoints stay unset
            ("save", Direction.T2D, "epoch 1", 0),
        ],
        ids=["generate", "train", "save"],
    )
    def test_a_servable_that_raises_ends_in_epoch_error_with_snapshot(self, small_splits, tmp_path, served, cmd, direction, label, epoch):
        train, val, test = small_splits
        handles = dict(zip((Direction.D2T, Direction.T2D), rule_handles(small_splits)))
        servable = handles[direction].servable

        def crash(*args, **kwargs):
            raise RuntimeError("model crashed")

        setattr(servable, cmd, crash)
        snap = tmp_path / "snapshot.json"
        with ModelServer(servable) as srv:
            if served:
                handles[direction] = external_handle(direction, srv.endpoint)
            cfg = RunConfig(
                method=Method.SELF_MEM,
                d2t=handles[Direction.D2T],
                t2d=handles[Direction.T2D],
                train=train,
                val=val,
                test=test,
                resume_path=snap,
            )
            try:
                with pytest.raises(EpochError, match=f"^{label} aborted: ") as exc_info:
                    Orchestrator(cfg).run()
            finally:
                handles[direction].close()
        cause = exc_info.value.__cause__
        assert isinstance(cause, GatewayError)
        if served:
            assert str(cause) == f"server refused {cmd!r}: model crashed"
        else:
            where = f"{direction.value} at in process"
            assert str(cause) == f"{cmd} raised RuntimeError ({where}): model crashed"
            assert isinstance(cause.__cause__, RuntimeError)
        assert exc_info.value.epoch == epoch
        data = json.loads(snap.read_text(encoding="utf-8"))
        assert data["epoch"] == epoch
        assert data["reason"] == str(cause)
        assert data["state"]["epochs"] == []
        assert set(data["state"]["best"].values()) == {None}

    def test_empty_subset_ends_in_epoch_error_with_snapshot(self, tmp_path):
        class AnswersX(RuleServable):
            def generate(self, inputs, max_len, min_len):
                return ["x."] * len(inputs)

        # no tuple is accepted, and a 0.34 ratio leaves no reserve to top up from
        splits = synthetic_dataset(30, 6, 6, seed=1)
        train, val, test = splits
        _, t2d = rule_handles(splits)
        snap = tmp_path / "snapshot.json"
        cfg = RunConfig(
            method=Method.SELF_MEM,
            d2t=ModelHandle(Direction.D2T, AnswersX(RuleBasedD2T())),
            t2d=t2d,
            train=train,
            val=val,
            test=test,
            ratio=0.34,
            resume_path=snap,
        )
        with pytest.raises(EpochError, match="^epoch 1 aborted: no accepted pairs") as exc_info:
            Orchestrator(cfg).run()
        assert isinstance(exc_info.value.__cause__, EmptySubsetError)
        assert exc_info.value.epoch == 0
        data = json.loads(snap.read_text(encoding="utf-8"))
        assert data["epoch"] == 0
        assert data["reason"] == str(exc_info.value.__cause__)
        assert data["state"]["epochs"] == []

    @pytest.mark.parametrize("resume", ["written", "unwritable", "unset"])
    def test_an_interrupt_keeps_the_closed_epochs_in_the_snapshot(self, small_splits, tmp_path, resume):
        class InterruptsEpoch2(RuleServable):
            calls = 0

            def train(self, pairs):
                # bootstrap trains first, then epoch 1: the third call is epoch 2's
                self.calls += 1
                if self.calls == 3:
                    raise KeyboardInterrupt
                return super().train(pairs)

        snap = {"written": tmp_path / "snapshot.json", "unwritable": tmp_path / "missing" / "snapshot.json", "unset": None}[resume]
        cfg = replace(
            make_config(small_splits, resume_path=snap), d2t=ModelHandle(Direction.D2T, InterruptsEpoch2(RuleBasedD2T()))
        )
        orch = Orchestrator(cfg)
        want = "^interrupted during epoch 2" + ("; snapshot not written: " if resume == "unwritable" else "$")
        with pytest.raises(KeyboardInterrupt, match=want) as exc_info:
            orch.run()
        assert type(exc_info.value.__cause__) is KeyboardInterrupt
        # epoch 1 closed as in a run that goes on
        assert orch.state.epochs == [Orchestrator(make_config(small_splits)).run().epoch_summaries[0]]
        if resume == "written":
            data = json.loads(snap.read_text(encoding="utf-8"))
            assert (data["epoch"], data["reason"]) == (1, "interrupted")
            assert data["config"] == cfg.to_dict()
            assert data["state"]["epochs"] == orch.state.epochs
            assert data["state"]["best"]["d2t_tag"] == "d2t-epoch1"
        else:
            assert not any(tmp_path.iterdir())


def _report_digest(report) -> str:
    """sha256 of the compact, key-sorted report without timing, with server
    endpoints (ephemeral loopback ports) replaced by a placeholder."""
    data = report.to_dict(include_timing=False)
    for direction in ("d2t", "t2d"):
        if data["config"][direction]["endpoint"] is not None:
            data["config"][direction]["endpoint"] = "loopback"
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.mark.hash_seeds
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


def _top_up_config(**kwargs):
    """self-mem on a corpus whose gold targets are mostly "x.": shorter than
    any generation, so most tuples are rejected and each subset is topped up
    from the 10 unused examples."""
    train, val, test = synthetic_dataset(100, 20, 20, seed=3)
    examples = tuple(ex if k % 5 == 0 else replace(ex, target="x.") for k, ex in enumerate(train.examples))
    splits = (DatasetSplit(train.name, examples), val, test)
    return make_config(splits, method=Method.SELF_MEM, seed=3, **kwargs)


def test_budget_detail_counts_reserve_top_ups():
    report = Orchestrator(_top_up_config()).run()
    top_ups = report.selection_stats["subset_origins"]["gold"]
    assert top_ups == 30
    budget = next(c for c in report.audit["checks"] if c["name"] == "data-budget-disjoint-blocks")
    assert budget["passed"]
    assert budget["detail"] == (
        "90 distinct indices used, expected 90, 10 unused; 30 reserve top-ups from 10 distinct examples"
    )


@pytest.mark.hash_seeds
def test_snapshot_golden_digest(tmp_path):
    # all three epochs close; loading the best D2T for the test split fails
    snap = tmp_path / "snapshot.json"
    cfg = _top_up_config(resume_path=snap)
    uninterrupted = Orchestrator(cfg).run()
    cfg.d2t = ModelHandle(Direction.D2T, _LoadFails(RuleBasedD2T()))
    with pytest.raises(EpochError, match="^test evaluation aborted"):
        Orchestrator(cfg).run()
    data = json.loads(snap.read_text(encoding="utf-8"))
    assert data["state"]["epochs"] == list(uninterrupted.epoch_summaries)
    assert len(data["state"]["reserve_keys"]) == 10
    del data["state"]["timing"]
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == "f04de83b4a3db4244da23bd1f47a13212b7c613017b613c3bd3b5d4f76046b2b"


def test_a_second_run_starts_from_a_fresh_state(small_splits):
    orch = Orchestrator(make_config(small_splits, method=Method.SELF_MEM))
    first = orch.run().to_dict(include_timing=False)
    assert orch.run().to_dict(include_timing=False) == first
    assert len(orch.state.epochs) == 3


def test_a_failed_write_leaves_the_old_report_and_snapshot(small_splits, tmp_path, monkeypatch):
    report_path, snap = tmp_path / "report.json", tmp_path / "snapshot.json"
    report = Orchestrator(make_config(small_splits)).run()
    report.write(report_path)
    aborting = make_config(small_splits, resume_path=snap)
    aborting.d2t = external_handle(Direction.D2T, "127.0.0.1:9")
    with pytest.raises(EpochError):
        Orchestrator(aborting).run()
    before = {path: path.read_bytes() for path in (report_path, snap)}

    def half_then_fail(path, text, *args, **kwargs):
        with open(path, "w", encoding="utf-8") as f:
            f.write(text[: len(text) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        report.write(report_path)
    # the abort still ends in EpochError, which names the failed write
    with pytest.raises(EpochError, match="^bootstrap aborted: .*; snapshot not written: disk full$") as exc_info:
        Orchestrator(aborting).run()
    assert isinstance(exc_info.value.__cause__, GatewayError)
    monkeypatch.undo()
    assert {path: path.read_bytes() for path in (report_path, snap)} == before
    assert sorted(tmp_path.iterdir()) == sorted(before)


@pytest.mark.hash_seeds
def test_no_epoch_tuples_outlive_the_epoch(small_splits, monkeypatch):
    judged = []

    def judge_and_watch(tup):
        judged.append(weakref.ref(tup))
        return selection.judge_pair(tup)

    monkeypatch.setattr(pipeline, "judge_pair", judge_and_watch)
    orch = Orchestrator(make_config(small_splits, method=Method.SELF_MEM_NEW_DATA))
    report = orch.run()
    gc.collect()
    assert len(report.epoch_summaries) == 3
    assert judged
    assert all(ref() is None for ref in judged)


@pytest.mark.hash_seeds
@pytest.mark.parametrize(
    "method, data_mode",
    [(Method.SELF_MEM_NEW_DATA_SELF_T2D, DataMode.FIXED), (Method.SELF_MEM, DataMode.RANDOM)],
    ids=["desk-run-method", "self-mem-random"],
)
def test_a_run_leaves_no_derived_forms_on_the_train_corpus(method, data_mode):
    # a fresh corpus: the session's splits are judged by other tests
    splits = synthetic_dataset(n_train=40, n_val=8, n_test=8, seed=11)
    orch = Orchestrator(make_config(splits, method=method, data_mode=data_mode))
    report = orch.run()
    blocks = orch.plan.epoch_indices
    if data_mode is DataMode.RANDOM:
        # a source drawn again in a later epoch is judged again
        assert len(set(itertools.chain(*blocks))) < sum(map(len, blocks))
    assert report.selection_stats["accepted_case1"] > 0
    derived = {"source_values", "folded_values", "record_keys"}
    assert all(not derived & ex.source.__dict__.keys() for ex in splits[0].examples)
    # the validation sources, read in every epoch, keep theirs for the run
    assert any("record_keys" in ex.source.__dict__ for ex in splits[1].examples)


@pytest.mark.hash_seeds
def test_the_audit_rejudging_derives_no_record_keys_through_a_run(monkeypatch):
    keyed = 0
    record_key = records.record_key

    def counted_key(r):
        nonlocal keyed
        keyed += 1
        return record_key(r)

    # id -> (tuple, record_key calls per judging); holding each tuple keeps
    # its id from being reused by a later epoch's
    judged: dict[int, tuple[SelfMemTuple, list[int]]] = {}

    def judge_and_count(tup):
        before = keyed
        verdict = selection.judge_pair(tup)
        judged.setdefault(id(tup), (tup, []))[1].append(keyed - before)
        return verdict

    monkeypatch.setattr(records, "record_key", counted_key)
    monkeypatch.setattr(pipeline, "judge_pair", judge_and_count)
    splits = synthetic_dataset(n_train=40, n_val=8, n_test=8, seed=11)
    Orchestrator(make_config(splits, method=Method.SELF_MEM_NEW_DATA_SELF_T2D)).run()
    counts = [calls for _, calls in judged.values()]
    rejudged = [calls for calls in counts if len(calls) == 2]
    assert rejudged and all(len(calls) <= 2 for calls in counts)
    # the select pass derives the keys, the audit's second judging reads them
    assert all(first > 0 and again == 0 for first, again in rejudged)


@pytest.mark.hash_seeds
@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_selection_stats_are_the_sum_of_the_epochs(small_splits, method):
    report = Orchestrator(make_config(small_splits, method=method)).run()
    epochs = [summary["selection"] for summary in report.epoch_summaries]
    assert len(epochs) == 3
    expected = {}
    for key, value in epochs[0].items():
        if isinstance(value, dict):
            expected[key] = {k: sum(e[key][k] for e in epochs) for k in value}
        else:
            expected[key] = sum(e[key] for e in epochs)
    assert report.selection_stats == expected


class _GenerateRecorder(RuleServable):
    """Rule servable that records the inputs and decode limits of every
    generate call."""

    def __init__(self, model):
        super().__init__(model)
        self.batches = []
        self.limits = []

    def generate(self, inputs, max_len, min_len):
        self.batches.append(list(inputs))
        self.limits.append((max_len, min_len))
        return super().generate(inputs, max_len, min_len)


class _FillerD2T(RuleServable):
    """Rule D2T servable that appends a sentence holding no source value to
    its output for every other source of a batch: the optimizer strips it,
    so selection judges those tuples as Case 2."""

    FILLER = "Nothing more is on record."

    def __init__(self):
        super().__init__(RuleBasedD2T())

    def generate(self, inputs, max_len, min_len):
        outputs = super().generate(inputs, max_len, min_len)
        return [f"{y} {self.FILLER}" if i % 2 else y for i, y in enumerate(outputs)]


@pytest.mark.hash_seeds
def test_case2_selection_through_a_full_run(small_splits):
    def one_run():
        t2d = _GenerateRecorder(rule_handles(small_splits)[1].servable.model)
        cfg = replace(
            make_config(small_splits, method=Method.SELF_MEM),
            d2t=ModelHandle(Direction.D2T, _FillerD2T()),
            t2d=ModelHandle(Direction.T2D, t2d),
        )
        return Orchestrator(cfg).run(), t2d.batches

    report, batches = one_run()
    assert report.audit["valid"]
    stats = report.selection_stats
    assert stats["accepted_case1"] == 18
    assert stats["accepted_case2"] == 18
    assert stats["subset_origins"]["self-memory-y-prime"] == 18
    assert stats["subset_origins"]["self-memory-y-double-prime"] == 18
    # per epoch the T2D reads x' for every y', x'' for the changed targets
    # only, then the validation targets; the test split comes last
    assert len(batches) == 3 * 3 + 1
    suffix = " " + _FillerD2T.FILLER
    for e in range(3):
        y_prime, y_dprime = batches[3 * e], batches[3 * e + 1]
        assert len(y_prime) == 12
        assert y_dprime == [y.removesuffix(suffix) for y in y_prime if y.endswith(suffix)]
        assert len(y_dprime) == 6
    # pinned, so a change of string hash seed cannot move it either
    assert _report_digest(report) == "64d9c04bddafd261810da5237675ace46b1003e7e1be423a9351e8452febfdf6"
    assert _report_digest(one_run()[0]) == _report_digest(report)


class _BlankD2T(RuleServable):
    """Rule D2T servable that answers a blank text for every third source of
    a batch and keeps each batch of answers it gives."""

    def __init__(self):
        super().__init__(RuleBasedD2T())
        self.answers = []

    def generate(self, inputs, max_len, min_len):
        outputs = super().generate(inputs, max_len, min_len)
        self.answers.append(["" if i % 3 == 2 else y for i, y in enumerate(outputs)])
        return self.answers[-1]


class _JunkT2D(_GenerateRecorder):
    """Recording rule T2D servable that answers a text holding no separator,
    which no record-set variant parses, for every other text of a batch."""

    JUNK = "no separators here"

    def generate(self, inputs, max_len, min_len):
        outputs = super().generate(inputs, max_len, min_len)
        return [self.JUNK if i % 2 else x for i, x in enumerate(outputs)]


@pytest.mark.hash_seeds
def test_failed_model_answers_through_a_full_run(small_splits, monkeypatch):
    judged = []
    real_judge = pipeline.judge_pair

    def spy(tup):
        judged.append((tup, real_judge(tup)))
        return judged[-1][1]

    monkeypatch.setattr(pipeline, "judge_pair", spy)

    def one_run():
        d2t = _BlankD2T()
        t2d = _JunkT2D(rule_handles(small_splits)[1].servable.model)
        cfg = replace(
            make_config(small_splits, method=Method.SELF_MEM_NEW_DATA),
            d2t=ModelHandle(Direction.D2T, d2t),
            t2d=ModelHandle(Direction.T2D, t2d),
        )
        return Orchestrator(cfg).run(), d2t.answers, t2d.batches

    report, answers, batches = one_run()
    assert report.audit["valid"]
    # a blank answer is rejected with no case and keeps only x and y; a
    # junk reconstruction is the empty set and fails the subset condition
    blank = [(t, v) for t, v in judged if t.y_prime is None]
    assert len(blank) == 3 * 4
    for tup, verdict in blank:
        assert (tup.x_prime, tup.y_dprime, tup.x_dprime) == (None, None, None)
        assert not verdict.accepted and verdict.case_id is selection.CaseId.NONE
    junk = [(t, v) for t, v in judged if t.x_prime is not None and t.x_prime.is_empty]
    assert len(junk) == 3 * 4
    for tup, verdict in junk:
        assert selection.Condition.NOT_SUBSET_OF_SOURCE in verdict.failed_conditions
    stats = report.selection_stats
    assert (stats["accepted_case1"], stats["accepted_case2"], stats["rejected"]) == (12, 0, 24)
    assert stats["failed_conditions"] == {
        "len-not-shorter": 0,
        "missing-source-value": 12,
        "not-subset-of-source": 12,
    }
    assert stats["subset_origins"] == {
        "gold": 0,
        "self-memory-y-prime": 12,
        "self-memory-y-double-prime": 0,
        "remaining": 24,
    }
    # per epoch the D2T answers y' then the validation sources; the T2D reads
    # x' for the non-blank answers only, then the validation targets
    assert len(answers) == len(batches) == 3 * 2 + 1
    for e in range(3):
        assert batches[2 * e] == [y for y in answers[2 * e] if y]
        assert len(batches[2 * e]) == 8
    assert [s["val_osf_precision_t2d"] for s in report.epoch_summaries] == [0.5] * 3
    # the test split's 8 texts, blanks included, go to the T2D: 3 read back
    osf_score = report.final_metrics.osf
    assert (osf_score.precision, osf_score.recall, osf_score.f1) == (0.375, 0.375, 0.375)
    assert _report_digest(report) == "1e11031abcf82d06881369de41cb180adcb4a57622c10af9f8a37c50f26efcbc"
    assert _report_digest(one_run()[0]) == _report_digest(report)


# Hostile T2D answers: blank and whitespace-only text, and model-output-like
# linear strings, mixing triple and pair segments, with a separator or part
# of one at either edge
_blank_answers = st.text(alphabet=" \t\n\r\xa0\u2028", max_size=4)
_separator_edges = st.sampled_from(["", " | ", "| ", " |", "|", " : ", ": ", " :", ":"])
_hostile_answers = _blank_answers | st.builds(lambda head, t, tail: head + t + tail, _separator_edges, linear_texts, _separator_edges)


@pytest.mark.hypothesis_seeds
@settings(max_examples=500)
@given(_hostile_answers, st.sampled_from(list(RecordKind)))
@example("", RecordKind.TRIPLESET)
@example(" \t\xa0", RecordKind.MR_SET)
@example("a : b : c | d : e", RecordKind.TRIPLESET)
@example("a : b : c | d : e", RecordKind.MR_SET)
@example(" | a : b | ", RecordKind.MR_SET)
@example(": a : b : c", RecordKind.TRIPLESET)
def test_read_answer_is_the_parse_or_the_empty_set(text, kind):
    try:
        want = delinearize(text, kind).record_set
    except DelinearizeError:
        want = RecordSet.empty(kind)
    # to_dict, as records compare case-folded
    assert pipeline.read_answer(text, kind).to_dict() == want.to_dict()


def test_decode_limits_on_the_wire_match_the_report():
    splits = synthetic_dataset(30, 6, 6)
    train, val, test = splits
    _, t2d = rule_handles(splits)
    servables = (_GenerateRecorder(RuleBasedD2T()), _GenerateRecorder(t2d.servable.model))
    with ModelServer(servables[0]) as d2t_srv, ModelServer(servables[1]) as t2d_srv:
        d2t = external_handle(Direction.D2T, d2t_srv.endpoint)
        t2d = external_handle(Direction.T2D, t2d_srv.endpoint)
        cfg = RunConfig(
            method=Method.SELF_MEM_NEW_DATA_SELF_T2D,
            d2t=d2t,
            t2d=t2d,
            train=train,
            val=val,
            test=test,
            epochs=2,
        )
        try:
            report = Orchestrator(cfg).run()
        finally:
            d2t.close()
            t2d.close()
    limits = report.config["decode_limits"]
    assert limits == {"max_len": 256, "min_len": 4}
    for servable in servables:
        assert servable.limits
        assert set(servable.limits) == {(limits["max_len"], limits["min_len"])}
