"""Self-training loop driver.

One run proceeds as: initial supervised training of the data-to-text and
text-to-data models on a seed subset (the swap trains the inverse model),
then per epoch: draw the epoch subset, infer targets y' and reconstructions
x', greedily optimize y' into y'' (re-inferring x'' only where the target
actually changed), judge every tuple, assemble a new training subset of the
step-1 size, self-train, and checkpoint on validation METEOR (D2T) or
validation slot-filling precision (T2D) under a strict-improvement rule.
Baseline methods without self-memory skip inference and train on the raw
subset; every method shares the validation and checkpoint path.

All sampling derives from one master seed through named sub-seeds, so a rerun
of the same config is byte-identical (timing aside, which is reported under
its own key and excluded from identity comparisons).
"""

from __future__ import annotations

import enum
import hashlib
import json
import random
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from statistics import fmean
from typing import Iterable, Optional, Sequence

from .datasets import DatasetSplit
from .errors import DatasetError, DelinearizeError, EpochError, GatewayError
from .gateway import (
    CheckpointAction,
    ModelHandle,
    checkpoint,
    generate_batch,
    train_batch,
)
from .linearize import delinearize
from .metrics import MetricReport, evaluate_corpus, meteor, osf
from .optimize import optimize_target
from .records import Example, Origin, Pair, RecordKind, RecordSet, SelfMemTuple
from .selection import (
    CaseId,
    Condition,
    SelectionVerdict,
    Strategy,
    allocate,
    build_subset,
    derive_seed,
    judge_pair,
)


class Method(enum.Enum):
    NO_SELF_MEM_1 = "no-self-mem-1"
    NO_SELF_MEM_2 = "no-self-mem-2"
    NO_SELF_MEM_3 = "no-self-mem-3"
    SELF_MEM = "self-mem"
    SELF_MEM_SELF_T2D = "self-mem+self-t2d"
    SELF_MEM_NEW_DATA = "self-mem+new-data"
    SELF_MEM_NEW_DATA_SELF_T2D = "self-mem+new-data+self-t2d"

    @property
    def uses_self_memory(self) -> bool:
        return self not in (
            Method.NO_SELF_MEM_1,
            Method.NO_SELF_MEM_2,
            Method.NO_SELF_MEM_3,
        )

    @property
    def trains_t2d(self) -> bool:
        return self in (Method.SELF_MEM_SELF_T2D, Method.SELF_MEM_NEW_DATA_SELF_T2D)

    @property
    def includes_new_data(self) -> bool:
        return self in (Method.SELF_MEM_NEW_DATA, Method.SELF_MEM_NEW_DATA_SELF_T2D)


class DataMode(enum.Enum):
    FIXED = "fixed"
    RANDOM = "random"


def strategy_for(method: Method, data_mode: DataMode) -> Strategy:
    """Epoch allocation implied by the method; the data mode only matters
    for self-memory methods (the three baselines pin their own strategy)."""
    if method is Method.NO_SELF_MEM_1:
        return Strategy.FIXED_NON_OVERLAP
    if method is Method.NO_SELF_MEM_2:
        return Strategy.FIXED_REPEATED
    if method is Method.NO_SELF_MEM_3:
        return Strategy.RANDOM_PER_EPOCH
    return (
        Strategy.FIXED_NON_OVERLAP
        if data_mode is DataMode.FIXED
        else Strategy.RANDOM_PER_EPOCH
    )


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


@dataclass
class RunConfig:
    method: Method
    d2t: ModelHandle
    t2d: ModelHandle
    train: DatasetSplit
    val: DatasetSplit
    test: DatasetSplit
    epochs: int = 3
    ratio: float = 0.3
    seed: int = 42
    data_mode: DataMode = DataMode.FIXED
    resume_path: Optional[Path] = None

    def to_dict(self) -> dict:
        return {
            "method": self.method.value,
            "data_mode": self.data_mode.value,
            "strategy": strategy_for(self.method, self.data_mode).value,
            "epochs": self.epochs,
            "ratio": self.ratio,
            "seed": self.seed,
            "d2t": {"backend": self.d2t.backend.value, "endpoint": self.d2t.endpoint},
            "t2d": {"backend": self.t2d.backend.value, "endpoint": self.t2d.endpoint},
            "decode_limits": {
                "max_len": self.d2t.decode_limits.max_len,
                "min_len": self.d2t.decode_limits.min_len,
            },
            "dataset_sizes": {
                "train": len(self.train),
                "validation": len(self.val),
                "test": len(self.test),
            },
        }


def _selection_stats(verdicts: Iterable[SelectionVerdict], subset: Iterable[Pair]) -> dict:
    """Selection funnel: accepts per case, rejects with the conditions they
    failed, and the origins of the trained pairs."""
    failures: dict[str, int] = {c.value: 0 for c in Condition}
    case1 = case2 = rejected = 0
    for v in verdicts:
        if v.accepted:
            if v.case_id is CaseId.CASE1:
                case1 += 1
            else:
                case2 += 1
        else:
            rejected += 1
            for c in v.failed_conditions:
                failures[c.value] += 1
    origins = {o.value: 0 for o in Origin}
    for p in subset:
        origins[p.origin.value] += 1
    return {
        "accepted_case1": case1,
        "accepted_case2": case2,
        "rejected": rejected,
        "failed_conditions": failures,
        "subset_origins": origins,
    }


@dataclass(frozen=True)
class EpochTrace:
    """Complete record of one epoch: inferred tuples, verdicts, the trained
    subset, validation metrics, and checkpoint outcomes."""

    epoch: int
    tuples: tuple[SelfMemTuple, ...]
    verdicts: tuple[SelectionVerdict, ...]
    subset: tuple[Pair, ...]
    val_meteor_d2t: float
    val_osf_precision_t2d: float
    checkpoint_saved_d2t: bool = False
    checkpoint_saved_t2d: bool = False

    def __post_init__(self):
        if len(self.tuples) != len(self.verdicts):
            raise ValueError("tuples and verdicts must align")

    @property
    def checkpoint_saved(self) -> bool:
        return self.checkpoint_saved_d2t or self.checkpoint_saved_t2d

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "tuples": [t.to_dict() for t in self.tuples],
            "verdicts": [v.to_dict() for v in self.verdicts],
            "subset": [p.to_dict() for p in self.subset],
            "val_meteor_d2t": self.val_meteor_d2t,
            "val_osf_precision_t2d": self.val_osf_precision_t2d,
            "checkpoint_saved_d2t": self.checkpoint_saved_d2t,
            "checkpoint_saved_t2d": self.checkpoint_saved_t2d,
        }

    def digest(self) -> str:
        return hashlib.sha256(_canonical(self.to_dict()).encode("utf-8")).hexdigest()

    def summary(self) -> dict:
        return {
            "epoch": self.epoch,
            "tuples": len(self.tuples),
            "subset_size": len(self.subset),
            "selection": _selection_stats(self.verdicts, self.subset),
            "val_meteor_d2t": self.val_meteor_d2t,
            "val_osf_precision_t2d": self.val_osf_precision_t2d,
            "checkpoint_saved_d2t": self.checkpoint_saved_d2t,
            "checkpoint_saved_t2d": self.checkpoint_saved_t2d,
            "digest": self.digest(),
        }


@dataclass(frozen=True)
class BestCheckpoints:
    meteor: Optional[float] = None
    osf_precision: Optional[float] = None
    d2t_tag: Optional[str] = None
    t2d_tag: Optional[str] = None


@dataclass(frozen=True)
class RunReport:
    config: dict
    epoch_summaries: tuple[dict, ...]
    selection_stats: dict
    final_metrics: MetricReport
    audit: dict
    best: dict
    timing: dict

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "config": self.config,
            "epochs": list(self.epoch_summaries),
            "selection_stats": self.selection_stats,
            "final_metrics": self.final_metrics.to_dict(),
            "audit": self.audit,
            "best": self.best,
        }
        if include_timing:
            out["timing"] = self.timing
        return out

    def write(self, path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )


class Orchestrator:
    """Owns the model handles and drives bootstrap, epochs, checkpointing,
    final evaluation, and the post-hoc audit for one run."""

    def __init__(self, cfg: RunConfig):
        for split in (cfg.train, cfg.val, cfg.test):
            if not split.examples:
                raise DatasetError(f"{split.name.value} split is empty")
        self.cfg = cfg
        self.kind: RecordKind = cfg.train.examples[0].source.kind
        self.strategy = strategy_for(cfg.method, cfg.data_mode)
        self.plan = allocate(
            len(cfg.train), self.strategy, cfg.ratio, cfg.epochs, cfg.seed
        )
        self.best = BestCheckpoints()
        self.traces: list[EpochTrace] = []
        self.timing: dict[str, float] = {}
        self.last_snapshot: Optional[dict] = None
        self._reserve = tuple(
            cfg.train.examples[i] for i in self.plan.unused_indices()
        )

    @contextmanager
    def _timed(self, key: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timing[key] = self.timing.get(key, 0.0) + time.perf_counter() - t0

    def _parse_records(self, text: str) -> RecordSet:
        """Interpret T2D output; anything unparseable is an empty set, which
        downstream judging treats as a failed reconstruction."""
        if not text.strip():
            return RecordSet.empty(self.kind)
        try:
            return delinearize(text, self.kind).record_set
        except DelinearizeError:
            return RecordSet.empty(self.kind)

    def _bootstrap_indices(self) -> tuple[int, ...]:
        # fixed modes reuse the first epoch block so the data budget of the
        # run is untouched; random mode draws its own seeded sample
        if self.strategy is Strategy.RANDOM_PER_EPOCH:
            rng = random.Random(derive_seed(self.cfg.seed, "bootstrap"))
            return tuple(rng.sample(range(len(self.cfg.train)), self.plan.block_size))
        return self.plan.epoch_indices[0]

    def bootstrap(self) -> None:
        """Initial supervised training: D2T on (source, target) pairs of the
        seed subset, T2D on the element-wise swap."""
        gold = [self.cfg.train.examples[i] for i in self._bootstrap_indices()]
        pairs = [(ex.source_text, ex.target) for ex in gold]
        train_batch(self.cfg.d2t, pairs)
        train_batch(self.cfg.t2d, [(t, s) for s, t in pairs])

    def _infer_tuples(self, gold: Sequence[Example]) -> tuple[SelfMemTuple, ...]:
        sources = [ex.source_text for ex in gold]
        with self._timed("step2-infer-y-prime"):
            raw = generate_batch(self.cfg.d2t, sources)
        y_prime: list[Optional[str]] = [y if y.strip() else None for y in raw]

        present = [i for i, y in enumerate(y_prime) if y is not None]
        x_prime: list[Optional[RecordSet]] = [None] * len(gold)
        with self._timed("step3-infer-x-prime"):
            if present:
                outs = generate_batch(self.cfg.t2d, [y_prime[i] for i in present])
                for i, out in zip(present, outs):
                    x_prime[i] = self._parse_records(out)

        y_dprime: list[Optional[str]] = [None] * len(gold)
        x_dprime: list[Optional[RecordSet]] = [None] * len(gold)
        changed: list[int] = []
        with self._timed("step4-optimize"):
            for i in present:
                outcome = optimize_target(gold[i].source, y_prime[i])
                y_dprime[i] = outcome.optimized
                if outcome.changed:
                    changed.append(i)
                else:
                    x_dprime[i] = x_prime[i]
        with self._timed("step4-infer-x-dprime"):
            if changed:
                outs = generate_batch(self.cfg.t2d, [y_dprime[i] for i in changed])
                for i, out in zip(changed, outs):
                    x_dprime[i] = self._parse_records(out)

        return tuple(
            SelfMemTuple(
                x=ex.source,
                y=ex.target,
                y_prime=y_prime[i],
                x_prime=x_prime[i],
                y_dprime=y_dprime[i],
                x_dprime=x_dprime[i],
            )
            for i, ex in enumerate(gold)
        )

    def run_epoch(self, e: int) -> EpochTrace:
        """Steps 1-6 for epoch index e (0-based); returns the trace without
        checkpoint flags, which `select_checkpoint` decides afterwards."""
        with self._timed("step1-subset"):
            idxs = self.plan.epoch_indices[e]
            gold = [self.cfg.train.examples[i] for i in idxs]

        if self.cfg.method.uses_self_memory:
            tuples = self._infer_tuples(gold)
            with self._timed("step5-select"):
                verdicts = tuple(judge_pair(t) for t in tuples)
                subset = tuple(
                    build_subset(
                        gold,
                        tuples,
                        verdicts,
                        target_size=len(gold),
                        seed=derive_seed(self.cfg.seed, f"subset-epoch{e}"),
                        reserve=self._reserve,
                        include_remaining=self.cfg.method.includes_new_data,
                    )
                )
            with self._timed("step6a-train-d2t"):
                train_batch(
                    self.cfg.d2t, [(p.source_text, p.target_text) for p in subset]
                )
            if self.cfg.method.trains_t2d:
                with self._timed("step6b-train-t2d"):
                    train_batch(
                        self.cfg.t2d, [(p.target_text, p.source_text) for p in subset]
                    )
        else:
            tuples = ()
            verdicts = ()
            subset = tuple(
                Pair(ex.source_text, ex.target, Origin.GOLD) for ex in gold
            )
            with self._timed("step6a-train-d2t"):
                train_batch(
                    self.cfg.d2t, [(p.source_text, p.target_text) for p in subset]
                )

        with self._timed("validation"):
            val_meteor, val_osf_p = self._validate()
        return EpochTrace(
            epoch=e,
            tuples=tuples,
            verdicts=verdicts,
            subset=subset,
            val_meteor_d2t=val_meteor,
            val_osf_precision_t2d=val_osf_p,
        )

    def _validate(self) -> tuple[float, float]:
        val = self.cfg.val.examples
        d2t_out = generate_batch(self.cfg.d2t, [ex.source_text for ex in val])
        val_meteor = fmean(meteor(out, [ex.target]) for out, ex in zip(d2t_out, val))
        t2d_out = generate_batch(self.cfg.t2d, [ex.target for ex in val])
        val_osf_p = fmean(
            osf(ex.source, self._parse_records(out)).precision
            for out, ex in zip(t2d_out, val)
        )
        return val_meteor, val_osf_p

    def select_checkpoint(self, trace: EpochTrace) -> EpochTrace:
        """Strict-improvement checkpointing; ties keep the earlier model."""
        best = self.best
        saved_d2t = saved_t2d = False
        if best.meteor is None or trace.val_meteor_d2t > best.meteor:
            tag = f"d2t-epoch{trace.epoch + 1}"
            checkpoint(self.cfg.d2t, CheckpointAction.SAVE, tag)
            best = replace(best, meteor=trace.val_meteor_d2t, d2t_tag=tag)
            saved_d2t = True
        if best.osf_precision is None or trace.val_osf_precision_t2d > best.osf_precision:
            tag = f"t2d-epoch{trace.epoch + 1}"
            checkpoint(self.cfg.t2d, CheckpointAction.SAVE, tag)
            best = replace(best, osf_precision=trace.val_osf_precision_t2d, t2d_tag=tag)
            saved_t2d = True
        self.best = best
        return replace(
            trace, checkpoint_saved_d2t=saved_d2t, checkpoint_saved_t2d=saved_t2d
        )

    def evaluate_test(self) -> MetricReport:
        """Load the best checkpoints and report the full metric set on the
        test split, with T2D reconstructions for the slot-filling scores."""
        if self.best.d2t_tag:
            checkpoint(self.cfg.d2t, CheckpointAction.LOAD, self.best.d2t_tag)
        if self.best.t2d_tag:
            checkpoint(self.cfg.t2d, CheckpointAction.LOAD, self.best.t2d_tag)
        test = self.cfg.test.examples
        outputs = generate_batch(self.cfg.d2t, [ex.source_text for ex in test])
        recon_raw = generate_batch(self.cfg.t2d, outputs)
        return evaluate_corpus(
            outputs,
            [[ex.target] for ex in test],
            sources=[ex.source for ex in test],
            reconstructions=[self._parse_records(r) for r in recon_raw],
        )

    def audit(self) -> dict:
        """Post-hoc consistency checks over the recorded traces."""
        checks = []

        revalidated = 0
        stale = []
        for trace in self.traces:
            # index accepted tuples by their elite target text
            accepted: dict[str, list[tuple[SelfMemTuple, SelectionVerdict]]] = {}
            for tup, verdict in zip(trace.tuples, trace.verdicts):
                if verdict.accepted:
                    target = (
                        tup.y_dprime if verdict.case_id is CaseId.CASE2 else tup.y_prime
                    )
                    accepted.setdefault(target, []).append((tup, verdict))
            for pair in trace.subset:
                if pair.origin not in (
                    Origin.SELF_MEMORY_Y_PRIME,
                    Origin.SELF_MEMORY_Y_DPRIME,
                ):
                    continue
                want_case = (
                    CaseId.CASE2
                    if pair.origin is Origin.SELF_MEMORY_Y_DPRIME
                    else CaseId.CASE1
                )
                entries = [
                    (t, v)
                    for t, v in accepted.get(pair.target_text, [])
                    if v.case_id is want_case
                ]
                if not entries:
                    stale.append(f"epoch {trace.epoch}: unmatched pair {pair.key()!r}")
                    continue
                if any(judge_pair(t).accepted for t, _ in entries):
                    revalidated += 1
                else:
                    stale.append(
                        f"epoch {trace.epoch}: re-judge rejects {pair.key()!r}"
                    )
        checks.append(
            {
                "name": "self-memory-pairs-revalidate",
                "passed": not stale,
                "detail": f"{revalidated} pairs re-judged" + ("" if not stale else f"; {stale[:3]}"),
            }
        )

        sizes_ok = all(len(t.subset) == self.plan.block_size for t in self.traces)
        checks.append(
            {
                "name": "subset-size-equals-step1-size",
                "passed": sizes_ok,
                "detail": f"block size {self.plan.block_size}, "
                f"subset sizes {[len(t.subset) for t in self.traces]}",
            }
        )

        if self.strategy is Strategy.FIXED_NON_OVERLAP:
            used = self.plan.used_indices()
            expected = self.plan.block_size * self.cfg.epochs
            disjoint = len(used) == expected
            checks.append(
                {
                    "name": "data-budget-disjoint-blocks",
                    "passed": disjoint,
                    "detail": f"{len(used)} distinct indices used, expected {expected}, "
                    f"{len(self.plan.unused_indices())} unused",
                }
            )

        allowed = {Origin.GOLD}
        if self.cfg.method.uses_self_memory:
            allowed |= {Origin.SELF_MEMORY_Y_PRIME, Origin.SELF_MEMORY_Y_DPRIME}
            if self.cfg.method.includes_new_data:
                allowed.add(Origin.REMAINING)
        origin_ok = all(
            p.origin in allowed for t in self.traces for p in t.subset
        )
        checks.append(
            {
                "name": "subset-origins-allowed",
                "passed": origin_ok,
                "detail": f"allowed: {sorted(o.value for o in allowed)}",
            }
        )

        return {"valid": all(c["passed"] for c in checks), "checks": checks}

    def _snapshot(self, epoch: int, reason: str) -> dict:
        snapshot = {
            "epoch": epoch,
            "reason": reason,
            "seed": self.cfg.seed,
            "method": self.cfg.method.value,
            "data_mode": self.cfg.data_mode.value,
            "completed_epochs": len(self.traces),
            "best": asdict(self.best),
        }
        self.last_snapshot = snapshot
        if self.cfg.resume_path is not None:
            Path(self.cfg.resume_path).write_text(
                json.dumps(snapshot, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
        return snapshot

    def run(self) -> RunReport:
        epoch = -1
        try:
            if self.cfg.method.uses_self_memory:
                with self._timed("step0-bootstrap"):
                    self.bootstrap()
            for epoch in range(self.cfg.epochs):
                trace = self.run_epoch(epoch)
                trace = self.select_checkpoint(trace)
                self.traces.append(trace)
            with self._timed("evaluate-test"):
                final = self.evaluate_test()
        except GatewayError as exc:
            self._snapshot(epoch, str(exc))
            label = "bootstrap" if epoch < 0 else f"epoch {epoch + 1}"
            raise EpochError(f"{label} aborted: {exc}", epoch=epoch) from exc

        return RunReport(
            config=self.cfg.to_dict(),
            epoch_summaries=tuple(t.summary() for t in self.traces),
            selection_stats=_selection_stats(
                (v for t in self.traces for v in t.verdicts),
                (p for t in self.traces for p in t.subset),
            ),
            final_metrics=final,
            audit=self.audit(),
            best=asdict(self.best),
            timing=dict(self.timing),
        )
