"""Self-training loop driver.

One run proceeds as: initial supervised training of the data-to-text and
text-to-data models on a seed subset (the swap trains the inverse model),
then per epoch: draw the epoch subset, infer targets y' and reconstructions
x', greedily optimize y' into y'' (re-inferring x'' only where the target
actually changed), judge every tuple, assemble the training subset from the
block's pairs and reserve top-ups while the reserve lasts, self-train, and
checkpoint on validation METEOR (D2T) or validation slot-filling precision
(T2D) under a strict-improvement rule.
Baseline methods without self-memory skip inference and train on the raw
subset; every method shares the validation and checkpoint path. Each epoch is
summarised, counted and audited as it ends into the run's `RunState`, and its
tuples are then dropped. When a model call fails or an epoch's subset comes
out empty, the run ends in `EpochError` and writes a snapshot to the config's
resume path: the epoch, the reason, the config and the whole state, in JSON.
An interrupt (`KeyboardInterrupt`) writes the same snapshot with the reason
"interrupted" and is raised again, its message naming the stage it stopped.
A snapshot that cannot be written is named in the stop's message. Nothing
reads a snapshot back yet.

A T2D answer becomes a record set in one place, `read_answer`, for the run
and `eval --reconstructions` alike; judging takes the empty set it gives for
an answer that does not parse as a failed reconstruction.

All sampling derives from one master seed through named sub-seeds, so a rerun
of the same config is byte-identical (timing aside, which is reported under
its own key and excluded from identity comparisons).
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import fmean
from typing import Iterable, Optional, Sequence

from .datasets import DatasetSplit
from .errors import DatasetError, DelinearizeError, EmptySubsetError, EpochError, GatewayError
from .gateway import (
    MAX_LEN,
    MIN_LEN,
    CheckpointAction,
    ModelHandle,
    checkpoint,
    generate_batch,
    train_batch,
)
from .linearize import delinearize
from .metrics import MetricReport, evaluate_corpus, meteor, osf
from .optimize import optimize_target
from .records import Example, Origin, Pair, RecordKind, RecordSet, SelfMemTuple, json_default
from .selection import (
    CaseId,
    Condition,
    SelectionVerdict,
    Strategy,
    allocate,
    build_subset,
    derive_seed,
    elite_pair,
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


def read_answer(text: str, kind: RecordKind) -> RecordSet:
    """The record set `delinearize` reads from a model's linear answer as
    `kind`, or the empty set when no segment parses, a blank answer included:
    for the run's T2D answers and `eval --reconstructions` lines alike."""
    try:
        return delinearize(text, kind).record_set
    except DelinearizeError:
        return RecordSet.empty(kind)


def _canonical(obj) -> str:
    # a trace is a tree of fresh values, so no reference can be circular
    return json.dumps(
        obj, default=json_default, sort_keys=True, separators=(",", ":"), ensure_ascii=False, check_circular=False
    )


def _write_json(path, obj) -> None:
    """The one form a run writes a file in: indented, sorted, UTF-8. The text
    goes to a temporary file beside the target, which then replaces it, so a
    failed write leaves the old file whole."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(json.dumps(obj, default=json_default, indent=2, sort_keys=True, ensure_ascii=False) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


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
            "decode_limits": {"max_len": MAX_LEN, "min_len": MIN_LEN},
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


def _add_counts(total: dict, part: dict) -> None:
    """Add `part`'s counts into `total` in place, nested counts included."""
    for key, n in part.items():
        if isinstance(n, dict):
            _add_counts(total[key], n)
        else:
            total[key] += n


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

    def digest(self) -> str:
        return hashlib.sha256(_canonical(self).encode("utf-8")).hexdigest()

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


@dataclass
class RunState:
    """All that a run's closed epochs leave behind: their summaries, the
    selection totals, the audit's facts (pairs re-judged, stale notes, the
    distinct reserve keys in first-draw order), the best checkpoints (their
    validation scores and tags, None before the first save) and the stage
    timings. Its fields are the keys of its JSON form, the snapshot's
    "state"."""

    epochs: list[dict] = field(default_factory=list)
    selection: dict = field(default_factory=lambda: _selection_stats((), ()))
    revalidated: int = 0
    stale: list[str] = field(default_factory=list)
    reserve_keys: list[tuple[str, str]] = field(default_factory=list)
    best: dict = field(default_factory=lambda: dict.fromkeys(("meteor", "osf_precision", "d2t_tag", "t2d_tag")))
    timing: dict[str, float] = field(default_factory=dict)


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
        _write_json(path, self.to_dict())


class Orchestrator:
    """Owns the model handles and drives bootstrap, epochs, checkpointing
    and final evaluation for one run, auditing each epoch as it ends."""

    def __init__(self, cfg: RunConfig):
        for split in (cfg.train, cfg.val, cfg.test):
            if not split.examples:
                raise DatasetError(f"{split.name.value} split is empty")
        if len(cfg.test.examples) < 2:
            # the final evaluation's CIDEr needs two items for its idf
            raise DatasetError("test split needs at least 2 examples for corpus-level scoring")
        self.cfg = cfg
        self.kind: RecordKind = cfg.train.examples[0].source.kind
        # one variant per run: T2D output is parsed as it, and metrics refuse a mix
        for split in (cfg.train, cfg.val, cfg.test):
            for k, ex in enumerate(split.examples):
                if ex.source.kind is not self.kind:
                    raise DatasetError(
                        f"{split.name.value} example {k} is a {ex.source.kind.value}, "
                        f"but the first train example is a {self.kind.value}"
                    )
        self.strategy = strategy_for(cfg.method, cfg.data_mode)
        self.plan = allocate(
            len(cfg.train), self.strategy, cfg.ratio, cfg.epochs, cfg.seed
        )
        self.state = RunState()  # the last run's; run() starts a fresh one
        self._reserve = tuple(
            cfg.train.examples[i] for i in self.plan.unused_indices()
        )
        self._allowed = {Origin.GOLD}
        if cfg.method.uses_self_memory:
            self._allowed |= {Origin.SELF_MEMORY_Y_PRIME, Origin.SELF_MEMORY_Y_DPRIME}
            if cfg.method.includes_new_data:
                self._allowed.add(Origin.REMAINING)

    @contextmanager
    def _timed(self, key: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.state.timing[key] = self.state.timing.get(key, 0.0) + time.perf_counter() - t0

    def _reconstruct(self, texts: Sequence[str]) -> list[RecordSet]:
        """The T2D model's reading of each text, by `read_answer`, from one
        batch call (none for no texts)."""
        if not texts:
            return []
        return [read_answer(out, self.kind) for out in generate_batch(self.cfg.t2d, texts)]

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
        # The epoch judges its own copy of each gold source, so the forms that
        # optimizing, judging and the audit derive on it go with the epoch's
        # tuples instead of staying on the corpus. Equal fields, equal JSON.
        x = [RecordSet(ex.source.records, ex.source.kind) for ex in gold]
        with self._timed("step2-infer-y-prime"):
            y_prime = generate_batch(self.cfg.d2t, [ex.source_text for ex in gold])
        # the rest works on the present answers only, position k for gold[present[k]]
        present = [i for i, y in enumerate(y_prime) if y.strip()]
        with self._timed("step3-infer-x-prime"):
            x_prime = self._reconstruct([y_prime[i] for i in present])
        y_dprime, changed = [], []
        with self._timed("step4-optimize"):
            for k, i in enumerate(present):
                outcome = optimize_target(x[i], y_prime[i])
                y_dprime.append(outcome.optimized)
                if outcome.changed:
                    changed.append(k)
        x_dprime = list(x_prime)
        with self._timed("step4-infer-x-dprime"):
            for k, rs in zip(changed, self._reconstruct([y_dprime[k] for k in changed])):
                x_dprime[k] = rs
        inferred = {
            i: SelfMemTuple(x[i], gold[i].target, y_prime[i], xp, yd, xd)
            for i, xp, yd, xd in zip(present, x_prime, y_dprime, x_dprime)
        }
        return tuple(inferred[i] if i in inferred else SelfMemTuple(x[i], ex.target) for i, ex in enumerate(gold))

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
                        seed=derive_seed(self.cfg.seed, f"subset-epoch{e}"),
                        reserve=self._reserve,
                        include_remaining=self.cfg.method.includes_new_data,
                    )
                )
        else:
            tuples = verdicts = ()
            subset = tuple(
                Pair(ex.source_text, ex.target, Origin.GOLD) for ex in gold
            )

        with self._timed("step6a-train-d2t"):
            train_batch(self.cfg.d2t, [(p.source_text, p.target_text) for p in subset])
        if self.cfg.method.trains_t2d:
            with self._timed("step6b-train-t2d"):
                train_batch(self.cfg.t2d, [(p.target_text, p.source_text) for p in subset])

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
        recon = self._reconstruct([ex.target for ex in val])
        val_osf_p = fmean(osf(ex.source, rs).precision for rs, ex in zip(recon, val))
        return val_meteor, val_osf_p

    def select_checkpoint(self, trace: EpochTrace) -> EpochTrace:
        """Strict-improvement checkpointing; ties keep the earlier model. The
        best checkpoints change only once both saves went through."""
        best = self.state.best
        saved = {}
        if best["meteor"] is None or trace.val_meteor_d2t > best["meteor"]:
            tag = f"d2t-epoch{trace.epoch + 1}"
            checkpoint(self.cfg.d2t, CheckpointAction.SAVE, tag)
            saved.update(meteor=trace.val_meteor_d2t, d2t_tag=tag)
        if best["osf_precision"] is None or trace.val_osf_precision_t2d > best["osf_precision"]:
            tag = f"t2d-epoch{trace.epoch + 1}"
            checkpoint(self.cfg.t2d, CheckpointAction.SAVE, tag)
            saved.update(osf_precision=trace.val_osf_precision_t2d, t2d_tag=tag)
        best.update(saved)
        return replace(
            trace, checkpoint_saved_d2t="d2t_tag" in saved, checkpoint_saved_t2d="t2d_tag" in saved
        )

    def evaluate_test(self) -> MetricReport:
        """Load the best checkpoints and report the full metric set on the
        test split, with T2D reconstructions for the slot-filling scores."""
        best = self.state.best
        if best["d2t_tag"]:
            checkpoint(self.cfg.d2t, CheckpointAction.LOAD, best["d2t_tag"])
        if best["t2d_tag"]:
            checkpoint(self.cfg.t2d, CheckpointAction.LOAD, best["t2d_tag"])
        test = self.cfg.test.examples
        outputs = generate_batch(self.cfg.d2t, [ex.source_text for ex in test])
        return evaluate_corpus(
            outputs,
            [[ex.target] for ex in test],
            sources=[ex.source for ex in test],
            reconstructions=self._reconstruct(outputs),
        )

    def _close_epoch(self, trace: EpochTrace) -> None:
        """Summarise, count and audit a checkpointed epoch, then drop it."""
        state = self.state
        # the funnel count and the digest, which hashes the whole trace
        with self._timed("digest"):
            state.epochs.append(trace.summary())
            _add_counts(state.selection, state.epochs[-1]["selection"])
        with self._timed("audit"):
            # a self-memory pair revalidates only against a tuple of the block
            # whose gold source is the pair's source, and each tuple only once
            self_memory = self.cfg.method.uses_self_memory
            unused: dict[str, list[int]] = {}
            if self_memory:
                examples = self.cfg.train.examples
                for k, i in enumerate(self.plan.epoch_indices[trace.epoch]):
                    unused.setdefault(examples[i].source_text, []).append(k)
                reserve_seen = set(state.reserve_keys)
            for pair in trace.subset:
                if pair.origin is Origin.GOLD and self_memory:
                    # a self-memory subset's gold pairs are reserve top-ups
                    if pair.key() not in reserve_seen:
                        reserve_seen.add(pair.key())
                        state.reserve_keys.append(pair.key())
                if pair.origin not in (Origin.SELF_MEMORY_Y_PRIME, Origin.SELF_MEMORY_Y_DPRIME):
                    continue
                positions = unused.get(pair.source_text, [])
                for k in positions:
                    tup = trace.tuples[k]
                    verdict = judge_pair(tup)
                    if verdict.accepted and elite_pair(tup, verdict, pair.source_text) == pair:
                        positions.remove(k)
                        state.revalidated += 1
                        break
                else:
                    state.stale.append(f"epoch {trace.epoch}: re-judge rejects {pair.key()!r}")

    def audit(self) -> dict:
        """Consistency checks over the facts each epoch left as it ended."""
        state = self.state
        stale = state.stale
        subset_sizes = [s["subset_size"] for s in state.epochs]
        checks = [
            {
                "name": "self-memory-pairs-revalidate",
                "passed": not stale,
                "detail": f"{state.revalidated} pairs re-judged" + ("" if not stale else f"; {stale[:3]}"),
            },
            {
                "name": "subset-size-equals-step1-size",
                "passed": all(n == self.plan.block_size for n in subset_sizes),
                "detail": f"block size {self.plan.block_size}, subset sizes {subset_sizes}",
            },
        ]

        if self.strategy is Strategy.FIXED_NON_OVERLAP:
            used = self.plan.used_indices()
            expected = self.plan.block_size * self.cfg.epochs
            detail = f"{len(used)} distinct indices used, expected {expected}, {len(self.plan.unused_indices())} unused"
            if state.reserve_keys:
                top_ups = state.selection["subset_origins"][Origin.GOLD.value]
                detail += f"; {top_ups} reserve top-ups from {len(state.reserve_keys)} distinct examples"
            checks.append(
                {
                    "name": "data-budget-disjoint-blocks",
                    "passed": len(used) == expected,
                    "detail": detail,
                }
            )

        checks.append(
            {
                "name": "subset-origins-allowed",
                "passed": not any(state.selection["subset_origins"][o.value] for o in Origin if o not in self._allowed),
                "detail": f"allowed: {sorted(o.value for o in self._allowed)}",
            }
        )

        return {"valid": all(c["passed"] for c in checks), "checks": checks}

    def _stage(self, epoch: int) -> str:
        return {-1: "bootstrap", self.cfg.epochs: "test evaluation"}.get(epoch, f"epoch {epoch + 1}")

    def _snapshot(self, epoch: int, reason: str) -> str:
        """Write the snapshot of a run that stopped in `epoch` to the resume
        path, if one is set; what to add to the stop's message, which names
        a write that failed."""
        if self.cfg.resume_path is None:
            return ""
        try:
            _write_json(self.cfg.resume_path, {"epoch": epoch, "reason": reason, "config": self.cfg.to_dict(), "state": self.state})
        except OSError as write_error:
            # the stop, not the failed write, is what the caller must see
            return f"; snapshot not written: {write_error}"
        return ""

    def run(self) -> RunReport:
        self.state = state = RunState()
        epoch = -1
        try:
            if self.cfg.method.uses_self_memory:
                with self._timed("step0-bootstrap"):
                    self.bootstrap()
            for epoch in range(self.cfg.epochs):
                self._close_epoch(self.select_checkpoint(self.run_epoch(epoch)))
            epoch = self.cfg.epochs
            with self._timed("evaluate-test"):
                final = self.evaluate_test()
        except (GatewayError, EmptySubsetError) as exc:
            message = f"{self._stage(epoch)} aborted: {exc}" + self._snapshot(epoch, str(exc))
            raise EpochError(message, epoch=epoch) from exc
        except KeyboardInterrupt as exc:
            message = f"interrupted during {self._stage(epoch)}" + self._snapshot(epoch, "interrupted")
            raise KeyboardInterrupt(message) from exc

        return RunReport(
            config=self.cfg.to_dict(),
            epoch_summaries=tuple(state.epochs),
            selection_stats=state.selection,
            final_metrics=final,
            audit=self.audit(),
            best=dict(state.best),
            timing=dict(state.timing),
        )
