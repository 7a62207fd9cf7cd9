"""In-memory span tracing around the program's public functions.

`install` replaces public functions in the namespaces where the pipeline,
the metrics module and the gateway look them up, so every call across a
module boundary records one span: name, start, end, parent span and run id.
Spans of the model-server thread take the client request in flight as their
parent. Nothing in the program changes; `uninstall` puts every original
back. The per-layer numbers are computed from the spans afterwards.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple, Optional

from d2t_selftrain import datasets, gateway, metrics, pipeline, selection

LAYERS = ("datasets", "linearize", "gateway", "server", "optimize", "selection", "metrics", "stemming", "pipeline")

# TER cost is reported per bucket of the longest reference's token count
# (gold targets of 1, 2 and 3 triples run to about 15, 28 and 42 tokens).
TER_BUCKETS = ((20, "short"), (33, "medium"), (math.inf, "long"))

# Report timing keys of `Orchestrator.run`, per pipeline stage metric.
STAGE_KEYS = {
    "bootstrap": ("step0-bootstrap",),
    "infer_y_prime": ("step2-infer-y-prime",),
    "infer_x_prime": ("step3-infer-x-prime",),
    "optimize": ("step4-optimize",),
    "infer_x_dprime": ("step4-infer-x-dprime",),
    "select": ("step5-select",),
    "train": ("step6a-train-d2t", "step6b-train-t2d"),
    "validation": ("validation",),
    "evaluate_test": ("evaluate-test",),
}


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


def percentile(samples, q: float, beyond: int = 10) -> float:
    """Nearest-rank q-th percentile of `samples`.

    Raises TooFewSamples unless at least `beyond` samples rank above it, so
    a tail figure is never read off a handful of points.
    """
    xs = sorted(samples)
    rank = max(1, math.ceil(round(q / 100 * len(xs), 9)))  # round off float dust
    if len(xs) - rank < beyond:
        raise TooFewSamples(f"p{q:g} of {len(xs)} samples has {len(xs) - rank} beyond it, needs {beyond}")
    return xs[rank - 1]


class Span(NamedTuple):
    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    run: str
    attrs: Optional[dict]

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans from the client thread and the model-server threads.

    One request is in flight at a time, so a server-side span's parent is
    the client RPC span recorded in `remote_parent`.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run = "setup"
        self.remote_parent: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, describe: Optional[Callable] = None,
             note: Optional[Callable] = None) -> Callable:
        """`fn` recording one span per call. `describe(*args, **kwargs)`
        gives (name, attrs) when they depend on the arguments; `note(result)`
        adds attributes of the result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label, attrs = (name, None) if describe is None else describe(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else tracer.remote_parent
            rpc = label.startswith("gateway.rpc.")
            stack.append(sid)
            if rpc:
                tracer.remote_parent = sid
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                attrs = {**(attrs or {}), "error": True}
                raise
            else:
                if note is not None:
                    attrs = {**(attrs or {}), **note(result)}
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if rpc:
                    tracer.remote_parent = None
                tracer.spans.append(Span(sid, parent, label, start, end, tracer.run, attrs))

        return traced

    def patch(self, owner, attr: str, name: str, **kwargs) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **kwargs))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def servable(self, inner) -> "TracedServable":
        return TracedServable(self, inner)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict(), ensure_ascii=False) + "\n")


class TracedServable:
    """Servable proxy that records one `server.<cmd>` span per request."""

    def __init__(self, tracer: Tracer, inner):
        for cmd in ("generate", "train", "save", "load"):
            setattr(self, cmd, tracer.wrap(getattr(inner, cmd), f"server.{cmd}"))


def _handle_call(kind: str, local: str):
    """describe() for gateway calls: RPC spans for external handles."""

    def describe(h, arg, *rest, **kwargs):
        attrs = {"direction": h.direction.value}
        if kind == "generate":
            attrs["inputs"] = len(arg)
        elif kind == "train":
            attrs["pairs"] = len(arg)
        cmd = arg.value if kind == "checkpoint" else kind
        if h.backend is gateway.Backend.EXTERNAL:
            return f"gateway.rpc.{cmd}", attrs
        return local, attrs

    return describe


def _ter_bucket(candidate, references, *args, **kwargs):
    longest = max(len(metrics.tokenize(r)) for r in references)
    return "metrics.ter", {"bucket": next(b for bound, b in TER_BUCKETS if longest < bound)}


def install(tracer: Tracer) -> None:
    """Wrap the public functions where pipeline, metrics, selection and
    gateway look them up, plus the Orchestrator's public methods."""
    generate = dict(describe=_handle_call("generate", "gateway.generate_batch"))
    train = dict(describe=_handle_call("train", "gateway.train_batch"))
    ckpt = dict(describe=_handle_call("checkpoint", "gateway.checkpoint"))
    for ns in (pipeline, gateway):
        tracer.patch(ns, "generate_batch", "", **generate)
        tracer.patch(ns, "train_batch", "", **train)
        tracer.patch(ns, "checkpoint", "", **ckpt)
        tracer.patch(ns, "delinearize", "linearize.delinearize")
    tracer.patch(datasets, "load_dart", "datasets.load_dart")
    tracer.patch(gateway.RuleBasedD2T, "generate", "gateway.d2t.generate")
    tracer.patch(gateway.RuleBasedT2D, "generate", "gateway.t2d.generate")
    tracer.patch(gateway.RuleBasedT2D, "__init__", "gateway.catalog_build")
    for ns in (pipeline, metrics):
        tracer.patch(ns, "evaluate_corpus", "metrics.evaluate_corpus")
    for fn in ("bleu", "nist", "meteor", "rouge_l", "cider", "epm", "osf"):
        tracer.patch(metrics, fn, f"metrics.{fn}")
    tracer.patch(metrics, "ter", "", describe=_ter_bucket)
    tracer.patch(metrics, "stem", "stemming.stem")
    tracer.patch(pipeline, "meteor", "metrics.meteor")
    tracer.patch(pipeline, "osf", "metrics.osf")
    tracer.patch(selection, "osf", "metrics.osf")
    tracer.patch(pipeline, "optimize_target", "optimize.optimize_target", note=lambda r: {"changed": r.changed})
    tracer.patch(pipeline, "judge_pair", "selection.judge_pair")
    tracer.patch(pipeline, "build_subset", "selection.build_subset")
    for method in ("run", "bootstrap", "run_epoch", "select_checkpoint", "evaluate_test", "audit"):
        tracer.patch(pipeline.Orchestrator, method, f"pipeline.{method}")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = s.end - s.start - covered
    return out


# Every per-layer metric, with its unit, in the order it is printed.
PER_LAYER = {
    **{f"gateway.{d}.{m}": u for d in ("t2d", "d2t") for m, u in
       (("calls", "count"), ("inputs", "count"), ("busy_s", "s"), ("us_per_input", "us"))},
    "gateway.t2d.catalog_entries": "count",
    "gateway.train.calls": "count",
    "gateway.train.pairs": "count",
    "gateway.checkpoint.calls": "count",
    "gateway.catalog_build_s": "s",
    "gateway.rpc.overhead_us": "us",
    "linearize.delinearize.calls": "count",
    "linearize.delinearize.busy_s": "s",
    "server.requests": "count",
    "server.model_busy_s": "s",
    "server.errors": "count",
    **{f"metrics.{m}_s": "s" for m in ("bleu", "nist", "meteor", "rouge_l", "cider", "ter", "epm", "osf")},
    **{f"metrics.ter_ms.{b}": "ms" for _, b in TER_BUCKETS},
    "stemming.calls": "count",
    "stemming.busy_s": "s",
    "optimize.calls": "count",
    "optimize.busy_s": "s",
    "optimize.changed_ratio": "ratio",
    "selection.judge.calls": "count",
    "selection.judge.busy_s": "s",
    "selection.accept_ratio": "ratio",
    "selection.case1": "count",
    "selection.case2": "count",
    "selection.build_subset_s": "s",
    **{f"pipeline.{k}_s": "s" for k in (*STAGE_KEYS, "audit", "epoch")},
    "datasets.load_s": "s",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[Span], jobs: list[str], setups: list[str], reports: list) -> dict[str, float]:
    """Per-layer metrics averaged over the traced jobs (`jobs` run ids) and
    set-ups (`setups` run ids). `reports` are the jobs' RunReports, if any."""
    out = dict.fromkeys(PER_LAYER, 0.0)
    n = len(jobs)
    job_ids = set(jobs)
    job_spans = [s for s in spans if s.run in job_ids]
    setup_ids = set(setups)
    for s in spans:
        if s.run in setup_ids:
            key = {"datasets.load_dart": "datasets.load_s", "gateway.catalog_build": "gateway.catalog_build_s"}.get(s.name)
            if key:
                out[key] += (s.end - s.start) / len(setups)

    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in job_spans:
        by_name[s.name].append(s)

    def busy(name: str) -> float:
        return sum(s.end - s.start for s in by_name[name])

    for d in ("d2t", "t2d"):
        calls = [s for name in ("gateway.generate_batch", "gateway.rpc.generate")
                 for s in by_name[name] if s.attrs["direction"] == d]
        inputs = sum(s.attrs["inputs"] for s in calls)
        out[f"gateway.{d}.calls"] = len(calls) / n
        out[f"gateway.{d}.inputs"] = inputs / n
        out[f"gateway.{d}.busy_s"] = busy(f"gateway.{d}.generate") / n
        out[f"gateway.{d}.us_per_input"] = busy(f"gateway.{d}.generate") / inputs * 1e6 if inputs else 0.0
    trains = by_name["gateway.train_batch"] + by_name["gateway.rpc.train"]
    out["gateway.train.calls"] = len(trains) / n
    out["gateway.train.pairs"] = sum(s.attrs["pairs"] for s in trains) / n
    out["gateway.checkpoint.calls"] = sum(
        len(by_name[k]) for k in ("gateway.checkpoint", "gateway.rpc.save", "gateway.rpc.load")) / n

    out["linearize.delinearize.calls"] = len(by_name["linearize.delinearize"]) / n
    out["linearize.delinearize.busy_s"] = busy("linearize.delinearize") / n

    server = [s for s in job_spans if s.layer == "server"]
    out["server.requests"] = len(server) / n
    out["server.model_busy_s"] = sum(s.end - s.start for s in server) / n
    out["server.errors"] = sum(1 for s in server if (s.attrs or {}).get("error")) / n
    server_time: dict[int, float] = defaultdict(float)
    for s in server:
        server_time[s.parent] += s.end - s.start
    rpc = [s for s in job_spans if s.name.startswith("gateway.rpc.")]
    if rpc:
        out["gateway.rpc.overhead_us"] = statistics.median(
            (s.end - s.start - server_time[s.sid]) * 1e6 for s in rpc)

    for m in ("bleu", "nist", "meteor", "rouge_l", "cider", "ter", "epm", "osf"):
        out[f"metrics.{m}_s"] = busy(f"metrics.{m}") / n
    for _, bucket in TER_BUCKETS:
        ters = [s.end - s.start for s in by_name["metrics.ter"] if s.attrs["bucket"] == bucket]
        out[f"metrics.ter_ms.{bucket}"] = statistics.fmean(ters) * 1e3 if ters else 0.0

    out["stemming.calls"] = len(by_name["stemming.stem"]) / n
    out["stemming.busy_s"] = busy("stemming.stem") / n
    opts = by_name["optimize.optimize_target"]
    out["optimize.calls"] = len(opts) / n
    out["optimize.busy_s"] = busy("optimize.optimize_target") / n
    out["optimize.changed_ratio"] = sum(s.attrs["changed"] for s in opts) / len(opts) if opts else 0.0
    out["selection.judge.calls"] = len(by_name["selection.judge_pair"]) / n
    out["selection.judge.busy_s"] = busy("selection.judge_pair") / n
    out["selection.build_subset_s"] = busy("selection.build_subset") / n
    out["pipeline.audit_s"] = busy("pipeline.audit") / n
    out["pipeline.epoch_s"] = busy("pipeline.run_epoch") / n

    for report in reports:
        stats = report.selection_stats
        judged = stats["accepted_case1"] + stats["accepted_case2"] + stats["rejected"]
        out["selection.case1"] += stats["accepted_case1"] / n
        out["selection.case2"] += stats["accepted_case2"] / n
        out["selection.accept_ratio"] += (judged - stats["rejected"]) / judged / n if judged else 0.0
        for stage, keys in STAGE_KEYS.items():
            out[f"pipeline.{stage}_s"] += sum(report.timing.get(k, 0.0) for k in keys) / n

    selfs = self_times(spans)
    for s in job_spans:
        out[f"self_s.{s.layer}"] += selfs[s.sid] / n
    out["trace.spans"] = len(job_spans) / n
    return out
