"""The three benchmark workloads: set-up, one timed job, teardown and the
correctness check of each job's output.

A workload is built from an input seed (and a scratch directory where it
writes input files). `setup(wrap_servable)` does what a user of the program
pays before work starts; every servable handed to a ModelServer goes through
`wrap_servable`, which the traced run uses. `job(state)` is the timed unit
of work, and `check(output)` returns (attempted, failed) for that job.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import inputs
from d2t_selftrain import datasets, gateway, pipeline, server
from d2t_selftrain.errors import GatewayError
from d2t_selftrain.records import record_key

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

# Input seeds are --seed modulo this; expected.json holds the recorded
# outcome of every input seed.
SEED_SLOTS = 32

METHOD = pipeline.Method.SELF_MEM_NEW_DATA_SELF_T2D


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def report_digest(report) -> str:
    """sha256 of the timing-free report without its final metrics, with
    server endpoints (ephemeral loopback ports) replaced by a placeholder.

    The final metrics are compared within a tolerance instead (see
    `scores`): CIDEr sums over a set intersection, so its last bit depends
    on the process's string hash seed.
    """
    data = report.to_dict(include_timing=False)
    del data["final_metrics"]
    for direction in ("d2t", "t2d"):
        if data["config"][direction]["endpoint"] is not None:
            data["config"][direction]["endpoint"] = "loopback"
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class VerboseD2T(server.RuleServable):
    """D2T servable writing the rule-based rendering plus one filler sentence.

    The filler is picked from `inputs.FILLERS` by a hash of the seed and the
    source, so the output is deterministic per input. It carries no source
    value, so the optimizer strips it and selection judges the stripped
    target (Case 2).
    """

    def __init__(self, seed: int):
        super().__init__(gateway.RuleBasedD2T())
        self.seed = seed

    def generate(self, inputs_: list[str], max_len: int, min_len: int) -> list[str]:
        return [self._verbose(source) for source in inputs_]

    def _verbose(self, source: str) -> str:
        text = self.model.generate(source)
        if not text:
            return text
        pick = hashlib.sha256(f"{self.seed}:{source}".encode("utf-8")).digest()[0]
        return f"{text} {inputs.FILLERS[pick % len(inputs.FILLERS)]}"


def scores(metric_report) -> dict[str, float]:
    """A MetricReport as one flat name -> value dict."""
    flat = metric_report.to_dict()
    flat.update({f"osf_{k}": v for k, v in flat.pop("osf").items()})
    return flat


def same_scores(got: dict, want: Optional[dict]) -> bool:
    return want is not None and want.keys() == got.keys() and all(abs(got[k] - want[k]) <= 1e-9 for k in want)


def _untraced(servable):
    return servable


@dataclass
class PipelineState:
    orchestrator: pipeline.Orchestrator
    examples: tuple
    handles: list
    servers: list = field(default_factory=list)


class PipelineRun:
    """`desk-run` (rule-based models in process) and `served-run` (both
    models behind ModelServer on loopback, verbose D2T)."""

    def __init__(self, name: str, seed: int, workdir: Path, n_train: int, n_eval: int, served: bool,
                 expected: Optional[dict]):
        self.name = name
        self.seed = seed
        self.served = served
        self.paths = inputs.write_dart_splits(workdir, seed, n_train, n_eval, n_eval)
        self.expected = None if expected is None else expected[name].get(str(seed))

    def setup(self, wrap_servable=_untraced) -> PipelineState:
        train = datasets.load_dart(self.paths["train"], datasets.SplitName.TRAIN)
        val = datasets.load_dart(self.paths["dev"], datasets.SplitName.VALIDATION)
        test = datasets.load_dart(self.paths["test"], datasets.SplitName.TEST)
        examples = train.examples + val.examples + test.examples
        catalog = gateway.RuleBasedT2D.from_examples(list(examples))
        servers = []
        if self.served:
            servers = [
                server.ModelServer(wrap_servable(VerboseD2T(self.seed))).start(),
                server.ModelServer(wrap_servable(server.RuleServable(catalog))).start(),
            ]
            d2t = gateway.external_handle(gateway.Direction.D2T, servers[0].endpoint)
            t2d = gateway.external_handle(gateway.Direction.T2D, servers[1].endpoint)
        else:
            d2t = gateway.rule_based_handle(gateway.Direction.D2T)
            t2d = gateway.rule_based_handle(gateway.Direction.T2D, catalog)
        cfg = pipeline.RunConfig(method=METHOD, d2t=d2t, t2d=t2d, train=train, val=val, test=test,
                                 epochs=3, ratio=0.3, seed=self.seed)
        return PipelineState(pipeline.Orchestrator(cfg), examples, [d2t, t2d], servers)

    def job(self, state: PipelineState):
        return state.orchestrator.run()

    def teardown(self, state: PipelineState) -> None:
        for h in state.handles:
            h.close()
        for s in state.servers:
            s.stop()

    def failures(self, report) -> list[str]:
        """Names of the checks this run's report fails."""
        failed = []
        if not report.audit["valid"]:
            failed.append("audit")
        if report.final_metrics.epm != 1.0:
            failed.append("epm")
        if self.expected is None or report_digest(report) != self.expected["digest"]:
            failed.append("digest")
        if self.expected is None or not same_scores(scores(report.final_metrics), self.expected["final_metrics"]):
            failed.append("final_metrics")
        if self.served and report.selection_stats["accepted_case2"] == 0:
            failed.append("case2")
        return failed

    def check(self, report) -> tuple[int, int]:
        return 1, int(bool(self.failures(report)))

    @staticmethod
    def outcome(report) -> dict:
        """What expected.json records for one run."""
        return {"digest": report_digest(report), "final_metrics": scores(report.final_metrics)}

    @staticmethod
    def catalog_entries(state: PipelineState) -> int:
        return len({record_key(r) for ex in state.examples for r in ex.source.records})


@dataclass
class RpcState:
    srv: server.ModelServer
    handle: gateway.ModelHandle


@dataclass
class RpcPass:
    latencies: list
    failed: int


class GatewayRpc:
    """`gateway-rpc`: one client in a closed loop against
    ModelServer(RuleServable(RuleBasedD2T())); a job is one pass of the mix."""

    PASS_REQUESTS = 3000

    def __init__(self, seed: int):
        self.mix = inputs.rpc_mix(seed, self.PASS_REQUESTS)
        model = gateway.RuleBasedD2T()
        self.expected_outputs = {
            source: model.generate(source) for cmd, arg in self.mix if cmd == "generate" for source in arg}

    def setup(self, wrap_servable=_untraced) -> RpcState:
        srv = server.ModelServer(wrap_servable(server.RuleServable(gateway.RuleBasedD2T()))).start()
        handle = gateway.external_handle(gateway.Direction.D2T, srv.endpoint)
        gateway.checkpoint(handle, gateway.CheckpointAction.SAVE, "base")
        return RpcState(srv, handle)

    def job(self, state: RpcState) -> RpcPass:
        h = state.handle
        latencies = []
        failed = 0
        for cmd, arg in self.mix:
            start = perf_counter()
            try:
                if cmd == "generate":
                    out = gateway.generate_batch(h, arg)
                elif cmd == "train":
                    out = gateway.train_batch(h, arg)
                else:
                    out = gateway.checkpoint(h, gateway.CheckpointAction(cmd), arg)
            except GatewayError:
                out = GatewayError
            latencies.append(perf_counter() - start)
            if cmd == "generate":
                failed += out != [self.expected_outputs[s] for s in arg]
            elif cmd == "train":
                failed += out is GatewayError or out.loss != float(len(arg))
            else:
                failed += out is GatewayError
        return RpcPass(latencies, failed)

    def teardown(self, state: RpcState) -> None:
        state.handle.close()
        state.srv.stop()

    def check(self, result: RpcPass) -> tuple[int, int]:
        return len(result.latencies), result.failed


WORKLOADS = ("desk-run", "served-run", "gateway-rpc")


def make(name: str, seed: int, workdir: Path, expected: Optional[dict] = None):
    """The workload `name` on input seed `seed`; `expected` is the table of
    recorded outputs (load_expected()), or None to run unchecked."""
    if name == "desk-run":
        return PipelineRun(name, seed, workdir, n_train=1000, n_eval=100, served=False, expected=expected)
    if name == "served-run":
        return PipelineRun(name, seed, workdir, n_train=300, n_eval=30, served=True, expected=expected)
    if name == "gateway-rpc":
        return GatewayRpc(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
