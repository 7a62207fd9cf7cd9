"""Benchmark of the d2t-selftrain pipeline.

    python3 perfbench/run.py --workload desk-run --seed 1 --seconds 30 --trace 0

Runs one workload (desk-run, served-run, gateway-rpc) from the root of
a checkout, on inputs made from --seed, for about --seconds seconds, and
checks every output. Each iteration sets the program up, runs one job and
tears it down; set-up and job are timed separately.

--trace 0 prints the end-to-end metrics: median set-up and job time, peak
RSS and the share of operations that were correct. --trace 1 instead runs
untraced and traced jobs by turns and prints the per-layer metrics taken
from spans around the program's public functions, with the tracing
overhead; the spans go to perfbench/out/spans-<workload>-<seed>.jsonl.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import shutil
import statistics
import sys
import tempfile
from array import array
from pathlib import Path
from time import perf_counter

import program

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

SETUPS = 21  # fewest set-ups timed in one run; setup_s is their median
SPAN_BUDGET = 200_000  # no traced job starts once this many spans are held


def measure(wl, seconds: float) -> tuple[dict, int, int, list[str]]:
    """End-to-end metrics of untraced jobs run for `seconds`."""
    setup_times, run_times = [], []
    latencies = array("d")  # gateway-rpc: every request's latency
    attempted = failed = 0

    def timed_setup():
        gc.collect()
        t0 = perf_counter()
        state = wl.setup()
        setup_times.append(perf_counter() - t0)
        return state

    start = perf_counter()
    while not run_times or perf_counter() - start < seconds:
        # Extra set-ups are spread over the run, so that their median is not
        # read off one short stretch of the host's speed.
        while len(setup_times) < SETUPS and len(setup_times) * seconds < SETUPS * (perf_counter() - start):
            wl.teardown(timed_setup())
        state = timed_setup()
        try:
            gc.collect()
            t0 = perf_counter()
            out = wl.job(state)
            run_times.append(perf_counter() - t0)
        finally:
            wl.teardown(state)
        a, f = wl.check(out)
        attempted += a
        failed += f
        latencies.extend(getattr(out, "latencies", ()))
        del out
    while len(setup_times) < SETUPS:
        wl.teardown(timed_setup())

    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (statistics.median(run_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_ratio": (1 - failed / attempted, "ratio"),
    }
    notes = [f"{len(run_times)} jobs, {len(setup_times)} set-ups"]
    if latencies:
        import tracing

        notes.append(
            f"requests {len(latencies)}, requests_per_s {len(latencies) / sum(run_times):.1f}, "
            f"latency_p50_ms {tracing.percentile(latencies, 50) * 1e3:.4f}, "
            f"latency_p99_ms {tracing.percentile(latencies, 99) * 1e3:.4f}")
    return metrics, attempted, failed, notes


def measure_traced(wl, seconds: float, spans_path: Path) -> tuple[dict, int, int, list[str]]:
    """Per-layer metrics from traced jobs, and the tracing overhead.

    One untraced warm-up job, then untraced and traced jobs by turns for
    `seconds` (at least one of each), so that both medians come from the
    same stretch of time; the overhead is their difference.
    """
    import tracing
    from d2t_selftrain.pipeline import RunReport

    tracer = tracing.Tracer()
    jobs, setups, reports = [], [], []
    run_times = {False: [], True: []}  # untraced, traced
    catalog = attempted = failed = 0
    start = perf_counter()
    for i in itertools.count():
        if i >= 3 and i % 2 == 1 and (perf_counter() - start >= seconds or len(tracer.spans) >= SPAN_BUDGET):
            break
        traced = i > 0 and i % 2 == 0
        if traced:
            tracing.install(tracer)
            tracer.run = f"setup{len(setups)}"
            setups.append(tracer.run)
        try:
            state = wl.setup(tracer.servable) if traced else wl.setup()
            tracer.run = f"job{len(jobs)}"
            try:
                t0 = perf_counter()
                out = wl.job(state)
                elapsed = perf_counter() - t0
            finally:
                tracer.run = "teardown"
                wl.teardown(state)
        finally:
            if traced:
                tracer.uninstall()
        if i > 0:
            run_times[traced].append(elapsed)
        if traced:
            jobs.append(f"job{len(jobs)}")
            if hasattr(wl, "catalog_entries"):
                catalog = wl.catalog_entries(state)
            if isinstance(out, RunReport):
                reports.append(out)
        a, f = wl.check(out)
        attempted += a
        failed += f

    metrics = tracing.layer_metrics(tracer.spans, jobs, setups, reports)
    metrics["gateway.t2d.catalog_entries"] = catalog
    metrics["trace.run_s"] = statistics.median(run_times[True])
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.median(run_times[False])
    tracer.write(spans_path)
    notes = [f"one warm-up, {len(run_times[False])} untraced and {len(jobs)} traced jobs, "
             f"{len(tracer.spans)} spans in {spans_path}"]
    return {k: (v, tracing.PER_LAYER[k]) for k, v in metrics.items()}, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        program.load()
    except program.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads  # imports the program, so only after program.load()

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    input_seed = args.seed % workloads.SEED_SLOTS
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        wl = workloads.make(args.workload, input_seed, workdir, workloads.load_expected())
        if args.trace:
            spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, attempted, failed, notes = measure_traced(wl, args.seconds, spans)
        else:
            metrics, attempted, failed, notes = measure(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload} seed {args.seed} (input seed {input_seed}): " + "; ".join(notes))
    print(f"operations attempted {attempted}, failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
