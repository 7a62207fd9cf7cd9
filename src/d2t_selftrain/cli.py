"""Command-line surface.

Subcommands:
  run          full self-training pipeline on dart/e2e files or the bundled
               synthetic corpus, writing a JSON run report
  eval         score a hypothesis file against references (tab-separated
               multi-reference), optionally with sources/reconstructions for
               the slot-based scores
  optimize     greedy target optimization for one source/target pair
  linearize    JSON record arrays on stdin -> linear strings on stdout
  delinearize  linear strings on stdin -> JSON record sets on stdout

Exit codes: 0 success, 1 error, 2 usage error, 3 a run whose audit failed
(its report is still written), 130 an interrupted command. During `run`,
SIGTERM interrupts as Ctrl-C does, so either writes the `--resume` snapshot
of the epochs closed so far.

`eval` reads each `--reconstructions` line as the run reads a T2D answer,
through `pipeline.read_answer`, so it reproduces a run's final metrics from
the run's test outputs, references, sources and T2D answers.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .datasets import SplitName, load_dart, load_e2e, read_lines, synthetic_dataset
from .errors import DatasetError, MetricError, PipelineError, RecordFieldError
from .gateway import Direction, RuleBasedT2D, external_handle, rule_based_handle
from .linearize import delinearize, linearize
from .metrics import evaluate_corpus
from .optimize import optimize_target
from .pipeline import DataMode, Method, Orchestrator, RunConfig, read_answer
from .records import RecordKind, RecordSet, json_default

EXIT_AUDIT_FAILED = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports Ctrl-C


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d2t-selftrain",
        description="Self-training pipeline for data-to-text generation with "
        "text-to-data validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the full pipeline and write a report")
    run.add_argument("--dataset", choices=("dart", "e2e", "synthetic"), required=True)
    run.add_argument("--train", type=Path, help="training split file (dart/e2e only)")
    run.add_argument("--val", type=Path, help="validation split file (dart/e2e only)")
    run.add_argument("--test", type=Path, help="test split file (dart/e2e only)")
    run.add_argument("--method", choices=[m.value for m in Method], required=True)
    run.add_argument("--ratio", type=float, default=0.3, help="epoch subset fraction")
    run.add_argument("--epochs", type=int, default=3)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument(
        "--data-mode",
        choices=[d.value for d in DataMode],
        default=DataMode.FIXED.value,
        help="epoch data regime for self-memory methods (baselines pin their own)",
    )
    run.add_argument("--d2t-endpoint", help="host:port of an external D2T server")
    run.add_argument("--t2d-endpoint", help="host:port of an external T2D server")
    run.add_argument("--report", type=Path, default=Path("report.json"))
    run.add_argument("--resume", type=Path, help="snapshot file written on abort")

    ev = sub.add_parser("eval", help="score hypotheses against references")
    ev.add_argument("--hyp", type=Path, required=True, help="one hypothesis per line")
    ev.add_argument(
        "--refs", type=Path, required=True, help="references per line, tab-separated"
    )
    ev.add_argument(
        "--sources", type=Path, help="linearized sources, enables the slot scores"
    )
    ev.add_argument(
        "--reconstructions",
        type=Path,
        help="linearized reconstructions (requires --sources)",
    )
    ev.add_argument("--kind", choices=[k.value for k in RecordKind], default="tripleset")
    ev.add_argument("--smoothing", action="store_true", help="BLEU add-one smoothing")
    ev.add_argument(
        "--scale-100", action="store_true", help="display 0-1 scores multiplied by 100"
    )

    opt = sub.add_parser("optimize", help="greedy target optimization for one pair")
    opt.add_argument("--source", required=True, help="linearized source record set")
    opt.add_argument("--target", required=True, help="generated target text")
    opt.add_argument("--kind", choices=[k.value for k in RecordKind], default="tripleset")

    sub.add_parser("linearize", help="stdin: JSON records per line; stdout: strings")

    delin = sub.add_parser(
        "delinearize", help="stdin: linear strings; stdout: JSON record sets"
    )
    delin.add_argument("--kind", choices=[k.value for k in RecordKind], default="tripleset")

    return parser


def _report_warnings(split) -> None:
    if split.load_warnings:
        head = "; ".join(split.load_warnings[:5])
        print(
            f"note: {len(split.load_warnings)} load warnings in {split.name.value} "
            f"split ({head}{'; ...' if len(split.load_warnings) > 5 else ''})",
            file=sys.stderr,
        )


def _cmd_run(args) -> int:
    # a report or snapshot that cannot be written is refused before the run, not after it
    for flag, path in (("--report", args.report), ("--resume", args.resume)):
        if path is not None and (path.is_dir() or not path.parent.is_dir()):
            problem = "it is a directory" if path.is_dir() else f"{path.parent} is not a directory"
            print(f"error: {flag} {path}: {problem}", file=sys.stderr)
            return 1
    if args.dataset == "synthetic":
        if args.train or args.val or args.test:
            print("error: --train/--val/--test do not apply to synthetic", file=sys.stderr)
            return 2
        train, val, test = synthetic_dataset(seed=args.seed)
    else:
        if not (args.train and args.val and args.test):
            print("error: --train, --val and --test are required for file datasets", file=sys.stderr)
            return 2
        load = load_dart if args.dataset == "dart" else load_e2e
        train = load(args.train, SplitName.TRAIN)
        val = load(args.val, SplitName.VALIDATION)
        test = load(args.test, SplitName.TEST)
        for split in (train, val, test):
            _report_warnings(split)

    if args.d2t_endpoint:
        d2t = external_handle(Direction.D2T, args.d2t_endpoint)
    else:
        d2t = rule_based_handle(Direction.D2T)
    if args.t2d_endpoint:
        t2d = external_handle(Direction.T2D, args.t2d_endpoint)
    else:
        catalog = RuleBasedT2D.from_examples(
            list(train.examples) + list(val.examples) + list(test.examples)
        )
        t2d = rule_based_handle(Direction.T2D, catalog)

    try:
        cfg = RunConfig(
            method=Method(args.method),
            d2t=d2t,
            t2d=t2d,
            train=train,
            val=val,
            test=test,
            epochs=args.epochs,
            ratio=args.ratio,
            seed=args.seed,
            data_mode=DataMode(args.data_mode),
            resume_path=args.resume,
        )
        report = Orchestrator(cfg).run()
    finally:
        d2t.close()
        t2d.close()
    report.write(args.report)
    m = report.final_metrics
    print(
        f"{args.method}: BLEU {m.bleu:.4f} METEOR {m.meteor:.4f} TER {m.ter:.4f}"
        f" EPM {m.epm:.4f} OSF-F1 {m.osf.f1:.4f}"
        + f" | audit {'ok' if report.audit['valid'] else 'FAILED'}"
        + f" | report {args.report}"
    )
    return 0 if report.audit["valid"] else EXIT_AUDIT_FAILED


def _parse_lines(name, lines: Iterable[str], parse) -> Iterator:
    """`parse` of each of `lines` as it comes; a line it refuses ends the
    command with a DatasetError naming `name` and the line, counted from 1."""
    for k, line in enumerate(lines, 1):
        try:
            yield parse(line)
        except (PipelineError, ValueError) as exc:
            raise DatasetError(f"{name} line {k}: {exc}") from exc


def _print_stdin(convert) -> int:
    """Print `convert` of each non-blank stdin line, without its end, as the
    line arrives; a blank line is skipped but counted."""
    lines = (line.removesuffix("\n").removesuffix("\r") for line in sys.stdin)
    for out in _parse_lines("<stdin>", lines, lambda line: convert(line) if line.strip() else None):
        if out is not None:
            print(out)
    return 0


def _references(line: str) -> list[str]:
    refs = [ref for ref in line.split("\t") if ref.strip()]
    if not refs:
        raise MetricError("no reference; every item needs at least one")
    return refs


def _cmd_eval(args) -> int:
    if args.reconstructions and not args.sources:
        print("error: --reconstructions requires --sources", file=sys.stderr)
        return 2
    candidates = read_lines(args.hyp)
    references = list(_parse_lines(args.refs, read_lines(args.refs), _references))
    kind = RecordKind(args.kind)
    sources = None
    reconstructions = None
    if args.sources:
        sources = list(
            _parse_lines(args.sources, read_lines(args.sources), lambda line: delinearize(line, kind).record_set)
        )
    if args.reconstructions:
        reconstructions = [read_answer(line, kind) for line in read_lines(args.reconstructions)]
    report = evaluate_corpus(
        candidates,
        references,
        sources=sources,
        reconstructions=reconstructions,
        smoothing=args.smoothing,
    )
    scale = 100.0 if args.scale_100 else 1.0
    print(json.dumps(report.to_dict(scale), indent=2, sort_keys=True))
    return 0


def _cmd_optimize(args) -> int:
    rs = delinearize(args.source, RecordKind(args.kind)).record_set
    outcome = optimize_target(rs, args.target)
    print(json.dumps(outcome, default=json_default, indent=2, ensure_ascii=False))
    return 0


def _record_set_from_json(line: str) -> RecordSet:
    try:
        data = json.loads(line)
    except RecursionError as exc:
        raise ValueError(f"JSON nested too deeply: {exc}") from exc
    if not isinstance(data, list):
        return RecordSet.from_dict(data)
    # a bare array of records: the first variant whose records it holds
    for kind in RecordKind:
        try:
            return RecordSet.from_dict({"kind": kind.value, "records": data})
        except RecordFieldError:
            continue
    raise ValueError(
        "each line must be a JSON record-set object or a uniform array of "
        "[s, p, o] or [key, value] string records"
    )


def _cmd_linearize() -> int:
    return _print_stdin(lambda line: linearize(_record_set_from_json(line)))


def _delinearized_json(line: str, kind: RecordKind) -> str:
    res = delinearize(line, kind)
    out = res.record_set.to_dict()
    out["dropped"] = res.dropped
    return json.dumps(out, ensure_ascii=False)


def _cmd_delinearize(args) -> int:
    kind = RecordKind(args.kind)
    return _print_stdin(lambda line: _delinearized_json(line, kind))


@contextmanager
def _sigterm_interrupts():
    """Within the block, SIGTERM raises KeyboardInterrupt as Ctrl-C does."""

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, interrupt)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            with _sigterm_interrupts():
                return _cmd_run(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "optimize":
            return _cmd_optimize(args)
        if args.command == "linearize":
            return _cmd_linearize()
        return _cmd_delinearize(args)
    except (PipelineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt as exc:
        # a run's interrupt names where it stopped and whether the snapshot was written
        print(f"error: {str(exc) or 'interrupted'}", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
