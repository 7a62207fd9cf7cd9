"""Self-training pipeline for data-to-text generation.

A data-to-text model and an inverse text-to-data model bootstrap on gold
pairs, then alternate epochs of inferring their own training data: generated
targets are greedily optimized against the source values, judged by
length/coverage/reconstruction conditions, and the surviving pairs are
recycled as training subsets. Deterministic rule-based baselines make every
stage runnable without a neural model; external model servers attach over a
newline-delimited JSON protocol.
"""

from .datasets import load_dart, load_e2e, synthetic_dataset
from .errors import (
    AllocationError,
    DatasetError,
    DelinearizeError,
    EmptySubsetError,
    EpochError,
    GatewayError,
    LinearizationError,
    MetricError,
    PipelineError,
    RecordFieldError,
    VariantMismatchError,
)
from .gateway import (
    Backend,
    CheckpointAction,
    Direction,
    ModelHandle,
    RuleBasedD2T,
    RuleBasedT2D,
    checkpoint,
    external_handle,
    generate_batch,
    rule_based_handle,
    train_batch,
)
from .linearize import (
    DelinearizeResult,
    delinearize,
    linearize,
    render_records,
)
from .metrics import (
    MetricReport,
    OsfScore,
    bleu,
    cider,
    epm,
    evaluate_corpus,
    meteor,
    nist,
    osf,
    rouge_l,
    ter,
    tokenize,
)
from .optimize import optimize_target, split_sentences
from .pipeline import (
    DataMode,
    EpochTrace,
    Method,
    Orchestrator,
    RunConfig,
    strategy_for,
)
from .records import (
    Example,
    Mr,
    Origin,
    Pair,
    RecordKind,
    RecordSet,
    SelfMemTuple,
    Triple,
    normalize_text,
)
from .selection import (
    CaseId,
    Condition,
    Strategy,
    allocate,
    build_subset,
    derive_seed,
    judge_pair,
)
from .server import ModelServer, RuleServable

__version__ = "0.1.0"

__all__ = [
    "AllocationError",
    "Backend",
    "CaseId",
    "CheckpointAction",
    "Condition",
    "DataMode",
    "DatasetError",
    "DelinearizeError",
    "DelinearizeResult",
    "Direction",
    "EmptySubsetError",
    "EpochError",
    "EpochTrace",
    "Example",
    "GatewayError",
    "LinearizationError",
    "Method",
    "MetricError",
    "MetricReport",
    "ModelHandle",
    "ModelServer",
    "Mr",
    "Orchestrator",
    "Origin",
    "OsfScore",
    "Pair",
    "PipelineError",
    "RecordFieldError",
    "RecordKind",
    "RecordSet",
    "RuleBasedD2T",
    "RuleBasedT2D",
    "RuleServable",
    "RunConfig",
    "SelfMemTuple",
    "Strategy",
    "Triple",
    "VariantMismatchError",
    "allocate",
    "bleu",
    "build_subset",
    "checkpoint",
    "cider",
    "delinearize",
    "derive_seed",
    "epm",
    "evaluate_corpus",
    "external_handle",
    "generate_batch",
    "judge_pair",
    "linearize",
    "load_dart",
    "load_e2e",
    "meteor",
    "nist",
    "normalize_text",
    "optimize_target",
    "osf",
    "render_records",
    "rouge_l",
    "rule_based_handle",
    "split_sentences",
    "strategy_for",
    "synthetic_dataset",
    "ter",
    "tokenize",
    "train_batch",
]
