"""Elite-pair filtering, training-subset assembly, and epoch allocation.

A generated target is "elite" when it is shorter than the gold target (in
characters, whitespace-normalized), still contains every source value (by
`records.find_bounded`: case-folded and word-bounded, the rule the T2D model
recovers values by), and its text-to-data reconstruction introduces no
record absent from the source. Case 1 judges the raw generation y', Case 2
judges the optimized target y'' whenever optimization changed it. Accepted
pairs are mixed with the untouched gold pairs (optionally) and down-sampled
or topped up to the fixed subset size.

All randomness flows from one run seed through named sub-seeds so every
strategy is independently reproducible.
"""

from __future__ import annotations

import enum
import hashlib
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import AllocationError, EmptySubsetError
from .metrics import osf
from .records import Example, Origin, Pair, RecordSet, SelfMemTuple, find_bounded, normalize_text


def derive_seed(seed: int, label: str) -> int:
    """Stable named sub-seed, identical across platforms and runs."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class CaseId(enum.Enum):
    CASE1 = "case1"
    CASE2 = "case2"
    NONE = "none"


class Condition(enum.Enum):
    LEN_NOT_SHORTER = "len-not-shorter"
    MISSING_SOURCE_VALUE = "missing-source-value"
    NOT_SUBSET_OF_SOURCE = "not-subset-of-source"


@dataclass(frozen=True)
class SelectionVerdict:
    accepted: bool
    case_id: CaseId
    failed_conditions: tuple[Condition, ...]

    def to_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "case_id": self.case_id.value,
            "failed_conditions": [c.value for c in self.failed_conditions],
        }


def _judge_candidate(
    x: RecordSet, y: str, y_cand: str, x_cand: Optional[RecordSet]
) -> tuple[Condition, ...]:
    failed = []
    candidate = normalize_text(y_cand)
    if not len(candidate) < len(normalize_text(y)):
        failed.append(Condition.LEN_NOT_SHORTER)
    text = candidate.casefold()
    if not all(find_bounded(text, v) is not None for v in x.folded_values):
        failed.append(Condition.MISSING_SOURCE_VALUE)
    # Subset check via reconstruction precision: 1.0 means every reconstructed
    # record matches a source record. An empty or missing reconstruction
    # proves nothing and fails.
    if x_cand is None or x_cand.is_empty or osf(x, x_cand).precision != 1.0:
        failed.append(Condition.NOT_SUBSET_OF_SOURCE)
    return tuple(failed)


def judge_pair(tup: SelfMemTuple) -> SelectionVerdict:
    """Apply the elite-pair conditions to one self-memory tuple.

    Case 1 when optimization left y' unchanged (judges y' against x'),
    Case 2 when a new optimized target exists (judges y'' against x'').
    A tuple whose generation failed outright is rejected with no case.
    """
    if tup.y_prime is None:
        return SelectionVerdict(
            accepted=False,
            case_id=CaseId.NONE,
            failed_conditions=(Condition.MISSING_SOURCE_VALUE,),
        )
    if tup.y_dprime is None or tup.y_dprime == tup.y_prime:
        case = CaseId.CASE1
        y_cand, x_cand = tup.y_prime, tup.x_prime
    else:
        case = CaseId.CASE2
        y_cand, x_cand = tup.y_dprime, tup.x_dprime
    failed = _judge_candidate(tup.x, tup.y, y_cand, x_cand)
    return SelectionVerdict(accepted=not failed, case_id=case, failed_conditions=failed)


def elite_pair(
    tup: SelfMemTuple,
    verdict: SelectionVerdict,
    source_text: str,
    tuple_index: Optional[int] = None,
) -> Pair:
    """The accepted pair for a tuple, tagged by which target was selected."""
    if verdict.case_id is CaseId.CASE2:
        return Pair(source_text, tup.y_dprime, Origin.SELF_MEMORY_Y_DPRIME, tuple_index)
    return Pair(source_text, tup.y_prime, Origin.SELF_MEMORY_Y_PRIME, tuple_index)


def build_subset(
    gold: Sequence[Example],
    tuples: Sequence[SelfMemTuple],
    verdicts: Sequence[SelectionVerdict],
    target_size: int,
    seed: int,
    reserve: Sequence[Example],
    include_remaining: bool = True,
) -> list[Pair]:
    """Assemble the self-training subset for one epoch.

    Accepted tuples contribute their elite pair; rejected ones contribute the
    gold pair when `include_remaining` (the "new data" regimes). The union is
    deduplicated on (source_text, target_text), down-sampled uniformly when it
    exceeds `target_size`, and topped up from `reserve` in seeded order when
    it falls short.
    """
    if len(gold) != len(tuples) or len(gold) != len(verdicts):
        raise ValueError("gold, tuples and verdicts must be aligned index-wise")
    if target_size < 1:
        raise ValueError("target_size must be at least 1")

    union: list[Pair] = []
    seen: set[tuple[str, str]] = set()
    for index, (ex, tup, verdict) in enumerate(zip(gold, tuples, verdicts)):
        if verdict.accepted:
            pair = elite_pair(tup, verdict, ex.source_text, index)
        elif include_remaining:
            pair = Pair(ex.source_text, ex.target, Origin.REMAINING)
        else:
            continue
        if pair.key() not in seen:
            seen.add(pair.key())
            union.append(pair)

    if len(union) > target_size:
        rng = random.Random(seed)
        chosen = sorted(rng.sample(range(len(union)), target_size))
        return [union[i] for i in chosen]

    if len(union) < target_size and reserve:
        rng = random.Random(derive_seed(seed, "top-up"))
        order = list(range(len(reserve)))
        rng.shuffle(order)
        for i in order:
            ex = reserve[i]
            pair = Pair(ex.source_text, ex.target, Origin.GOLD)
            if pair.key() in seen:
                continue
            seen.add(pair.key())
            union.append(pair)
            if len(union) == target_size:
                break

    if not union:
        raise EmptySubsetError(
            "no accepted pairs, no remaining pairs, and the reserve is empty"
        )
    return union


class Strategy(enum.Enum):
    FIXED_NON_OVERLAP = "fixed-non-overlap"
    FIXED_REPEATED = "fixed-repeated"
    RANDOM_PER_EPOCH = "random-per-epoch"


@dataclass(frozen=True)
class SubsetPlan:
    epoch_indices: tuple[tuple[int, ...], ...]
    n_examples: int

    @property
    def block_size(self) -> int:
        return len(self.epoch_indices[0]) if self.epoch_indices else 0

    def used_indices(self) -> set[int]:
        return {i for block in self.epoch_indices for i in block}

    def unused_indices(self) -> list[int]:
        used = self.used_indices()
        return [i for i in range(self.n_examples) if i not in used]


def block_size(n_examples: int, ratio: float) -> int:
    # epsilon guards against 0.29 * 100 == 28.999... style float dust
    return math.floor(ratio * n_examples + 1e-9)


def allocate(
    n_examples: int, strategy: Strategy, ratio: float, epochs: int, seed: int
) -> SubsetPlan:
    """Plan which example indices each epoch trains on.

    Fixed non-overlapping plans partition a seeded shuffle into consecutive
    blocks; the repeated plan reuses block 0; the random plan draws an
    independent seeded sample per epoch (cross-epoch overlap allowed).
    """
    if not 0 < ratio <= 1:
        raise AllocationError(f"ratio must be in (0, 1], got {ratio}")
    if epochs < 1:
        raise AllocationError("epochs must be at least 1")
    if n_examples < epochs:
        raise AllocationError(f"{n_examples} examples cannot serve {epochs} epochs")
    k = block_size(n_examples, ratio)
    if k < 1:
        raise AllocationError(f"ratio {ratio} of {n_examples} examples is an empty block")
    if strategy is Strategy.FIXED_NON_OVERLAP and k * epochs > n_examples:
        raise AllocationError(
            f"{epochs} disjoint blocks of {k} exceed {n_examples} examples"
        )

    if strategy is Strategy.RANDOM_PER_EPOCH:
        blocks = tuple(
            tuple(
                random.Random(derive_seed(seed, f"allocate-epoch{e}")).sample(
                    range(n_examples), k
                )
            )
            for e in range(epochs)
        )
    else:
        order = list(range(n_examples))
        random.Random(derive_seed(seed, "allocate")).shuffle(order)
        if strategy is Strategy.FIXED_NON_OVERLAP:
            blocks = tuple(tuple(order[e * k : (e + 1) * k]) for e in range(epochs))
        else:
            first = tuple(order[:k])
            blocks = tuple(first for _ in range(epochs))
    return SubsetPlan(epoch_indices=blocks, n_examples=n_examples)
