"""Greedy target optimization.

Walks the sentences of a generated target in order and keeps every sentence
that contributes at least one still-unmatched source value, a value being in
a sentence when `records.find_bounded` finds it there (case-folded and
word-bounded, as condition 1 of the selection reads it). When the kept
sentences jointly cover every source value they become the optimized target;
otherwise the input target is returned unchanged. Failure to optimize is a
normal outcome, not an error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .records import RecordSet, find_bounded, fold, normalize_text

_SENTENCE_BOUNDARY = re.compile(r"(?<=[.!?])\s+")


def split_sentences(t: str) -> list[str]:
    """Split on '.', '!' or '?' followed by whitespace or end of string.

    Terminators stay attached to their sentence; empty fragments are
    discarded. Deliberately has no abbreviation handling ("Dr. Who" splits),
    which only ever makes optimization more conservative.
    """
    text = normalize_text(t)
    if not text:
        return []
    return [s for s in _SENTENCE_BOUNDARY.split(text) if s]


@dataclass(frozen=True)
class OptimizationOutcome:
    optimized: str
    changed: bool
    matched_values: tuple[str, ...]
    kept_sentences: tuple[str, ...]


def optimize_target(x: RecordSet, y_prime: str) -> OptimizationOutcome:
    """Greedy sentence selection over `y_prime` against the source values of `x`.

    Loop order is sentences outer, values inner; a sentence is kept the first
    time it contains a not-yet-matched value. If the matched values cover all
    source values, the kept sentences joined by single spaces replace the
    target (changed=True unless the join is identical); otherwise the target
    is returned verbatim with changed=False.
    """
    values = x.source_values
    # values are distinct under case-folding, so each matches at most once
    unmatched = dict(zip(values, x.folded_values))
    kept: list[str] = []
    matched: list[str] = []
    for s in split_sentences(y_prime):
        text = fold(s)
        for v, k in list(unmatched.items()):
            if find_bounded(text, k) is not None:
                del unmatched[v]
                matched.append(v)
                if s not in kept:
                    kept.append(s)
    optimized = " ".join(kept) if values and not unmatched else y_prime
    return OptimizationOutcome(
        optimized=optimized,
        changed=optimized != y_prime,
        matched_values=tuple(matched),
        kept_sentences=tuple(kept),
    )
