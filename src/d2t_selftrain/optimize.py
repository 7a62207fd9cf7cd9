"""Greedy target optimization.

Walks the sentences of a generated target in order and keeps every sentence
that contributes at least one still-unmatched source value. When the kept
sentences jointly cover every source value they become the optimized target;
otherwise the input target is returned unchanged. Failure to optimize is a
normal outcome, not an error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .linearize import extract_source_values
from .records import RecordSet, normalize_text, value_in_text

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

    def to_dict(self) -> dict:
        return {
            "optimized": self.optimized,
            "changed": self.changed,
            "matched_values": list(self.matched_values),
            "kept_sentences": list(self.kept_sentences),
        }


def optimize_target(x: RecordSet, y_prime: str) -> OptimizationOutcome:
    """Greedy sentence selection over `y_prime` against the source values of `x`.

    Loop order is sentences outer, values inner; a sentence is kept the first
    time it contains a not-yet-matched value. If the matched values cover all
    source values, the kept sentences joined by single spaces replace the
    target (changed=True unless the join is identical); otherwise the target
    is returned verbatim with changed=False.
    """
    values = extract_source_values(x)
    sentences = split_sentences(y_prime)
    kept: list[str] = []
    matched: list[str] = []
    matched_keys: set[str] = set()
    for s in sentences:
        for v in values:
            k = v.casefold()
            if k in matched_keys:
                continue
            if value_in_text(v, s):
                matched_keys.add(k)
                matched.append(v)
                if s not in kept:
                    kept.append(s)
    if len(matched) == len(values) and values:
        optimized = " ".join(kept)
        return OptimizationOutcome(
            optimized=optimized,
            changed=optimized != y_prime,
            matched_values=tuple(matched),
            kept_sentences=tuple(kept),
        )
    return OptimizationOutcome(
        optimized=y_prime,
        changed=False,
        matched_values=tuple(matched),
        kept_sentences=tuple(kept),
    )
