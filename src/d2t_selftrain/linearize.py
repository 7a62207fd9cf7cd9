"""Linear string format for record sets, and its inverse parser.

Triplesets render as "s : p : o | s : p : o | ...". MR sets render each pair
as "k : v" with the common-subject pair placed first, e.g.
"name : The Golden Curry | food : English | ...". The inverse parser exists
because text-to-data model output arrives as linearized strings and must be
interpreted even when partially malformed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DelinearizeError, LinearizationError, RecordFieldError
from .records import (
    FIELD_SEP,
    RECORD_SEP,
    Mr,
    Record,
    RecordKind,
    RecordSet,
    Triple,
    normalize_text,
)


@dataclass(frozen=True)
class DelinearizeResult:
    """Parsed record set plus the number of malformed segments dropped."""

    record_set: RecordSet
    dropped: int


def _subject_index(rs: RecordSet, subject_key: str) -> int:
    matches = [
        i for i, r in enumerate(rs.records) if r.key.casefold() == subject_key.casefold()
    ]
    if len(matches) != 1:
        raise LinearizationError(
            f"MR set must contain the subject pair {subject_key!r} exactly once, "
            f"found {len(matches)}"
        )
    return matches[0]


def render_records(records) -> str:
    """Join records in the given order without structural validation."""
    return RECORD_SEP.join(FIELD_SEP.join(r.fields) for r in records)


def linearize(rs: RecordSet, subject_key: str = "name") -> str:
    """Render a valid record set in the linear string format.

    For MR sets the common-subject pair, the one keyed `subject_key`
    (case-folded), is moved to the front; everything else keeps its original
    order. Fields need no check here: records reject the separators when
    they are built.
    """
    if rs.is_empty:
        raise LinearizationError("cannot linearize an empty record set")
    if rs.kind is RecordKind.MR_SET:
        si = _subject_index(rs, subject_key)
        ordered = (rs.records[si],) + rs.records[:si] + rs.records[si + 1 :]
        return render_records(ordered)
    return render_records(rs.records)


def delinearize(t: str, kind: RecordKind) -> DelinearizeResult:
    """Parse a linearized string back into a record set.

    Input may be arbitrary model output: segments that do not split into the
    exact field count for `kind` are dropped and counted, never fabricated.
    Raises DelinearizeError (carrying the drop count) when nothing parses.
    """
    n_fields = 3 if kind is RecordKind.TRIPLESET else 2
    make = Triple if kind is RecordKind.TRIPLESET else Mr
    records: list[Record] = []
    dropped = 0
    text = normalize_text(t)
    segments = text.split(RECORD_SEP) if text else []
    for seg in segments:
        fields = [normalize_text(f) for f in seg.split(FIELD_SEP)]
        if len(fields) != n_fields or not all(fields):
            dropped += 1
            continue
        try:
            records.append(make(*fields))
        except RecordFieldError:
            dropped += 1
    if not records:
        raise DelinearizeError(
            f"no parseable {kind.value} segment in {t!r} ({dropped} dropped)",
            dropped=dropped,
        )
    return DelinearizeResult(RecordSet(tuple(records), kind), dropped)


def extract_source_values(rs: RecordSet) -> tuple[str, ...]:
    """Values a generated target is expected to contain, in first-occurrence
    order: subjects and objects for triplesets, the subject name and all
    values for MR sets. Predicates and keys are not source values.
    """
    out: list[str] = []
    seen: set[str] = set()

    def add(v: str) -> None:
        k = v.casefold()
        if k not in seen:
            seen.add(k)
            out.append(v)

    for r in rs.records:
        if isinstance(r, Triple):
            add(r.subject)
            add(r.object)
        else:
            add(r.value)
    return tuple(out)
