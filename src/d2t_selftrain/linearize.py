"""Linear string format for record sets, and its inverse parser.

Triplesets render as "s : p : o | s : p : o | ...". MR sets render each pair
as "k : v" with the common-subject pair placed first, e.g.
"name : The Golden Curry | food : English | ...". The inverse parser exists
because text-to-data model output arrives as linearized strings and must be
interpreted even when partially malformed. What a text about a record set
must mention is the set's own `RecordSet.source_values`.

The parser normalises a linear string once. Normalised text has no leading,
trailing or double space, so the fields cut from it at the separators are
normalised already; only where a field's edge meets a separator can it be
invalid, and that is all `records._record_from_segment` checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DelinearizeError, LinearizationError
from .records import (
    FIELD_SEP,
    RECORD_SEP,
    SUBJECT_KEY,
    Record,
    RecordKind,
    RecordSet,
    _record_from_segment,
    normalize_text,
)


@dataclass(frozen=True)
class DelinearizeResult:
    """Parsed record set plus the number of malformed segments dropped."""

    record_set: RecordSet
    dropped: int


def _subject_index(rs: RecordSet) -> int:
    matches = [i for i, r in enumerate(rs.records) if r.is_subject]
    if len(matches) != 1:
        raise LinearizationError(
            f"MR set must contain the subject pair {SUBJECT_KEY!r} exactly once, "
            f"found {len(matches)}"
        )
    return matches[0]


def render_records(records) -> str:
    """Join records in the given order without structural validation."""
    return RECORD_SEP.join(FIELD_SEP.join(r.fields) for r in records)


def linearize(rs: RecordSet) -> str:
    """Render a valid record set in the linear string format.

    For MR sets the common-subject pair (`Mr.is_subject`), which must occur
    exactly once, is moved to the front; everything else keeps its original
    order. Fields need no check here: records reject the separators when
    they are built.
    """
    if rs.is_empty:
        raise LinearizationError("cannot linearize an empty record set")
    if rs.kind is RecordKind.MR_SET:
        si = _subject_index(rs)
        ordered = (rs.records[si],) + rs.records[:si] + rs.records[si + 1 :]
        return render_records(ordered)
    return render_records(rs.records)


def delinearize(t: str, kind: RecordKind) -> DelinearizeResult:
    """Parse a linearized string back into a record set.

    Input may be arbitrary model output: segments that do not split into the
    exact field count for `kind`, or whose fields border on a separator, are
    dropped and counted, never fabricated.
    Raises DelinearizeError, its message stating the drop count, when nothing
    parses.
    """
    records: list[Record] = []
    dropped = 0
    text = normalize_text(t)
    for seg in text.split(RECORD_SEP) if text else ():
        r = _record_from_segment(kind, seg)
        if r is None:
            dropped += 1
        else:
            records.append(r)
    if not records:
        raise DelinearizeError(f"no parseable {kind.value} segment in {t!r} ({dropped} dropped)")
    return DelinearizeResult(RecordSet(records, kind), dropped)

