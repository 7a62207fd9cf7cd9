"""Linear string format for record sets, and the one reader of it.

Triplesets render as "s : p : o | s : p : o | ...". MR sets render each pair
as "k : v" with the common-subject pair placed first, e.g.
"name : The Golden Curry | food : English | ...". The inverse parser exists
because text-to-data model output arrives as linearized strings and must be
interpreted even when partially malformed. What a text about a record set
must mention is the set's own `RecordSet.source_values`.

Linear text is read in one place, `read_segments`, for `delinearize` and the
rule-based D2T model alike: it normalises the string once and cuts it into
segments and fields. Normalised text has no leading, trailing or double
space, so the fields cut from it at the separators are normalised already;
only where a field's edge meets a separator can it be invalid, and that is
all the edge rule checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DelinearizeError, LinearizationError
from .records import (
    FIELD_SEP,
    RECORD_SEP,
    SUBJECT_KEY,
    RecordKind,
    RecordSet,
    _record_from_fields,
    normalize_text,
)

# The edge rule. A segment of `normalize_text` output split at RECORD_SEP
# holds no " | " and no leading, trailing or double space, so its FIELD_SEP
# fields are non-empty, already normalised and hold neither separator: a
# field can only border on one at its edges. `records._clean_field` rejects
# such a field exactly when the segment starts with "| " or ": ", ends with
# " |" or " :", or holds " : : " (a field edged by ":" inside it); a segment
# that is "|" or ":" alone has one field and fails the arity check. The
# other inner cases would hold " | ".
_SEGMENT_HEADS = ("| ", ": ")
_SEGMENT_TAILS = (" |", " :")


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


def read_segments(t: str) -> tuple[list[list[str]], list[list[str]], int]:
    """The segments of a linear string, read once with no variant given: the
    fields of each segment that holds a triple (3 FIELD_SEP fields) and of
    each that holds an MR pair (2), in text order, and the number of
    segments. A segment whose field would border on a separator (the edge
    rule above) or that has another field count is in neither list."""
    triples: list[list[str]] = []
    pairs: list[list[str]] = []
    text = normalize_text(t)
    if not text:
        return triples, pairs, 0
    segments = text.split(RECORD_SEP)
    for seg in segments:
        if seg.startswith(_SEGMENT_HEADS) or seg.endswith(_SEGMENT_TAILS) or " : : " in seg:
            continue
        fields = seg.split(FIELD_SEP)
        if len(fields) == 3:
            triples.append(fields)
        elif len(fields) == 2:
            pairs.append(fields)
    return triples, pairs, len(segments)


def delinearize(t: str, kind: RecordKind) -> DelinearizeResult:
    """Parse a linearized string back into a record set.

    Input may be arbitrary model output: segments that do not split into the
    exact field count for `kind`, or whose fields border on a separator, are
    dropped and counted, never fabricated.
    Raises DelinearizeError, its message stating the drop count, when nothing
    parses.
    """
    triples, pairs, count = read_segments(t)
    records = [_record_from_fields(kind, f) for f in (triples if kind is RecordKind.TRIPLESET else pairs)]
    if not records:
        raise DelinearizeError(f"no parseable {kind.value} segment in {t!r} ({count} dropped)")
    return DelinearizeResult(RecordSet(records, kind), count - len(records))
