"""Core domain types: records, record sets, examples, and training pairs.

All types are immutable value objects; construction normalizes text fields so
equality and hashing never depend on incidental whitespace. The separator
sequences used by the linear string format (" | " and " : ") are reserved and
rejected inside record fields at construction time, because the format defines
no escaping scheme. Nor may a field start with ": " or "| ", end with " :" or
" |", or be ":" or "|" alone: next to a separator it would form another one
and shift the fields. `delinearize` builds records from fields cut out of
normalised text through `_record_from_segment`, which skips the second
normalisation but rejects exactly the fields construction rejects. Records
keep their fields in slots; every RecordSet, parsed ones too, goes through
its constructor's variant check.

Each record variant owns its shape: `fields` in linear order, `values` (the
fields a text about the record should mention) and `label` (the field that
says how they relate); `make_record` builds the variant of a RecordKind.
A RecordSet owns the forms a text is checked against: its `source_values`,
their `folded_values` (compared with `fold` of the text) and its
`record_keys`, each derived once per instance on first use. An MR set's
subject pair is the one keyed SUBJECT_KEY (`Mr.is_subject`), for the
linearizer, the E2E loader and the rule-based models alike.

One rule says whether a value appears in a text, for the T2D model, the
selection's condition 1, EPM and the optimizer alike: `find_bounded` finds
the value's fold in the text's fold with no alphanumeric character on either
side, so "no" is not in "known" and "1 out of 5" is not in "1 out of 50".

One rule gives every run value its JSON form, for the epoch digest and the
optimize command alike: `json_default`, passed as `json`'s `default` hook.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache, cached_property
from typing import Optional, Sequence, Union

from .errors import RecordFieldError, VariantMismatchError

RECORD_SEP = " | "
FIELD_SEP = " : "

# The key of an MR set's subject pair, the one its other pairs are about
SUBJECT_KEY = "name"


def normalize_text(t: str) -> str:
    """Trim and collapse internal whitespace runs to single spaces."""
    return " ".join(t.split())


def fold(t: str) -> str:
    """The form value matching compares: whitespace-normalized, case-folded."""
    return normalize_text(t).casefold()


# Maximal runs of str.isalnum characters: \w without the underscore. Every
# run of a value `find_bounded` finds is a whole run of the text, which is
# what lets `RuleBasedT2D` index its catalog by them.
_TOKEN = re.compile(r"[^\W_]+")


def has_lone_surrogate(text: str) -> bool:
    """Whether `text` holds a surrogate code point, what a JSON "\\ud800"
    escape with no low surrogate after it decodes to. UTF-8 has no form for
    one, so such a text could reach no digest, report or wire message; the
    UTF-8 encoder fails on nothing else, and tests faster than a regex."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def find_bounded(text: str, phrase: str, consumed: Sequence[tuple[int, int]] = ()) -> Optional[int]:
    """Where `phrase` appears in `text`, both folded: its leftmost occurrence
    with no alphanumeric character on either side that overlaps none of the
    `consumed` spans, or None."""
    i = text.find(phrase)
    while i != -1:
        end = i + len(phrase)
        if (
            (i == 0 or not text[i - 1].isalnum())
            and (end == len(text) or not text[end].isalnum())
            and (not consumed or all(end <= s or i >= e for s, e in consumed))
        ):
            return i
        i = text.find(phrase, i + 1)
    return None


def _clean_field(name: str, raw: str) -> str:
    if not isinstance(raw, str):
        raise RecordFieldError(f"record field {name!r} is not a string: {raw!r}")
    value = normalize_text(raw)
    if not value:
        raise RecordFieldError(f"record field {name!r} is empty after whitespace normalization")
    # padded, so a field edged by a separator character is rejected too
    for sep in (RECORD_SEP, FIELD_SEP):
        if sep in f" {value} ":
            raise RecordFieldError(
                f"record field {name!r} holds or borders on the reserved separator {sep!r}: {value!r}"
            )
    return value


class RecordKind(enum.Enum):
    TRIPLESET = "tripleset"
    MR_SET = "mrset"


@dataclass(frozen=True, slots=True)
class Triple:
    subject: str
    predicate: str
    object: str

    def __post_init__(self):
        object.__setattr__(self, "subject", _clean_field("subject", self.subject))
        object.__setattr__(self, "predicate", _clean_field("predicate", self.predicate))
        object.__setattr__(self, "object", _clean_field("object", self.object))

    @property
    def fields(self) -> tuple[str, ...]:
        return (self.subject, self.predicate, self.object)

    @property
    def values(self) -> tuple[str, ...]:
        return (self.subject, self.object)

    @property
    def label(self) -> str:
        return self.predicate


@dataclass(frozen=True, slots=True)
class Mr:
    """One meaning-representation attribute, a key-value pair."""

    key: str
    value: str

    def __post_init__(self):
        object.__setattr__(self, "key", _clean_field("key", self.key))
        object.__setattr__(self, "value", _clean_field("value", self.value))

    @property
    def fields(self) -> tuple[str, ...]:
        return (self.key, self.value)

    @property
    def values(self) -> tuple[str, ...]:
        return (self.value,)

    @property
    def label(self) -> str:
        return self.key

    @property
    def is_subject(self) -> bool:
        """Whether this is its MR set's subject pair: its key, case-folded, is SUBJECT_KEY."""
        return self.key.casefold() == SUBJECT_KEY


Record = Union[Triple, Mr]

_KIND_TYPES = {RecordKind.TRIPLESET: Triple, RecordKind.MR_SET: Mr}


def make_record(kind: RecordKind, fields: Sequence[str]) -> Record:
    """The `kind` record built from its fields in order. RecordFieldError when
    `fields` is not a list or tuple of as many strings as the record has."""
    make = _KIND_TYPES[kind]
    # a dataclass's __match_args__ names its fields in order
    if not isinstance(fields, (list, tuple)) or len(fields) != len(make.__match_args__):
        raise RecordFieldError(f"{kind.value} records take {len(make.__match_args__)} fields, got {fields!r}")
    return make(*fields)


# The trusted path `delinearize` builds records on. A segment of
# `normalize_text` output split at RECORD_SEP holds no " | " and no leading,
# trailing or double space, so its FIELD_SEP fields are non-empty, already
# normalised and hold neither separator: a field can only border on one at
# its edges. `_clean_field` rejects such a field exactly when the segment
# starts with "| " or ": ", ends with " |" or " :", or holds " : : " (a
# field edged by ":" inside it); a segment that is "|" or ":" alone has one
# field and fails the arity check. The other inner cases would hold " | ".
_SEGMENT_HEADS = ("| ", ": ")
_SEGMENT_TAILS = (" |", " :")


# Each variant with the setters of its slots in field order: they fill a
# record made by object.__new__ past the frozen __setattr__.
_SLOT_SETTERS = {
    kind: (cls, tuple(getattr(cls, name).__set__ for name in cls.__match_args__))
    for kind, cls in _KIND_TYPES.items()
}


def _record_from_segment(kind: RecordKind, seg: str) -> Optional[Record]:
    """The `kind` record a segment of normalised linear text holds, built
    without re-normalising its fields; None where `make_record` would raise
    RecordFieldError."""
    if seg.startswith(_SEGMENT_HEADS) or seg.endswith(_SEGMENT_TAILS) or " : : " in seg:
        return None
    fields = seg.split(FIELD_SEP)
    make, setters = _SLOT_SETTERS[kind]
    if len(fields) != len(setters):
        return None
    r = object.__new__(make)
    for set_field, value in zip(setters, fields):
        set_field(r, value)
    return r


def record_key(r: Record) -> tuple[str, ...]:
    """Hashable identity of a record: its variant and case-folded fields."""
    return (type(r).__name__,) + tuple(map(str.casefold, r.fields))


@dataclass(frozen=True)
class RecordSet:
    """Ordered collection of records sharing one variant.

    An empty RecordSet is representable because failed text-to-data parses
    must be distinguishable from successful ones; loaders and the linearizer
    reject emptiness at their own boundaries.
    """

    records: tuple[Record, ...]
    kind: RecordKind

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        want = _KIND_TYPES[self.kind]
        for r in self.records:
            if type(r) is not want:
                raise VariantMismatchError(
                    f"{self.kind.value} record set contains a {type(r).__name__}"
                )

    def __len__(self) -> int:
        return len(self.records)

    # Derived on first use and stored on the instance, so a set read many
    # times derives them once. They are not fields: equality, hashing, repr
    # and to_dict never see them. An epoch judges its own copy of each gold
    # source, so the select pass and the audit derive them once per epoch and
    # they go with the epoch's tuples; validation and test sets keep theirs.

    @cached_property
    def source_values(self) -> tuple[str, ...]:
        """Values a text about the records is expected to contain, in
        first-occurrence order: subjects and objects for triplesets, every
        value for MR sets, the first spelling of each under case-folding.
        Predicates and keys are not source values."""
        first: dict[str, str] = {}
        for r in self.records:
            for v in r.values:
                first.setdefault(v.casefold(), v)
        return tuple(first.values())

    @cached_property
    def folded_values(self) -> tuple[str, ...]:
        """`fold` of each source value, aligned with `source_values`; fields
        are whitespace-normalized already, so this is their case-fold."""
        return tuple(v.casefold() for v in self.source_values)

    @cached_property
    def record_keys(self) -> frozenset[tuple[str, ...]]:
        """The `record_key` of each record."""
        return frozenset(map(record_key, self.records))

    @property
    def is_empty(self) -> bool:
        return not self.records

    @classmethod
    def empty(cls, kind: RecordKind) -> "RecordSet":
        return cls(records=(), kind=kind)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "records": [list(r.fields) for r in self.records],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RecordSet":
        try:
            kind, records = RecordKind(d["kind"]), list(d["records"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"a record set needs a 'kind' and a 'records' list, got {d!r}") from exc
        return cls(records=tuple(make_record(kind, f) for f in records), kind=kind)


@dataclass(frozen=True)
class Example:
    """A source record set, its linearized string, and the gold target."""

    source: RecordSet
    source_text: str
    target: str

    def __post_init__(self):
        if not self.target.strip():
            raise RecordFieldError("example target is empty")


@dataclass(frozen=True)
class SelfMemTuple:
    """Per-example self-memory inferred during one epoch.

    `None` marks a field whose inference failed outright; an empty RecordSet
    marks a parse that yielded no records. Generated texts are never stored
    as empty strings.
    """

    x: RecordSet
    y: str
    y_prime: Optional[str] = None
    x_prime: Optional[RecordSet] = None
    y_dprime: Optional[str] = None
    x_dprime: Optional[RecordSet] = None


class Origin(enum.Enum):
    GOLD = "gold"
    SELF_MEMORY_Y_PRIME = "self-memory-y-prime"
    SELF_MEMORY_Y_DPRIME = "self-memory-y-double-prime"
    REMAINING = "remaining"


@dataclass(frozen=True)
class Pair:
    """One training pair with a provenance tag, immutable once assigned.

    `tuple_index` points a self-memory pair at the epoch tuple it was
    selected from; it takes no part in equality or serialization.
    """

    source_text: str
    target_text: str
    origin: Origin
    tuple_index: Optional[int] = field(default=None, compare=False)

    def key(self) -> tuple[str, str]:
        return (self.source_text, self.target_text)


@cache
def _compared_fields(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.compare)


def json_default(value):
    """The JSON form of a run value, as `json`'s `default` hook: a value with
    its own `to_dict` (a RecordSet) as that method says, an enum as its
    value, any other dataclass as the dict of its fields that take part in
    equality (so no `Pair.tuple_index`). TypeError for anything else."""
    to_dict = getattr(value, "to_dict", None)
    if to_dict is not None:
        return to_dict()
    if isinstance(value, enum.Enum):
        return value.value
    cls = type(value)
    if is_dataclass(cls):
        return {name: getattr(value, name) for name in _compared_fields(cls)}
    raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
