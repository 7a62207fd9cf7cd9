"""Core domain types: records, record sets, examples, and training pairs.

All types are immutable value objects; construction normalizes text fields so
equality and hashing never depend on incidental whitespace. The separator
sequences used by the linear string format (" | " and " : ") are reserved and
rejected inside record fields at construction time, because the format defines
no escaping scheme. Nor may a field start with ": " or "| ", end with " :" or
" |", or be ":" or "|" alone: next to a separator it would form another one
and shift the fields.

Each record variant owns its shape: `fields` in linear order, `values` (the
fields a text about the record should mention) and `label` (the field that
says how they relate); `make_record` builds the variant of a RecordKind.
A RecordSet owns the forms a text is checked against: its `source_values`,
their `folded_values` (compared with `fold` of the text) and its
`record_keys`, each derived once per instance on first use.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Union

from .errors import RecordFieldError, VariantMismatchError

RECORD_SEP = " | "
FIELD_SEP = " : "


def normalize_text(t: str) -> str:
    """Trim and collapse internal whitespace runs to single spaces."""
    return " ".join(t.split())


def fold(t: str) -> str:
    """The form value matching compares: whitespace-normalized, case-folded."""
    return normalize_text(t).casefold()


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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    # Derived on first use and stored on the instance, so a source judged in
    # every epoch and again by the audit derives them once. They are not
    # fields: equality, hashing, repr and to_dict never see them.

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

    def to_dict(self) -> dict:
        return {
            "x": self.x.to_dict(),
            "y": self.y,
            "y_prime": self.y_prime,
            "x_prime": None if self.x_prime is None else self.x_prime.to_dict(),
            "y_dprime": self.y_dprime,
            "x_dprime": None if self.x_dprime is None else self.x_dprime.to_dict(),
        }


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

    def to_dict(self) -> dict:
        return {
            "source_text": self.source_text,
            "target_text": self.target_text,
            "origin": self.origin.value,
        }
