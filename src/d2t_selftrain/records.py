"""Core domain types: records, record sets, examples, and training pairs.

All types are immutable value objects; construction normalizes text fields so
equality and hashing never depend on incidental whitespace. The separator
sequences used by the linear string format (" | " and " : ") are reserved and
rejected inside record fields at construction time, because the format defines
no escaping scheme.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from .errors import RecordFieldError, VariantMismatchError

RECORD_SEP = " | "
FIELD_SEP = " : "


def normalize_text(t: str) -> str:
    """Trim and collapse internal whitespace runs to single spaces."""
    return " ".join(t.split())


def value_in_text(value: str, text: str, strict: bool = False) -> bool:
    """Substring containment after whitespace normalization.

    Case-folded by default because model decoders freely re-case surface
    forms; `strict=True` keeps the original casing.
    """
    v = normalize_text(value)
    t = normalize_text(text)
    if not strict:
        v, t = v.casefold(), t.casefold()
    if not v:
        return False
    return v in t


def _clean_field(name: str, raw: str) -> str:
    value = normalize_text(raw)
    if not value:
        raise RecordFieldError(f"record field {name!r} is empty after whitespace normalization")
    for sep in (RECORD_SEP, FIELD_SEP):
        if sep in value:
            raise RecordFieldError(
                f"record field {name!r} contains the reserved separator {sep!r}: {value!r}"
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


Record = Union[Triple, Mr]

_KIND_TYPES = {RecordKind.TRIPLESET: Triple, RecordKind.MR_SET: Mr}


def record_key(r: Record, strict: bool = False) -> tuple[str, ...]:
    """Hashable identity of a record under the matching rule of `record_eq`."""
    fields = r.fields if strict else tuple(map(str.casefold, r.fields))
    return (type(r).__name__,) + fields


def record_eq(a: Record, b: Record, strict: bool = False) -> bool:
    """Field-wise equality after normalization and (by default) case-folding.

    Raises VariantMismatchError when a triple is compared with an MR pair;
    slot matching is only defined within a variant.
    """
    if type(a) is not type(b):
        raise VariantMismatchError(
            f"cannot compare {type(a).__name__} with {type(b).__name__}"
        )
    return record_key(a, strict=strict) == record_key(b, strict=strict)


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
        kind = RecordKind(d["kind"])
        make = Triple if kind is RecordKind.TRIPLESET else Mr
        return cls(records=tuple(make(*f) for f in d["records"]), kind=kind)


@dataclass(frozen=True)
class Example:
    """A source record set, its linearized string, and the gold target."""

    source: RecordSet
    source_text: str
    target: str

    def __post_init__(self):
        if not self.target.strip():
            raise RecordFieldError("example target is empty")

    def to_dict(self) -> dict:
        return {
            "source": self.source.to_dict(),
            "source_text": self.source_text,
            "target": self.target,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Example":
        return cls(
            source=RecordSet.from_dict(d["source"]),
            source_text=d["source_text"],
            target=d["target"],
        )


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
    """One training pair with a provenance tag, immutable once assigned."""

    source_text: str
    target_text: str
    origin: Origin

    def key(self) -> tuple[str, str]:
        return (self.source_text, self.target_text)

    def to_dict(self) -> dict:
        return {
            "source_text": self.source_text,
            "target_text": self.target_text,
            "origin": self.origin.value,
        }
