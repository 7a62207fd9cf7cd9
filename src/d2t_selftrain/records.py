"""Core domain types: records, record sets, examples, and training pairs.

All types are immutable value objects; construction normalizes text fields so
equality and hashing never depend on incidental whitespace. The separator
sequences used by the linear string format (" | " and " : ") are reserved and
rejected inside record fields at construction time, because the format defines
no escaping scheme. Nor may a field start with ": " or "| ", end with " :" or
" |", or be ":" or "|" alone: next to a separator it would form another one
and shift the fields. Linear text has one reader, `linearize.read_segments`,
whose edge rule drops exactly the segments whose fields construction would
reject; `delinearize` builds records from the fields it cuts through
`_record_from_fields`, which skips the second normalisation. A loader builds
its records through `_memo_maker`, which cleans each distinct raw field of
one loader call once and fills the record the same way. Records keep
their fields in slots; every RecordSet, parsed ones too, goes through its
constructor's variant check.

Each record variant owns its shape: `fields` in linear order, `values` (the
fields a text about the record should mention) and `label` (the field that
says how they relate); `make_record` builds the variant of a RecordKind.
A RecordSet owns the forms a text is checked against: its `source_values`,
their `folded_values` (compared with `fold` of the text) and its
`record_keys`, each derived once per instance on first use. An MR set's
subject pair is the one whose key `is_subject_key` accepts (its case fold is
SUBJECT_KEY): `Mr.is_subject` asks it for the linearizer, the E2E loader and
the rule-based T2D, and the rule-based D2T asks it of the fields it reads.

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
from dataclasses import dataclass, is_dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

from .errors import RecordFieldError, VariantMismatchError

RECORD_SEP = " | "
FIELD_SEP = " : "

# The key of an MR set's subject pair, the one its other pairs are about
SUBJECT_KEY = "name"


def is_subject_key(key: str) -> bool:
    """Whether an MR key, normalised, names the subject pair: its case fold is SUBJECT_KEY."""
    return key.casefold() == SUBJECT_KEY


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
        """Whether this is its MR set's subject pair (`is_subject_key`)."""
        return is_subject_key(self.key)


Record = Union[Triple, Mr]

_KIND_TYPES = {RecordKind.TRIPLESET: Triple, RecordKind.MR_SET: Mr}


def _arity_error(kind: RecordKind, fields) -> RecordFieldError:
    n = len(_KIND_TYPES[kind].__match_args__)
    return RecordFieldError(f"{kind.value} records take {n} fields, got {fields!r}")


def make_record(kind: RecordKind, fields: Sequence[str]) -> Record:
    """The `kind` record built from its fields in order. RecordFieldError when
    `fields` is not a list or tuple of as many strings as the record has."""
    make = _KIND_TYPES[kind]
    # a dataclass's __match_args__ names its fields in order
    if not isinstance(fields, (list, tuple)) or len(fields) != len(make.__match_args__):
        raise _arity_error(kind, fields)
    return make(*fields)


# Each variant with the setters of its slots in field order: they fill a
# record made by object.__new__ past the frozen __setattr__.
_SLOT_SETTERS = {
    kind: (cls, tuple(getattr(cls, name).__set__ for name in cls.__match_args__))
    for kind, cls in _KIND_TYPES.items()
}


def _record_from_fields(kind: RecordKind, fields: Sequence[str]) -> Record:
    """The `kind` record of fields that `linearize.read_segments` cut from
    normalised text, as many as the variant has, set as they are: the
    reader's edge rule has already refused every field `make_record` would."""
    make, setters = _SLOT_SETTERS[kind]
    r = object.__new__(make)
    for set_field, value in zip(setters, fields):
        set_field(r, value)
    return r


def _memo_maker(kind: RecordKind) -> Callable[[Sequence[str]], Record]:
    """`make_record` for `kind`, with a memo for one loader call that its
    records are cleaned through. A raw string cleaned before gives the same
    cleaned object, and each cleaned value maps to itself (it is its own
    cleaning), so the equal fields of one call are one object. Only successes
    enter the memo: a refused field is cleaned again wherever it occurs and
    raises under its own field name, and a field that is not a string, which
    could not be a key, goes straight to `_clean_field` to be refused. Each
    checked field is set through its slot, as `_record_from_fields` does."""
    make, setters = _SLOT_SETTERS[kind]
    slots = tuple(zip(make.__match_args__, setters))
    cleaned: dict[str, str] = {}

    def make_cleaned(fields: Sequence[str]) -> Record:
        if not isinstance(fields, (list, tuple)) or len(fields) != len(slots):
            raise _arity_error(kind, fields)
        r = object.__new__(make)
        for (name, set_field), raw in zip(slots, fields):
            value = cleaned.get(raw) if isinstance(raw, str) else None
            if value is None:
                value = _clean_field(name, raw)
                value = cleaned[raw] = cleaned.setdefault(value, value)
            set_field(r, value)
        return r

    return make_cleaned


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
    """One training pair with a provenance tag, immutable once assigned. A
    self-memory pair names its tuple by nothing but its source: the audit
    finds that tuple in the epoch's block."""

    source_text: str
    target_text: str
    origin: Origin

    def key(self) -> tuple[str, str]:
        return (self.source_text, self.target_text)


def json_default(value):
    """The JSON form of a run value, as `json`'s `default` hook: a value with
    its own `to_dict` (a RecordSet) as that method says, an enum as its
    value, any other dataclass as its fields, read from its `__dict__`, which
    holds those and nothing else. TypeError for anything else."""
    to_dict = getattr(value, "to_dict", None)
    if to_dict is not None:
        return to_dict()
    if isinstance(value, enum.Enum):
        return value.value
    cls = type(value)
    if is_dataclass(cls):
        return vars(value)
    raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
