"""Dataset loading: DART JSON, E2E CSV, and a bundled synthetic corpus.

Every input file, a loader's or one `read_lines` serves to `eval`, is read
through `_read`: UTF-8 with an optional byte-order mark, line ends as
written, and any fault (unreadable, not UTF-8, refused by its parser) a
DatasetError naming the file. Loaders are strict about structure but
tolerant per entry: anything malformed is skipped and reported in
load_warnings, and no record field is ever fabricated or repaired.

The corpora repeat their values (an E2E MR sits on about eight rows, DART
entries share predicates and objects), so each loader call keeps memos that
live only for that call. Each distinct raw field string is cleaned once and
its later occurrences reuse the same cleaned string; only successes are kept,
so a refused field is refused again, under its own field name, wherever it
occurs. `load_e2e` reads each distinct mr string once, and the rows holding it
share its record set and source text. Warnings stay per entry or row: a row
replaying a read MR adds that read's warning under its own row number. The
synthetic corpus generates clean tripleset examples whose gold targets are
verbose but value-complete, so the rule-based baselines can exercise every
pipeline stage on a desk.
"""

from __future__ import annotations

import csv
import enum
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, TextIO, Union

from .errors import DatasetError, LinearizationError, RecordFieldError
from .linearize import linearize, render_records
from .records import Example, Mr, RecordKind, RecordSet, Triple, _memo_maker, has_lone_surrogate


class SplitName(enum.Enum):
    TRAIN = "train"
    VALIDATION = "validation"
    TEST = "test"


@dataclass(frozen=True)
class DatasetSplit:
    name: SplitName
    examples: tuple[Example, ...]
    load_warnings: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.examples)


def _read(path: Union[str, Path], parse: Callable[[TextIO], Any], form: str = "text") -> Any:
    """`parse` applied to `path` opened as UTF-8 text, a byte-order mark
    skipped and line ends left as written; any fault is a DatasetError that
    names the file. A parser refuses its input with ValueError or csv.Error,
    or with RecursionError on nesting too deep."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return parse(fh)
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    # before ValueError, which it subclasses
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path} is not UTF-8 text: {exc}") from exc
    except (ValueError, csv.Error, RecursionError) as exc:
        raise DatasetError(f"{path} is not {form}: {exc}") from exc


def read_lines(path: Union[str, Path]) -> list[str]:
    r"""The lines of a text file, each without its end.

    Lines end at "\n" only, a "\r\n" end counting as one: str.splitlines
    would also break at a lone "\r", U+2028, U+0085 and \x1c-\x1e, which can
    sit inside a line and would shift every later line.
    """
    text = _read(path, lambda fh: fh.read()).replace("\r\n", "\n")
    return text.removesuffix("\n").split("\n") if text else []


def load_dart(path: Union[str, Path], name: SplitName = SplitName.TRAIN) -> DatasetSplit:
    """Parse the DART JSON array format.

    Each entry holds a "tripleset" (list of [subject, predicate, object])
    and "annotations" whose "text" fields are gold targets; one Example per
    (tripleset, annotation) pair. Multi-annotation entries expand into
    multiple Examples sharing one source. An entry whose triples or
    annotation texts hold a lone surrogate is skipped.
    """
    raw = _read(path, json.load, "valid JSON")
    if not isinstance(raw, list):
        raise DatasetError(f"{path} must hold a JSON array of entries")

    examples: list[Example] = []
    warnings: list[str] = []
    make = _memo_maker(RecordKind.TRIPLESET)
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            warnings.append(f"entry {i}: not an object, skipped")
            continue
        tripleset = entry.get("tripleset")
        if not isinstance(tripleset, list) or not tripleset:
            warnings.append(f"entry {i}: empty or missing tripleset, skipped")
            continue
        records = []
        for j, t in enumerate(tripleset):
            try:
                records.append(make(t))
            except RecordFieldError as exc:
                warnings.append(f"entry {i}: triple {j} rejected ({exc}), dropped")
        if not records:
            warnings.append(f"entry {i}: no usable triples, skipped")
            continue
        rs = RecordSet(tuple(records), RecordKind.TRIPLESET)
        source_text = linearize(rs)
        annotations = entry.get("annotations")
        if not isinstance(annotations, list) or not annotations:
            warnings.append(f"entry {i}: no annotations, skipped")
            continue
        texts = [ann.get("text") if isinstance(ann, dict) else ann for ann in annotations]
        # one check for all: joining keeps each lone surrogate one code point
        if has_lone_surrogate("".join([source_text, *(t for t in texts if isinstance(t, str))])):
            warnings.append(f"entry {i}: lone surrogate in a triple or an annotation, skipped")
            continue
        produced = 0
        for k, text in enumerate(texts):
            if not isinstance(text, str) or not text.strip():
                warnings.append(f"entry {i}: annotation {k} has no text, dropped")
                continue
            examples.append(Example(rs, source_text, text))
            produced += 1
        if not produced:
            warnings.append(f"entry {i}: all annotations unusable, skipped")
    return DatasetSplit(name, tuple(examples), tuple(warnings))


def _parse_mr(mr: str) -> list[tuple[str, str]]:
    """Split "name[The Golden Curry], food[English]" into key-value pairs.

    Values are whatever sits inside the outermost brackets (bracket-matched,
    so commas inside values survive).
    """
    pairs: list[tuple[str, str]] = []
    i, n = 0, len(mr)
    while i < n:
        bracket = mr.find("[", i)
        if bracket == -1:
            if mr[i:].strip(" ,"):
                raise ValueError(f"trailing text without brackets: {mr[i:]!r}")
            break
        key = mr[i:bracket].strip(" ,").strip()
        if not key:
            raise ValueError(f"missing key before bracket at position {bracket}")
        depth, j = 1, bracket + 1
        while j < n and depth:
            if mr[j] == "[":
                depth += 1
            elif mr[j] == "]":
                depth -= 1
            j += 1
        if depth:
            raise ValueError("unbalanced brackets")
        pairs.append((key, mr[bracket + 1 : j - 1]))
        i = j
    if not pairs:
        raise ValueError("no key[value] pairs found")
    return pairs


def _csv_table(fh: TextIO) -> tuple[Optional[list[str]], list[dict[str, str]]]:
    reader = csv.DictReader(fh)
    return reader.fieldnames, list(reader)


# An E2E MR's record set and source text, both None when its rows are
# skipped, and the warning each of its rows adds after "row N: ", or None
_MrOutcome = tuple[Optional[RecordSet], Optional[str], Optional[str]]


def _mr_outcome(mr: str, make: Callable[[Sequence[str]], Mr]) -> _MrOutcome:
    """What every E2E row holding `mr` yields; `make` builds its pairs."""
    try:
        records = tuple(map(make, _parse_mr(mr)))
    except (ValueError, RecordFieldError) as exc:
        return None, None, f"unparseable mr ({exc}), skipped"
    rs = RecordSet(records, RecordKind.MR_SET)
    if not any(r.is_subject for r in records):
        # no common-subject pair: the pairs render as written, the first leading
        return rs, render_records(records), f"no name attribute, using {records[0].key!r} as subject"
    try:
        return rs, linearize(rs), None
    except LinearizationError as exc:
        return None, None, f"cannot linearize ({exc}), skipped"


def load_e2e(path: Union[str, Path], name: SplitName = SplitName.TRAIN) -> DatasetSplit:
    """Parse the E2E CSV format with columns (mr, ref).

    Each distinct mr string is read once; every row holding it replays that
    outcome, warnings under its own row number, and shares its record set
    and source text."""
    columns, rows = _read(path, _csv_table, "parseable CSV")
    if columns is None or not {"mr", "ref"} <= set(columns):
        raise DatasetError(f"{path} lacks the mr/ref CSV columns")

    examples: list[Example] = []
    warnings: list[str] = []
    make = _memo_maker(RecordKind.MR_SET)
    outcomes: dict[str, _MrOutcome] = {}
    for i, row in enumerate(rows):
        mr, ref = row.get("mr"), row.get("ref")
        if not mr or not mr.strip():
            warnings.append(f"row {i}: empty mr, skipped")
            continue
        if not ref or not ref.strip():
            warnings.append(f"row {i}: missing ref, skipped")
            continue
        outcome = outcomes.get(mr)
        if outcome is None:
            outcome = outcomes[mr] = _mr_outcome(mr, make)
        rs, source_text, note = outcome
        if note is not None:
            warnings.append(f"row {i}: {note}")
        if rs is not None:
            examples.append(Example(rs, source_text, ref))
    return DatasetSplit(name, tuple(examples), tuple(warnings))


_ADJECTIVES = ("Alto", "Borel", "Cedar", "Delta", "Ember", "Fennel", "Gale", "Harbor", "Iris", "Juno")
_NOUNS = ("Archive", "Bakery", "College", "Depot", "Forge", "Gallery", "Hall", "Institute", "Lodge", "Museum")
_TOWNS = ("Porto", "Gdansk", "Cusco", "Tartu", "Bergen", "Quito", "Hobart", "Matera", "Leiden", "Tromso")
_YEARS = tuple(str(y) for y in range(1871, 1962, 7))
_LEADERS = ("Mara Voss", "Ivan Petrov", "Lucia Romano", "Kofi Mensah", "Aiko Tanaka", "Nils Berg", "Rosa Duarte", "Omar Haddad")
_FEATURES = ("glass art", "night tours", "rare maps", "stone carvings", "herb gardens", "tin toys", "old telescopes", "folk costumes")
_LANDMARKS = ("the Clock Gate", "the Salt Bridge", "the Round Well", "the Mill Tower", "the King Stone", "the Iron Fountain")

# per predicate: object pool and a verbose gold template that contains the
# subject, the object, and the predicate phrase verbatim
_PREDICATE_TABLE = (
    ("LOCATED_IN", _TOWNS, "It is well documented that the {s} is located in {o}."),
    ("FOUNDED_IN", _YEARS, "Historical records show the {s} was founded in {o}."),
    ("LED_BY", _LEADERS, "Everyone agrees that the {s} is proudly led by {o}."),
    ("KNOWN_FOR", _FEATURES, "Above all, the {s} remains known for {o}."),
    ("NEAR", _LANDMARKS, "Travelers note that the {s} sits conveniently near {o}."),
)


def _synthetic_example(rng: random.Random, index: int) -> Example:
    subject = f"{rng.choice(_ADJECTIVES)} {rng.choice(_NOUNS)} {index}"
    n_records = rng.randint(1, 3)
    chosen = rng.sample(_PREDICATE_TABLE, n_records)
    records = []
    sentences = []
    for predicate, pool, template in chosen:
        obj = rng.choice(pool)
        records.append(Triple(subject, predicate, obj))
        sentences.append(template.format(s=subject, o=obj))
    rs = RecordSet(tuple(records), RecordKind.TRIPLESET)
    return Example(rs, linearize(rs), " ".join(sentences))


def synthetic_dataset(
    n_train: int = 200, n_val: int = 30, n_test: int = 30, seed: int = 42
) -> tuple[DatasetSplit, DatasetSplit, DatasetSplit]:
    """Deterministic clean corpus with globally unique subjects.

    Gold targets are wordier than the rule-based renderer's output while
    containing every source value, so self-memory selection has real work:
    generated targets can win on length without losing value coverage.
    """
    rng = random.Random(seed)
    examples = [_synthetic_example(rng, i) for i in range(n_train + n_val + n_test)]
    return (
        DatasetSplit(SplitName.TRAIN, tuple(examples[:n_train])),
        DatasetSplit(SplitName.VALIDATION, tuple(examples[n_train : n_train + n_val])),
        DatasetSplit(SplitName.TEST, tuple(examples[n_train + n_val :])),
    )
