"""Dataset loading: DART JSON, E2E CSV, and a bundled synthetic corpus.

Loaders are strict about structure (unreadable or non-UTF-8 files raise
DatasetError) but tolerant per entry: anything malformed is skipped and
reported in load_warnings, and no record field is ever fabricated or
repaired. The synthetic corpus generates clean tripleset examples whose gold
targets are verbose but value-complete, so the rule-based baselines can
exercise every pipeline stage on a desk.
"""

from __future__ import annotations

import csv
import enum
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .errors import DatasetError, LinearizationError, RecordFieldError
from .linearize import linearize
from .records import SUBJECT_KEY, Example, Mr, RecordKind, RecordSet, Triple, make_record


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


def load_dart(path: Union[str, Path], name: SplitName = SplitName.TRAIN) -> DatasetSplit:
    """Parse the DART JSON array format.

    Each entry holds a "tripleset" (list of [subject, predicate, object])
    and "annotations" whose "text" fields are gold targets; one Example per
    (tripleset, annotation) pair. Multi-annotation entries expand into
    multiple Examples sharing one source.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise DatasetError(f"{path} must hold a JSON array of entries")

    examples: list[Example] = []
    warnings: list[str] = []
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
                records.append(make_record(RecordKind.TRIPLESET, t))
            except RecordFieldError as exc:
                warnings.append(f"entry {i}: triple {j} rejected ({exc}), dropped")
        if not records:
            warnings.append(f"entry {i}: no usable triples, skipped")
            continue
        rs = RecordSet(tuple(records), RecordKind.TRIPLESET)
        try:
            source_text = linearize(rs)
        except LinearizationError as exc:
            warnings.append(f"entry {i}: cannot linearize ({exc}), skipped")
            continue
        annotations = entry.get("annotations")
        if not isinstance(annotations, list) or not annotations:
            warnings.append(f"entry {i}: no annotations, skipped")
            continue
        produced = 0
        for k, ann in enumerate(annotations):
            text = ann.get("text") if isinstance(ann, dict) else ann
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


def load_e2e(path: Union[str, Path], name: SplitName = SplitName.TRAIN) -> DatasetSplit:
    """Parse the E2E CSV format with columns (mr, ref)."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"mr", "ref"} <= set(reader.fieldnames):
                raise DatasetError(f"{path} lacks the mr/ref CSV columns")
            rows = list(reader)
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path} is not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise DatasetError(f"{path} is not parseable CSV: {exc}") from exc

    examples: list[Example] = []
    warnings: list[str] = []
    for i, row in enumerate(rows):
        mr, ref = row.get("mr"), row.get("ref")
        if not mr or not mr.strip():
            warnings.append(f"row {i}: empty mr, skipped")
            continue
        if not ref or not ref.strip():
            warnings.append(f"row {i}: missing ref, skipped")
            continue
        try:
            pairs = _parse_mr(mr)
            records = tuple(Mr(k, v) for k, v in pairs)
        except (ValueError, RecordFieldError) as exc:
            warnings.append(f"row {i}: unparseable mr ({exc}), skipped")
            continue
        rs = RecordSet(records, RecordKind.MR_SET)
        subject_key = SUBJECT_KEY
        if not any(r.is_subject for r in records):
            # no common-subject pair; fall back to the first pair as subject
            subject_key = records[0].key
            warnings.append(f"row {i}: no name attribute, using {subject_key!r} as subject")
        try:
            source_text = linearize(rs, subject_key)
        except LinearizationError as exc:
            warnings.append(f"row {i}: cannot linearize ({exc}), skipped")
            continue
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
