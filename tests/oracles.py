"""One definitional oracle per fast kernel.

Each function here is the plainest form of what a kernel in `src/` computes,
and is named after it; `edit_distance` checks `metrics._lane_distances`,
`meteor_single` checks `metrics._meteor_single`,
`t2d_generate` checks `RuleBasedT2D.generate`, `rule_d2t_generate`
checks `RuleBasedD2T.generate` by rendering what `infer_record_set` parses,
`delinearize` re-normalises every field through the checked record
constructors and so checks the one reader of linear text that
`linearize.delinearize` builds records on (`linearize.read_segments`,
`records._record_from_fields`), `source_values` and
`value_in_text` check a RecordSet's `source_values` and `folded_values` as
selection, the optimizer and EPM read them and `records.find_bounded` as
they apply it, `osf` checks the `record_keys` that `metrics.osf`
compares, and `load_dart` and `load_e2e` check the loaders' per-call memos
by building every record through `make_record` or `Mr` with none.
A change that replaces a kernel compares against its oracle here and adds no
copy of the old code. No oracle imports a kernel it checks
(`tests/test_oracles.py`). The metric oracles add their floating-point terms
in the kernels' order, so the two agree exactly.
"""

from __future__ import annotations

import csv
import json
import math
import unicodedata
from collections import Counter
from typing import Optional, Sequence

from d2t_selftrain import (
    DelinearizeError,
    DelinearizeResult,
    Example,
    LinearizationError,
    MetricReport,
    Mr,
    OsfScore,
    RecordFieldError,
    RecordKind,
    RecordSet,
    Triple,
    linearize,
    render_records,
    split_sentences,
)
from d2t_selftrain.datasets import _parse_mr
from d2t_selftrain.optimize import OptimizationOutcome
from d2t_selftrain.records import FIELD_SEP, RECORD_SEP, Record, make_record, normalize_text, record_key
from d2t_selftrain.stemming import stem

# ---------------------------------------------------------------- edit distance, LCS


def _next_row(row: list[int], tok: str, ref: Sequence[str]) -> list[int]:
    """The edit-distance DP row after one more hypothesis token. A match
    takes the diagonal, which neighbouring cells, differing from it by at
    most one, cannot beat; otherwise a cell is one more than the least of
    its three neighbours."""
    left = row[0] + 1
    cur = [left]
    for diag, up, y in zip(row, row[1:], ref):
        if y == tok:
            left = diag
        else:
            if up < left:
                left = up
            if diag < left:
                left = diag
            left += 1
        cur.append(left)
    return cur


def edit_distance(hyp: Sequence[str], ref: Sequence[str]) -> int:
    """Word-level Levenshtein distance by the O(n·m) dynamic program."""
    row = list(range(len(ref) + 1))
    for tok in hyp:
        row = _next_row(row, tok, ref)
    return row[-1]


def lcs_len(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length by the O(n·m) dynamic program."""
    row = [0] * (len(b) + 1)
    for x in a:
        left = 0
        cur = [left]
        for diag, up, y in zip(row, row[1:], b):
            if x == y:
                left = diag + 1
            elif up > left:
                left = up
            cur.append(left)
        row = cur
    return row[-1]


def shifts(hyp: Sequence[str], ref: Sequence[str]):
    """Every block shift a step of the greedy search tries on `hyp`, in
    order, as ((i, L, j), shifted hypothesis): for every start i and length L
    of a block of `hyp` that occurs in `ref`, each start of the block in `ref`
    in ascending order is its new position j, capped at the end of the rest
    of `hyp`."""
    hyp, ref = list(hyp), list(ref)
    for i in range(len(hyp)):
        for length in range(1, len(hyp) - i + 1):
            block = hyp[i : i + length]
            starts = [s for s in range(len(ref) - length + 1) if ref[s : s + length] == block]
            if not starts:
                break  # no longer block from i occurs in ref either
            rest = hyp[:i] + hyp[i + length :]
            for s in starts:
                j = min(s, len(rest))
                yield (i, length, j), rest[:j] + block + rest[j:]


def ter_edits(hyp: Sequence[str], ref: Sequence[str]) -> int:
    """Greedy shift search: while some block shift lowers the word edit
    distance, apply the one that lowers it most (the first of `shifts` on
    ties), one edit each; then add the remaining distance.

    Every shift is scored by the dynamic program, with no bound and no early
    exit: a full scan. A shifted hypothesis shares its first min(i, j) tokens
    with `hyp`, so it resumes from that DP row; one already scored in the
    step can only tie, so it is not scored again."""
    hyp, ref = list(hyp), list(ref)
    n_shifts = 0
    while True:
        rows = [list(range(len(ref) + 1))]
        for tok in hyp:
            rows.append(_next_row(rows[-1], tok, ref))
        dist = rows[-1][-1]
        if dist == 0:
            break
        best_gain, best = 0, None
        seen = {tuple(hyp)}
        for (i, _, j), shifted in shifts(hyp, ref):
            if tuple(shifted) in seen:
                continue
            seen.add(tuple(shifted))
            p = min(i, j)
            row = rows[p]
            for tok in shifted[p:]:
                row = _next_row(row, tok, ref)
            if dist - row[-1] > best_gain:
                best_gain, best = dist - row[-1], shifted
        if best is None:
            break
        hyp = best
        n_shifts += 1
    return n_shifts + dist


# ---------------------------------------------------------------- metrics


def tokenize(text: str) -> list[str]:
    """The case-folded text's whitespace-separated words, each with the
    punctuation characters (Unicode category P*) at its start and at its end
    split off one per token, in order."""
    tokens = []
    for word in text.casefold().split():
        start, end = 0, len(word)
        while start < end and unicodedata.category(word[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(word[end - 1]).startswith("P"):
            end -= 1
        tokens += list(word[:start])
        if start < end:
            tokens.append(word[start:end])
        tokens += list(word[end:])
    return tokens


def osf(x: RecordSet, reconstruction: RecordSet) -> OsfScore:
    """Precision, recall and F1 of the reconstruction's records against x's,
    each side a set of `record_key`s."""
    in_keys = {record_key(r) for r in x.records}
    out_keys = {record_key(r) for r in reconstruction.records}
    matches = len(in_keys & out_keys)
    precision = matches / len(out_keys) if out_keys else 0.0
    recall = matches / len(in_keys) if in_keys else 0.0
    total = precision + recall
    return OsfScore(precision, recall, 2 * precision * recall / total if total else 0.0)


def _grams(tokens: Sequence[str], n: int) -> Counter:
    """n-gram counts in first-occurrence order."""
    return Counter(tuple(tokens[k : k + n]) for k in range(len(tokens) - n + 1))


def _max_counts(token_lists: Sequence[Sequence[str]], n: int) -> Counter:
    """Per n-gram, its largest count in any one of the token lists."""
    out: Counter = Counter()
    for tokens in token_lists:
        out |= _grams(tokens, n)
    return out


def bleu(candidates: Sequence[str], references: Sequence[Sequence[str]], smoothing: bool = False) -> float:
    clipped, totals = [0] * 4, [0] * 4
    cand_len = ref_len = 0
    for cand, refs in zip(candidates, references):
        ct = tokenize(cand)
        rts = [tokenize(r) for r in refs]
        cand_len += len(ct)
        ref_len += min((abs(len(rt) - len(ct)), len(rt)) for rt in rts)[1]
        for n in range(1, 5):
            grams = _grams(ct, n)
            totals[n - 1] += sum(grams.values())
            clipped[n - 1] += sum((grams & _max_counts(rts, n)).values())
    precisions = []
    for n in range(1, 5):
        matched, total = clipped[n - 1], totals[n - 1]
        if smoothing and n > 1:
            matched, total = matched + 1, total + 1
        precisions.append(matched / total if total else 0.0)
    if any(p == 0.0 for p in precisions) or cand_len == 0:
        return 0.0
    geo = math.exp(sum(math.log(p) for p in precisions) / 4)
    bp = 1.0 if cand_len >= ref_len else math.exp(1 - ref_len / cand_len)
    return bp * geo


def nist(candidates: Sequence[str], references: Sequence[Sequence[str]]) -> float:
    ref_tokens = [[tokenize(r) for r in refs] for refs in references]
    ref_counts: Counter = Counter()
    total_words = 0
    for rts in ref_tokens:
        for rt in rts:
            total_words += len(rt)
            for n in range(1, 6):
                ref_counts.update(_grams(rt, n))

    def info(gram: tuple[str, ...]) -> float:
        count = ref_counts[gram]
        if count == 0:
            return 0.0
        parent = total_words if len(gram) == 1 else ref_counts[gram[:-1]]
        return math.log2(parent / count) if parent else 0.0

    numer, denom = [0.0] * 5, [0] * 5
    cand_len, ref_len = 0, 0.0
    for cand, rts in zip(candidates, ref_tokens):
        ct = tokenize(cand)
        cand_len += len(ct)
        ref_len += sum(len(rt) for rt in rts) / len(rts)
        for n in range(1, 6):
            grams = _grams(ct, n)
            denom[n - 1] += sum(grams.values())
            limit = _max_counts(rts, n)
            for gram, count in grams.items():
                matched = min(count, limit[gram])
                if matched:
                    numer[n - 1] += matched * info(gram)
    if cand_len == 0 or ref_len == 0:
        return 0.0
    score = sum(numer[i] / denom[i] for i in range(5) if denom[i])
    # a system 2/3 the reference length scores a brevity factor of 0.5
    beta = math.log(0.5) / math.log(2 / 3) ** 2
    ratio = min(cand_len / ref_len, 1.0)
    return score * math.exp(beta * math.log(ratio) ** 2)


def cider(candidates: Sequence[str], references: Sequence[Sequence[str]]) -> float:
    n_items = len(candidates)
    ref_tokens = [[tokenize(r) for r in refs] for refs in references]
    df: Counter = Counter()
    for rts in ref_tokens:
        df.update({gram for rt in rts for n in range(1, 5) for gram in _grams(rt, n)})

    def tfidf(tokens: Sequence[str], n: int) -> dict:
        return {g: c * math.log(n_items / max(1, df[g])) for g, c in _grams(tokens, n).items()}

    def cosine(u: dict, v: dict) -> float:
        dot = sum(u[g] * v[g] for g in u if g in v)
        nu = math.sqrt(sum(x * x for x in u.values()))
        nv = math.sqrt(sum(x * x for x in v.values()))
        return dot / (nu * nv) if nu and nv else 0.0

    total = 0.0
    for cand, rts in zip(candidates, ref_tokens):
        ct = tokenize(cand)
        item = 0.0
        for n in range(1, 5):
            cv = tfidf(ct, n)
            item += sum(cosine(cv, tfidf(rt, n)) for rt in rts) / len(rts)
        total += 10.0 * item / 4
    return total / n_items


def meteor_single(ct: Sequence[str], rt: Sequence[str]) -> float:
    """METEOR of one candidate against one reference, as token lists: each
    candidate token in turn is aligned to the first reference position no
    earlier token took that holds the same token, then each token left
    unaligned to the first free position with the same stem; the harmonic
    mean weights recall nine times precision, less the fragmentation
    penalty 0.5 · (chunks / matches)³, a chunk a run of alignments adjacent
    on both sides."""
    if not ct or not rt:
        return 0.0
    aligned: list[Optional[int]] = [None] * len(ct)
    taken = [False] * len(rt)
    for key in (lambda w: w, stem):
        for i, word in enumerate(ct):
            if aligned[i] is not None:
                continue
            for j, ref_word in enumerate(rt):
                if not taken[j] and key(ref_word) == key(word):
                    aligned[i] = j
                    taken[j] = True
                    break
    pairs = [(i, j) for i, j in enumerate(aligned) if j is not None]
    matches = len(pairs)
    if matches == 0:
        return 0.0
    precision = matches / len(ct)
    recall = matches / len(rt)
    fmean = 10 * precision * recall / (recall + 9 * precision)
    chunks = 1 + sum(1 for (i0, j0), (i1, j1) in zip(pairs, pairs[1:]) if (i1, j1) != (i0 + 1, j0 + 1))
    return fmean * (1 - 0.5 * (chunks / matches) ** 3)


def meteor(candidate: str, references: Sequence[str]) -> float:
    ct = tokenize(candidate)
    return max(meteor_single(ct, tokenize(r)) for r in references)


def rouge_l(candidate: str, references: Sequence[str]) -> float:
    ct = tokenize(candidate)
    beta_sq = 1.2
    best = 0.0
    for ref in references:
        rt = tokenize(ref)
        lcs = lcs_len(ct, rt)
        if lcs:
            precision, recall = lcs / len(ct), lcs / len(rt)
            best = max(best, (1 + beta_sq) * precision * recall / (recall + beta_sq * precision))
    return best


def ter(candidate: str, references: Sequence[str]) -> float:
    ct = tokenize(candidate)
    return min(ter_edits(ct, rt) / len(rt) for rt in map(tokenize, references))


def evaluate_corpus(candidates, references, sources, reconstructions, smoothing=False) -> MetricReport:
    n = len(candidates)
    scores = [
        osf(x, r) if r is not None else OsfScore(0.0, 0.0, 0.0)
        for x, r in zip(sources, reconstructions)
    ]
    pairs = list(zip(candidates, references))
    return MetricReport(
        bleu=bleu(candidates, references, smoothing),
        nist=nist(candidates, references),
        meteor=sum(meteor(c, r) for c, r in pairs) / n,
        rouge_l=sum(rouge_l(c, r) for c, r in pairs) / n,
        cider=cider(candidates, references),
        ter=sum(ter(c, r) for c, r in pairs) / n,
        epm=sum(epm(source_values(x), c) for x, c in zip(sources, candidates)) / n,
        osf=OsfScore(
            precision=sum(s.precision for s in scores) / n,
            recall=sum(s.recall for s in scores) / n,
            f1=sum(s.f1 for s in scores) / n,
        ),
    )


# ---------------------------------------------------------------- value checks


def value_in_text(value: str, text: str) -> bool:
    """Whether `value` occurs in `text`, both with whitespace runs collapsed
    and case-folded, as a non-empty string with no alphanumeric character
    on either side."""
    v = " ".join(value.split()).casefold()
    t = " ".join(text.split()).casefold()
    return bool(v) and any(
        t[i : i + len(v)] == v
        and (i == 0 or not t[i - 1].isalnum())
        and (i + len(v) == len(t) or not t[i + len(v)].isalnum())
        for i in range(len(t) - len(v) + 1)
    )


def source_values(x: RecordSet) -> list[str]:
    """The values of x's records, the first spelling of each under case-folding."""
    first: dict[str, str] = {}
    for r in x.records:
        for v in r.values:
            first.setdefault(v.casefold(), v)
    return list(first.values())


def epm(values: Sequence[str], y: str) -> float:
    return sum(1 for v in values if value_in_text(v, y)) / len(values) if values else 0.0


def optimize_target(values: Sequence[str], y_prime: str) -> OptimizationOutcome:
    """Greedy sentence selection: a sentence is kept the first time it holds
    a value no earlier sentence matched; the kept sentences replace y' when
    they hold every value."""
    kept: list[str] = []
    matched: list[str] = []
    for s in split_sentences(y_prime):
        for v in values:
            if v not in matched and value_in_text(v, s):
                matched.append(v)
                if s not in kept:
                    kept.append(s)
    if values and len(matched) == len(values):
        optimized = " ".join(kept)
        return OptimizationOutcome(optimized, optimized != y_prime, tuple(matched), tuple(kept))
    return OptimizationOutcome(y_prime, False, tuple(matched), tuple(kept))


# ---------------------------------------------------------------- records and models


def delinearize(t: str, kind: RecordKind) -> DelinearizeResult:
    """Parse a linear string, building each record from fields that are
    normalised one by one; a segment that is not a valid record is dropped."""
    n_fields, make = (3, Triple) if kind is RecordKind.TRIPLESET else (2, Mr)
    records = []
    dropped = 0
    text = normalize_text(t)
    for seg in text.split(RECORD_SEP) if text else ():
        fields = [normalize_text(f) for f in seg.split(FIELD_SEP)]
        if len(fields) != n_fields or not all(fields):
            dropped += 1
            continue
        try:
            records.append(make(*fields))
        except RecordFieldError:
            dropped += 1
    if not records:
        raise DelinearizeError(f"no parseable {kind.value} segment in {t!r} ({dropped} dropped)")
    return DelinearizeResult(RecordSet(tuple(records), kind), dropped)


def infer_record_set(text: str) -> Optional[RecordSet]:
    """Parse as each variant and keep the parse that drops fewer segments,
    the tripleset one on ties; None when neither parses."""
    best = None
    for kind in (RecordKind.TRIPLESET, RecordKind.MR_SET):
        try:
            res = delinearize(text, kind)
        except DelinearizeError:
            continue
        if best is None or res.dropped < best.dropped:
            best = res
    return None if best is None else best.record_set


def _phrase(label: str) -> str:
    return label.lower().replace("_", " ")


def rule_d2t_generate(text: str) -> str:
    """`RuleBasedD2T().generate(text)` by rendering the record set
    `infer_record_set` reads: one sentence per triple, or per MR pair with
    the subject pair's value as the subject and that pair itself rendered
    alone only when it is the only kind of pair; "" when nothing parses."""
    rs = infer_record_set(text)
    if rs is None:
        return ""
    if rs.kind is RecordKind.TRIPLESET:
        return " ".join(f"{t.subject} {_phrase(t.predicate)} {t.object}." for t in rs.records)
    name = next((m.value for m in rs.records if m.is_subject), None)
    lead = "" if name is None else f"{name} "
    sentences = [f"{lead}{_phrase(m.key)} {m.value}." for m in rs.records if not m.is_subject]
    return " ".join(sentences or [f"{name}."])


def _bounded_find(text: str, phrase: str, spans: Sequence[tuple[int, int]]) -> Optional[int]:
    """The leftmost start of `phrase` in `text` with no alphanumeric
    character on either side, overlapping none of `spans`."""
    i = text.find(phrase)
    while i != -1:
        end = i + len(phrase)
        if (
            (i == 0 or not text[i - 1].isalnum())
            and (end == len(text) or not text[end].isalnum())
            and all(end <= s or i >= e for s, e in spans)
        ):
            return i
        i = text.find(phrase, i + 1)
    return None


def t2d_generate(catalog: Sequence[RecordSet], text: str) -> str:
    """`RuleBasedT2D(catalog).generate(text)` by a scan of every catalog
    value and record.

    The catalog's records, each once up to case, are searched in the
    case-folded, whitespace-normalised text. Values are found longest first
    (ties in string order), each at its leftmost word-bounded occurrence
    outside the spans of values found before it. A record is recovered when
    all its values are found and, unless it is an MR set's name pair, its
    label (lowercased, underscores as spaces) occurs word-bounded. Records
    come out ordered by their first found value, then by catalog order."""
    first: dict[tuple, Record] = {}
    for rs in catalog:
        for r in rs.records:
            first.setdefault(record_key(r), r)
    records = list(first.values())
    norm = normalize_text(text).casefold()
    if not norm:
        return ""
    positions: dict[str, int] = {}
    spans: list[tuple[int, int]] = []
    for v in sorted({v.casefold() for r in records for v in r.values}, key=lambda v: (-len(v), v)):
        pos = _bounded_find(norm, v, spans)
        if pos is not None:
            positions[v] = pos
            spans.append((pos, pos + len(v)))
    chosen = []
    for idx, r in enumerate(records):
        values = [v.casefold() for v in r.values]
        if not all(v in positions for v in values):
            continue
        name_pair = isinstance(r, Mr) and r.label.casefold() == "name"
        if not name_pair and _bounded_find(norm, r.label.lower().replace("_", " ").casefold(), ()) is None:
            continue
        chosen.append((min(positions[v] for v in values), idx, r))
    chosen.sort(key=lambda t: t[:2])
    return render_records([r for _, _, r in chosen])


# ---------------------------------------------------------------- loaders


def _holds_surrogate(text: str) -> bool:
    return any(0xD800 <= ord(c) <= 0xDFFF for c in text)


def _dart_entry(entry) -> tuple[list[Example], list[str]]:
    """One DART entry's examples and its warnings, without their prefix."""
    if not isinstance(entry, dict):
        return [], ["not an object, skipped"]
    tripleset = entry.get("tripleset")
    if not isinstance(tripleset, list) or not tripleset:
        return [], ["empty or missing tripleset, skipped"]
    records, notes = [], []
    for j, t in enumerate(tripleset):
        try:
            records.append(make_record(RecordKind.TRIPLESET, t))
        except RecordFieldError as exc:
            notes.append(f"triple {j} rejected ({exc}), dropped")
    if not records:
        return [], notes + ["no usable triples, skipped"]
    annotations = entry.get("annotations")
    if not isinstance(annotations, list) or not annotations:
        return [], notes + ["no annotations, skipped"]
    rs = RecordSet(tuple(records), RecordKind.TRIPLESET)
    source_text = linearize(rs)
    texts = [a.get("text") if isinstance(a, dict) else a for a in annotations]
    if any(_holds_surrogate(t) for t in [source_text, *texts] if isinstance(t, str)):
        return [], notes + ["lone surrogate in a triple or an annotation, skipped"]
    usable = [isinstance(t, str) and bool(t.strip()) for t in texts]
    notes += [f"annotation {k} has no text, dropped" for k, ok in enumerate(usable) if not ok]
    if not any(usable):
        notes.append("all annotations unusable, skipped")
    return [Example(rs, source_text, t) for t, ok in zip(texts, usable) if ok], notes


def load_dart(path) -> tuple[tuple[Example, ...], tuple[str, ...]]:
    """`load_dart(path)`'s examples and warnings: one Example per usable
    annotation of an entry with a usable triple, each triple built by
    `make_record` on its own, and each string of an entry looked through for
    a surrogate code point on its own."""
    with open(path, encoding="utf-8-sig") as fh:
        entries = json.load(fh)
    examples: list[Example] = []
    warnings: list[str] = []
    for i, entry in enumerate(entries):
        got, notes = _dart_entry(entry)
        examples += got
        warnings += [f"entry {i}: {note}" for note in notes]
    return tuple(examples), tuple(warnings)


def load_e2e(path) -> tuple[tuple[Example, ...], tuple[str, ...]]:
    """`load_e2e(path)`'s examples and warnings, each row's MR parsed and its
    pairs built by `Mr` on their own. A row without a name pair keeps its
    pairs as written."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        rows = list(csv.DictReader(fh))
    examples: list[Example] = []
    warnings: list[str] = []
    for i, row in enumerate(rows):
        mr, ref = row.get("mr"), row.get("ref")
        if not (mr or "").strip():
            warnings.append(f"row {i}: empty mr, skipped")
            continue
        if not (ref or "").strip():
            warnings.append(f"row {i}: missing ref, skipped")
            continue
        try:
            rs = RecordSet(tuple(Mr(k, v) for k, v in _parse_mr(mr)), RecordKind.MR_SET)
        except (ValueError, RecordFieldError) as exc:
            warnings.append(f"row {i}: unparseable mr ({exc}), skipped")
            continue
        if all(r.key.casefold() != "name" for r in rs.records):
            warnings.append(f"row {i}: no name attribute, using {rs.records[0].key!r} as subject")
            examples.append(Example(rs, render_records(rs.records), ref))
            continue
        try:
            examples.append(Example(rs, linearize(rs), ref))
        except LinearizationError as exc:
            warnings.append(f"row {i}: cannot linearize ({exc}), skipped")
    return tuple(examples), tuple(warnings)
