"""String-overlap evaluation metrics implemented from scratch.

Eight metrics over one shared tokenizer: BLEU, NIST, METEOR (exact + stem
modules), ROUGE-L, CIDEr, TER, exact-phrase matching of source values (EPM),
and slot-filling precision/recall/F1 over record sets (OSF). All functions
are pure; corpus-level scorers (bleu, nist, cider) take aligned candidate and
reference lists, sentence-level ones take a candidate and its references and
return the best reference's score.

Scores are reported on their natural scales: 0-1 for BLEU/METEOR/ROUGE-L/
EPM/OSF, edits-per-word for TER, the customary 0-10 ranges for NIST and
CIDEr (CIDEr keeps the x10 scaling).
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import MetricError, VariantMismatchError
from .linearize import extract_source_values
from .records import RecordSet, normalize_text, record_key, value_in_text
from .stemming import stem

Ngram = tuple[str, ...]


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def tokenize(text: str) -> list[str]:
    """Shared metric tokenizer.

    Normalizes whitespace, case-folds, and splits leading/trailing
    punctuation off each word as separate tokens; internal punctuation
    (hyphens, apostrophes) stays attached.
    """
    tokens: list[str] = []
    for chunk in normalize_text(text).casefold().split():
        lead: list[str] = []
        while chunk and _is_punct(chunk[0]):
            lead.append(chunk[0])
            chunk = chunk[1:]
        trail: list[str] = []
        while chunk and _is_punct(chunk[-1]):
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(lead)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trail))
    return tokens


def _ngrams(tokens: Sequence[str], n: int) -> list[Ngram]:
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def _check_aligned(candidates: Sequence[str], references: Sequence[Sequence[str]]) -> None:
    if not candidates:
        raise MetricError("empty corpus")
    if len(candidates) != len(references):
        raise MetricError(
            f"{len(candidates)} candidates vs {len(references)} reference lists"
        )
    if any(not refs for refs in references):
        raise MetricError("every item needs at least one reference")


def _max_ref_counts(ref_tokens: Sequence[Sequence[str]], n: int) -> Counter:
    out: Counter = Counter()
    for rt in ref_tokens:
        for gram, count in Counter(_ngrams(rt, n)).items():
            if count > out[gram]:
                out[gram] = count
    return out


def bleu(
    candidates: Sequence[str],
    references: Sequence[Sequence[str]],
    max_n: int = 4,
    smoothing: bool = False,
) -> float:
    """Corpus BLEU: clipped n-gram precision geometric mean, n=1..max_n.

    Brevity penalty exp(1 - r/c) when the candidate corpus is shorter than
    the closest-length references. Any zero precision makes the score 0.0
    unless add-one smoothing (n >= 2) is enabled for tiny corpora.
    """
    _check_aligned(candidates, references)
    clipped = [0] * max_n
    totals = [0] * max_n
    cand_len = 0
    ref_len = 0
    for cand, refs in zip(candidates, references):
        ct = tokenize(cand)
        rts = [tokenize(r) for r in refs]
        cand_len += len(ct)
        # closest reference length; ties favor the shorter
        ref_len += min((abs(len(rt) - len(ct)), len(rt)) for rt in rts)[1]
        for n in range(1, max_n + 1):
            grams = Counter(_ngrams(ct, n))
            totals[n - 1] += sum(grams.values())
            if not grams:
                continue
            limit = _max_ref_counts(rts, n)
            clipped[n - 1] += sum(min(c, limit[g]) for g, c in grams.items())

    precisions = []
    for n in range(1, max_n + 1):
        matched, total = clipped[n - 1], totals[n - 1]
        if smoothing and n > 1:
            matched, total = matched + 1, total + 1
        precisions.append(matched / total if total else 0.0)
    if any(p == 0.0 for p in precisions):
        return 0.0
    geo = math.exp(sum(math.log(p) for p in precisions) / max_n)
    if cand_len == 0:
        return 0.0
    bp = 1.0 if cand_len >= ref_len else math.exp(1 - ref_len / cand_len)
    return bp * geo


_NIST_BETA = math.log(0.5) / math.log(2 / 3) ** 2


def nist(
    candidates: Sequence[str],
    references: Sequence[Sequence[str]],
    max_n: int = 5,
) -> float:
    """Corpus NIST: information-weighted n-gram co-occurrence, n=1..max_n.

    Information weights come from reference-corpus frequencies:
    info(w1..wn) = log2(count(w1..wn-1) / count(w1..wn)), with the total
    reference word count as the unigram numerator. The brevity factor is
    exp(beta * ln^2(min(Lsys/Lref, 1))) with beta fixed so that a 2/3-length
    system scores a 0.5 factor.
    """
    _check_aligned(candidates, references)
    ref_counts: Counter = Counter()
    total_words = 0
    ref_tokens = [[tokenize(r) for r in refs] for refs in references]
    for rts in ref_tokens:
        for rt in rts:
            total_words += len(rt)
            for n in range(1, max_n + 1):
                ref_counts.update(_ngrams(rt, n))

    def info(gram: Ngram) -> float:
        count = ref_counts[gram]
        if count == 0:
            return 0.0
        parent = total_words if len(gram) == 1 else ref_counts[gram[:-1]]
        return math.log2(parent / count) if parent else 0.0

    numer = [0.0] * max_n
    denom = [0] * max_n
    cand_len = 0
    ref_len = 0.0
    for cand, rts in zip(candidates, ref_tokens):
        ct = tokenize(cand)
        cand_len += len(ct)
        ref_len += sum(len(rt) for rt in rts) / len(rts)
        for n in range(1, max_n + 1):
            grams = Counter(_ngrams(ct, n))
            denom[n - 1] += sum(grams.values())
            limit = _max_ref_counts(rts, n)
            for gram, count in grams.items():
                matched = min(count, limit[gram])
                if matched:
                    numer[n - 1] += matched * info(gram)

    if cand_len == 0 or ref_len == 0:
        return 0.0
    score = sum(numer[i] / denom[i] for i in range(max_n) if denom[i])
    ratio = min(cand_len / ref_len, 1.0)
    return score * math.exp(_NIST_BETA * math.log(ratio) ** 2)


def _meteor_single(ct: Sequence[str], rt: Sequence[str]) -> float:
    if not ct or not rt:
        return 0.0
    cand_match: list[Optional[int]] = [None] * len(ct)
    ref_used = [False] * len(rt)
    # exact stage first, then the stem stage on whatever is left
    for key in (lambda w: w, stem):
        rkeys = [key(w) for w in rt]
        for i, word in enumerate(ct):
            if cand_match[i] is not None:
                continue
            k = key(word)
            for j, rk in enumerate(rkeys):
                if not ref_used[j] and rk == k:
                    cand_match[i] = j
                    ref_used[j] = True
                    break
    pairs = [(i, j) for i, j in enumerate(cand_match) if j is not None]
    matches = len(pairs)
    if matches == 0:
        return 0.0
    precision = matches / len(ct)
    recall = matches / len(rt)
    fmean = 10 * precision * recall / (recall + 9 * precision)
    chunks = 1
    for (i0, j0), (i1, j1) in zip(pairs, pairs[1:]):
        if i1 != i0 + 1 or j1 != j0 + 1:
            chunks += 1
    penalty = 0.5 * (chunks / matches) ** 3
    return fmean * (1 - penalty)


def meteor(candidate: str, references: Sequence[str]) -> float:
    """Original-formulation METEOR with exact and stem modules; best reference."""
    if not references:
        raise MetricError("meteor needs at least one reference")
    ct = tokenize(candidate)
    return max(_meteor_single(ct, tokenize(r)) for r in references)


def _lcs_len(a: Sequence[str], b: Sequence[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(candidate: str, references: Sequence[str], beta_sq: float = 1.2) -> float:
    """LCS F-measure with recall-favoring beta^2 (1.2); best reference wins."""
    if not references:
        raise MetricError("rouge_l needs at least one reference")
    ct = tokenize(candidate)
    best = 0.0
    for ref in references:
        rt = tokenize(ref)
        lcs = _lcs_len(ct, rt)
        if lcs == 0:
            continue
        precision = lcs / len(ct)
        recall = lcs / len(rt)
        score = (1 + beta_sq) * precision * recall / (recall + beta_sq * precision)
        best = max(best, score)
    return best


def cider(
    candidates: Sequence[str],
    references: Sequence[Sequence[str]],
    max_n: int = 4,
) -> float:
    """Corpus CIDEr: mean tf-idf n-gram cosine (n=1..max_n), scaled by 10.

    idf is ln(items / document frequency) over the reference corpus, where an
    item counts toward an n-gram's frequency when any of its references
    contains it.
    """
    _check_aligned(candidates, references)
    n_items = len(candidates)
    if n_items < 2:
        raise MetricError("cider needs >= 2 corpus items for a meaningful idf")
    ref_tokens = [[tokenize(r) for r in refs] for refs in references]
    df: Counter = Counter()
    for rts in ref_tokens:
        seen: set[Ngram] = set()
        for rt in rts:
            for n in range(1, max_n + 1):
                seen.update(_ngrams(rt, n))
        df.update(seen)

    def tfidf(tokens: Sequence[str], n: int) -> dict[Ngram, float]:
        return {
            gram: count * math.log(n_items / max(1, df[gram]))
            for gram, count in Counter(_ngrams(tokens, n)).items()
        }

    def cosine(u: dict[Ngram, float], v: dict[Ngram, float]) -> float:
        # dict order, not set order: the sum must not depend on the hash seed
        dot = sum(u[g] * v[g] for g in u if g in v)
        nu = math.sqrt(sum(x * x for x in u.values()))
        nv = math.sqrt(sum(x * x for x in v.values()))
        return dot / (nu * nv) if nu and nv else 0.0

    total = 0.0
    for cand, rts in zip(candidates, ref_tokens):
        ct = tokenize(cand)
        item = 0.0
        for n in range(1, max_n + 1):
            cv = tfidf(ct, n)
            item += sum(cosine(cv, tfidf(rt, n)) for rt in rts) / len(rts)
        total += 10.0 * item / max_n
    return total / n_items


def _edit_distance(a: Sequence[str], b: Sequence[str]) -> int:
    if not a:
        return len(b)
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def _ref_block_positions(rt: Sequence[str]) -> dict[Ngram, list[int]]:
    positions: dict[Ngram, list[int]] = {}
    for length in range(1, len(rt) + 1):
        for start in range(len(rt) - length + 1):
            positions.setdefault(tuple(rt[start : start + length]), []).append(start)
    return positions


def _ter_edits(hyp: list[str], rt: Sequence[str]) -> int:
    """Greedy shift search: repeatedly apply the block shift that most
    reduces word edit distance (first such shift on ties), one edit each,
    then add the residual edit distance."""
    ref_blocks = _ref_block_positions(rt)
    shifts = 0
    dist = _edit_distance(hyp, rt)
    while dist > 0:
        best_gain = 0
        best_hyp: Optional[list[str]] = None
        best_dist = dist
        for i in range(len(hyp)):
            for length in range(1, len(hyp) - i + 1):
                block = tuple(hyp[i : i + length])
                targets = ref_blocks.get(block)
                if not targets:
                    continue
                removed = hyp[:i] + hyp[i + length :]
                for pos in targets:
                    j = min(pos, len(removed))
                    shifted = removed[:j] + list(block) + removed[j:]
                    if shifted == hyp:
                        continue
                    d = _edit_distance(shifted, rt)
                    if dist - d > best_gain:
                        best_gain = dist - d
                        best_hyp = shifted
                        best_dist = d
        if best_hyp is None:
            break
        hyp = best_hyp
        dist = best_dist
        shifts += 1
    return shifts + dist


def ter(candidate: str, references: Sequence[str]) -> float:
    """Translation edit rate: min over references of edits / reference length."""
    if not references:
        raise MetricError("ter needs at least one reference")
    ct = tokenize(candidate)
    best = None
    for ref in references:
        rt = tokenize(ref)
        if not rt:
            raise MetricError("ter is undefined against an empty reference")
        rate = _ter_edits(list(ct), rt) / len(rt)
        best = rate if best is None else min(best, rate)
    return best


def epm(x: RecordSet, y: str) -> float:
    """Fraction of the source values of x present in y (normalized,
    case-folded substring match)."""
    values = extract_source_values(x)
    if not values:
        return 0.0
    return sum(1 for v in values if value_in_text(v, y)) / len(values)


@dataclass(frozen=True)
class OsfScore:
    precision: float
    recall: float
    f1: float

    def to_dict(self, scale: float = 1.0) -> dict:
        return {
            "precision": self.precision * scale,
            "recall": self.recall * scale,
            "f1": self.f1 * scale,
        }


def osf(input_kb: RecordSet, reconstructed_kb: RecordSet, strict: bool = False) -> OsfScore:
    """Slot-filling scores: records matched between input and reconstruction
    under set semantics; precision is 0 when the reconstruction is empty."""
    if input_kb.kind is not reconstructed_kb.kind:
        raise VariantMismatchError(
            f"cannot compare {input_kb.kind.value} with {reconstructed_kb.kind.value}"
        )
    in_keys = {record_key(r, strict=strict) for r in input_kb.records}
    out_keys = {record_key(r, strict=strict) for r in reconstructed_kb.records}
    matches = len(in_keys & out_keys)
    precision = matches / len(out_keys) if out_keys else 0.0
    recall = matches / len(in_keys) if in_keys else 0.0
    total = precision + recall
    return OsfScore(precision, recall, 2 * precision * recall / total if total else 0.0)


@dataclass(frozen=True)
class MetricReport:
    bleu: float
    nist: float
    meteor: float
    rouge_l: float
    cider: float
    ter: float
    epm: Optional[float] = None
    osf: Optional[OsfScore] = None

    def to_dict(self, scale: float = 1.0) -> dict:
        """Serialize; `scale` (e.g. 100) applies to the 0-1 metrics and TER,
        never to NIST or CIDEr which have their own customary ranges."""
        return {
            "bleu": self.bleu * scale,
            "nist": self.nist,
            "meteor": self.meteor * scale,
            "rouge_l": self.rouge_l * scale,
            "cider": self.cider,
            "ter": self.ter * scale,
            "epm": None if self.epm is None else self.epm * scale,
            "osf": None if self.osf is None else self.osf.to_dict(scale),
        }


def evaluate_corpus(
    candidates: Sequence[str],
    references: Sequence[Sequence[str]],
    sources: Optional[Sequence[RecordSet]] = None,
    reconstructions: Optional[Sequence[Optional[RecordSet]]] = None,
    smoothing: bool = False,
) -> MetricReport:
    """Full report over an aligned corpus.

    BLEU, NIST and CIDEr are corpus-level; METEOR, ROUGE-L and TER are means
    of per-item best-reference scores. EPM needs `sources`; OSF additionally
    needs `reconstructions` (items with a missing reconstruction score zero).
    """
    _check_aligned(candidates, references)
    n = len(candidates)
    if sources is not None and len(sources) != n:
        raise MetricError("sources misaligned with candidates")
    if reconstructions is not None:
        if sources is None:
            raise MetricError("reconstructions require sources")
        if len(reconstructions) != n:
            raise MetricError("reconstructions misaligned with candidates")

    report_epm = None
    report_osf = None
    if sources is not None:
        report_epm = sum(epm(x, c) for x, c in zip(sources, candidates)) / n
        if reconstructions is not None:
            scores = [
                osf(x, r) if r is not None else OsfScore(0.0, 0.0, 0.0)
                for x, r in zip(sources, reconstructions)
            ]
            report_osf = OsfScore(
                precision=sum(s.precision for s in scores) / n,
                recall=sum(s.recall for s in scores) / n,
                f1=sum(s.f1 for s in scores) / n,
            )

    return MetricReport(
        bleu=bleu(candidates, references, smoothing=smoothing),
        nist=nist(candidates, references),
        meteor=sum(meteor(c, r) for c, r in zip(candidates, references)) / n,
        rouge_l=sum(rouge_l(c, r) for c, r in zip(candidates, references)) / n,
        cider=cider(candidates, references),
        ter=sum(ter(c, r) for c, r in zip(candidates, references)) / n,
        epm=report_epm,
        osf=report_osf,
    )
