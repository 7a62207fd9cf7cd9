"""The corpus metrics as they were before evaluation analysed each text once,
kept verbatim as the reference the shared-analysis versions must equal.

Only the code that changed is copied; the kernels it calls (`tokenize`,
`_meteor_single`, `_lcs_len`, `_ter_edits`, `osf`) are unchanged and
imported. `epm` keeps its per-value `value_in_text` call.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Optional, Sequence

from d2t_selftrain.errors import MetricError
from d2t_selftrain.linearize import extract_source_values
from d2t_selftrain.metrics import (
    MetricReport,
    Ngram,
    OsfScore,
    _check_aligned,
    _lcs_len,
    _meteor_single,
    _ter_edits,
    osf,
    tokenize,
)
from d2t_selftrain.records import RecordSet, value_in_text


def _ngrams(tokens: Sequence[str], n: int) -> list[Ngram]:
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


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


def meteor(candidate: str, references: Sequence[str]) -> float:
    """Original-formulation METEOR with exact and stem modules; best reference."""
    if not references:
        raise MetricError("meteor needs at least one reference")
    ct = tokenize(candidate)
    return max(_meteor_single(ct, tokenize(r)) for r in references)


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
        rate = _ter_edits(ct, rt) / len(rt)
        best = rate if best is None else min(best, rate)
    return best


def epm(x: RecordSet, y: str) -> float:
    """Fraction of the source values of x present in y (normalized,
    case-folded substring match)."""
    values = extract_source_values(x)
    if not values:
        return 0.0
    return sum(1 for v in values if value_in_text(v, y)) / len(values)


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
