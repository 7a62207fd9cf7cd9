"""String-overlap evaluation metrics implemented from scratch.

Eight metrics over one shared tokenizer: BLEU, NIST, METEOR (exact + stem
modules), ROUGE-L, CIDEr, TER, exact-phrase matching of source values (EPM;
a value matches where `records.find_bounded` finds it, case-folded and
word-bounded) and slot-filling precision/recall/F1 over record sets (OSF).
All functions are pure; corpus-level scorers (bleu, nist, cider) take
aligned candidate and reference lists, sentence-level ones take a candidate
and its references and return the best reference's score.

Scores are reported on their natural scales: 0-1 for BLEU/METEOR/ROUGE-L/
EPM/OSF, edits-per-word for TER, the customary 0-10 ranges for NIST and
CIDEr (CIDEr keeps the x10 scaling).
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import MetricError, VariantMismatchError
from .records import RecordSet, find_bounded, fold
from .stemming import stem

Ngram = tuple[str, ...]


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def tokenize(text: str) -> list[str]:
    """Shared metric tokenizer.

    Case-folds, splits at whitespace runs (case-folding makes no character
    whitespace and none not), and splits leading/trailing punctuation off
    each word as separate tokens; internal punctuation (hyphens,
    apostrophes) stays attached.
    """
    tokens: list[str] = []
    for chunk in text.casefold().split():
        if chunk[0].isalnum() and chunk[-1].isalnum():  # no punctuation to split off
            tokens.append(chunk)
            continue
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


def _ngrams(tokens: Sequence[str], n: int) -> Iterator[Ngram]:
    return zip(*(tokens[k:] for k in range(n)))


class _Text(str):
    """A text analysed once: its tokens at once, and the counts of its
    n-grams of each order, in first-occurrence order, on first use. Made per
    call, so nothing outlives the call that analysed it."""

    __slots__ = ("tokens", "_grams")

    def __new__(cls, text: str) -> "_Text":
        self = super().__new__(cls, text)
        self.tokens = tuple(tokenize(text))
        self._grams = {}
        return self

    def grams(self, n: int) -> Counter:
        counts = self._grams.get(n)
        if counts is None:
            counts = self._grams[n] = Counter(_ngrams(self.tokens, n))
        return counts


def _analysed(text: str) -> _Text:
    return text if isinstance(text, _Text) else _Text(text)


def _check_aligned(candidates: Sequence[str], references: Sequence[Sequence[str]]) -> None:
    if not candidates:
        raise MetricError("empty corpus")
    if len(candidates) != len(references):
        raise MetricError(
            f"{len(candidates)} candidates vs {len(references)} reference lists"
        )
    if any(not refs for refs in references):
        raise MetricError("every item needs at least one reference")


def _max_ref_counts(refs: Sequence[_Text], n: int) -> Counter:
    """Per n-gram, its largest count in any one reference. A single
    reference's own counts are returned, so the caller must not change them."""
    if len(refs) == 1:
        return refs[0].grams(n)
    out: Counter = Counter()
    for ref in refs:
        for gram, count in ref.grams(n).items():
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
    if max_n < 1:
        raise MetricError(f"bleu needs max_n >= 1, got {max_n}")
    clipped = [0] * max_n
    totals = [0] * max_n
    cand_len = 0
    ref_len = 0
    for cand, refs in zip(candidates, references):
        cand = _analysed(cand)
        refs = [_analysed(r) for r in refs]
        length = len(cand.tokens)
        cand_len += length
        # closest reference length; ties favor the shorter
        ref_len += min((abs(len(r.tokens) - length), len(r.tokens)) for r in refs)[1]
        for n in range(1, max_n + 1):
            grams = cand.grams(n)
            totals[n - 1] += sum(grams.values())
            if not grams:
                continue
            limit = _max_ref_counts(refs, n)
            clipped[n - 1] += sum(min(c, limit[g]) for g, c in grams.items())

    precisions = []
    for n in range(1, max_n + 1):
        matched, total = clipped[n - 1], totals[n - 1]
        if smoothing and n > 1:
            matched, total = matched + 1, total + 1
        precisions.append(matched / total if total else 0.0)
    # an empty candidate corpus has a zero unigram precision, so cand_len > 0 below
    if any(p == 0.0 for p in precisions):
        return 0.0
    geo = math.exp(sum(math.log(p) for p in precisions) / max_n)
    bp = 1.0 if cand_len >= ref_len else math.exp(1 - ref_len / cand_len)
    return bp * geo


_NIST_BETA = math.log(0.5) / math.log(2 / 3) ** 2
_NIST_MAX_N = 5


def nist(candidates: Sequence[str], references: Sequence[Sequence[str]]) -> float:
    """Corpus NIST: information-weighted n-gram co-occurrence, n=1..5.

    Information weights come from reference-corpus frequencies:
    info(w1..wn) = log2(count(w1..wn-1) / count(w1..wn)), with the total
    reference word count as the unigram numerator. The brevity factor is
    exp(beta * ln^2(min(Lsys/Lref, 1))) with beta fixed so that a 2/3-length
    system scores a 0.5 factor.
    """
    _check_aligned(candidates, references)
    ref_counts: Counter = Counter()
    total_words = 0
    references = [[_analysed(r) for r in refs] for refs in references]
    for refs in references:
        for ref in refs:
            total_words += len(ref.tokens)
            for n in range(1, _NIST_MAX_N + 1):
                ref_counts.update(ref.grams(n))

    weights: dict[Ngram, float] = {}

    def info(gram: Ngram) -> float:
        # only matched grams get here: a reference holds the gram, and so
        # its prefix at least as often, so both counts are positive
        weight = weights.get(gram)
        if weight is None:
            parent = total_words if len(gram) == 1 else ref_counts[gram[:-1]]
            weight = weights[gram] = math.log2(parent / ref_counts[gram])
        return weight

    numer = [0.0] * _NIST_MAX_N
    denom = [0] * _NIST_MAX_N
    cand_len = 0
    ref_len = 0.0
    for cand, refs in zip(candidates, references):
        cand = _analysed(cand)
        cand_len += len(cand.tokens)
        ref_len += sum(len(r.tokens) for r in refs) / len(refs)
        for n in range(1, _NIST_MAX_N + 1):
            grams = cand.grams(n)
            denom[n - 1] += sum(grams.values())
            limit = _max_ref_counts(refs, n)
            for gram, count in grams.items():
                matched = min(count, limit[gram])
                if matched:
                    numer[n - 1] += matched * info(gram)

    if cand_len == 0 or ref_len == 0:
        return 0.0
    score = sum(numer[i] / denom[i] for i in range(_NIST_MAX_N) if denom[i])
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
    ct = _analysed(candidate).tokens
    return max(_meteor_single(ct, _analysed(r).tokens) for r in references)


def _lcs_len(a: Sequence[str], b: Sequence[str]) -> int:
    """Bit-parallel LCS length (Allison & Dix, 1986). After a prefix of `a`,
    bit k of v is 0 exactly when its LCS with b[:k + 1] exceeds that with
    b[:k], so the zero bits count the LCS with all of b."""
    m = len(b)
    mask = (1 << m) - 1
    peq = _match_masks(b)
    v = mask
    for tok in a:
        u = v & peq.get(tok, 0)
        v = ((v + u) | (v - u)) & mask
    return m - v.bit_count()


_ROUGE_BETA_SQ = 1.2


def rouge_l(candidate: str, references: Sequence[str]) -> float:
    """LCS F-measure with recall-favoring beta^2 (1.2); best reference wins."""
    if not references:
        raise MetricError("rouge_l needs at least one reference")
    ct = _analysed(candidate).tokens
    best = 0.0
    for ref in references:
        rt = _analysed(ref).tokens
        lcs = _lcs_len(ct, rt)
        if lcs == 0:
            continue
        precision = lcs / len(ct)
        recall = lcs / len(rt)
        score = (1 + _ROUGE_BETA_SQ) * precision * recall / (recall + _ROUGE_BETA_SQ * precision)
        best = max(best, score)
    return best


_CIDER_MAX_N = 4


def cider(candidates: Sequence[str], references: Sequence[Sequence[str]]) -> float:
    """Corpus CIDEr: mean tf-idf n-gram cosine (n=1..4), scaled by 10.

    idf is ln(items / document frequency) over the reference corpus, where an
    item counts toward an n-gram's frequency when any of its references
    contains it.
    """
    _check_aligned(candidates, references)
    n_items = len(candidates)
    if n_items < 2:
        raise MetricError("cider needs >= 2 corpus items for a meaningful idf")
    references = [[_analysed(r) for r in refs] for refs in references]
    df: Counter = Counter()
    for refs in references:
        seen: set[Ngram] = set()
        for ref in refs:
            for n in range(1, _CIDER_MAX_N + 1):
                seen.update(ref.grams(n))
        df.update(seen)

    idf: dict[Ngram, float] = {}

    def tfidf(text: _Text, n: int) -> dict[Ngram, float]:
        vec = {}
        for gram, count in text.grams(n).items():
            weight = idf.get(gram)
            if weight is None:
                weight = idf[gram] = math.log(n_items / max(1, df[gram]))
            vec[gram] = count * weight
        return vec

    def cosine(u: dict[Ngram, float], v: dict[Ngram, float]) -> float:
        # dict order, not set order: the sum must not depend on the hash seed
        dot = sum(u[g] * v[g] for g in u if g in v)
        nu = math.sqrt(sum(x * x for x in u.values()))
        nv = math.sqrt(sum(x * x for x in v.values()))
        return dot / (nu * nv) if nu and nv else 0.0

    total = 0.0
    for cand, refs in zip(candidates, references):
        cand = _analysed(cand)
        item = 0.0
        for n in range(1, _CIDER_MAX_N + 1):
            cv = tfidf(cand, n)
            item += sum(cosine(cv, tfidf(ref, n)) for ref in refs) / len(refs)
        total += 10.0 * item / _CIDER_MAX_N
    return total / n_items


def _match_masks(rt: Sequence[str]) -> dict[str, int]:
    """Token -> bitmask of the reference positions that hold it."""
    peq: dict[str, int] = {}
    for k, tok in enumerate(rt):
        peq[tok] = peq.get(tok, 0) | 1 << k
    return peq


def _advance(
    peq: dict[str, int], m: int, state: tuple[int, int, int], tokens: Sequence[str]
) -> tuple[int, int, int]:
    """Myers' bit-vector edit distance in Hyyrö's global form: from the column
    state (vp, vn, score) after a hypothesis prefix, consume `tokens`. Bit k of
    vp/vn is a +1/-1 vertical delta at reference position k; score is the word
    edit distance of the prefix read so far to the whole m-token reference."""
    mask = (1 << m) - 1
    top = 1 << (m - 1)
    vp, vn, score = state
    for tok in tokens:
        eq = peq.get(tok, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp) & mask
        hn = vp & xh
        if hp & top:
            score += 1
        elif hn & top:
            score -= 1
        hp = (hp << 1 | 1) & mask
        hn = (hn << 1) & mask
        vp = hn | ~(xv | hp) & mask
        vn = hp & xv
    return vp, vn, score


# Shift candidates scored together in one bit-vector pass; a step holds the
# state of at most this many at a time.
_TER_LANES = 64


def _lane_distances(
    peq: dict[str, int],
    m: int,
    hyp: Sequence[str],
    prefix: Sequence[tuple[int, int, int]],
    lanes: Sequence[tuple[int, int, int]],
) -> list[int]:
    """Edit distance to the reference of each shifted hypothesis (i, L, j):
    `hyp` with its L tokens from i moved to position j of the rest.

    Every candidate runs `_advance`'s step in its own (m + 1)-bit lane of the
    same integers: the spare bit above a lane's m bits takes the carry out of
    its addition and the bit its left shift pushes out, and is masked off.
    A lane joins at min(i, j) with the state after that prefix of `hyp`, and
    at each later position x it reads hyp[x - delta]: delta is j - i in the
    moved block, +L or -L in the tokens it displaces, and 0 from
    max(i, j) + L on. Lanes with the same delta share one match mask per
    position. Bit k of a lane's vp/vn is the vertical delta at reference
    row k, so its distance is n plus their difference in popcount."""
    n = len(hyp)
    width = m + 1
    ones = (1 << m) - 1
    row = [peq.get(tok, 0) for tok in hyp]
    joins = [0] * n
    flips: list[dict[int, int]] = [{} for _ in range(n + 1)]
    for k, (i, length, j) in enumerate(lanes):
        bit = 1 << k * width
        if j < i:
            start, turn, end, first, second = j, j + length, i + length, j - i, length
        else:
            start, turn, end, first, second = i, j, j + length, -length, j - i
        joins[start] |= bit
        at = flips[start]
        at[first] = at.get(first, 0) ^ bit
        at = flips[turn]
        at[first] = at.get(first, 0) ^ bit
        at[second] = at.get(second, 0) ^ bit
        at = flips[end]
        at[second] = at.get(second, 0) ^ bit
        at[0] = at.get(0, 0) ^ bit
    vp = vn = mask = low = 0
    groups: dict[int, int] = {}
    for x in range(min(min(i, j) for i, _, j in lanes), n):
        bits = joins[x]
        if bits:
            pvp, pvn, _ = prefix[x]
            vp |= pvp * bits
            vn |= pvn * bits
            mask |= ones * bits
            low |= bits
        for delta, flip in flips[x].items():
            bits = groups.pop(delta, 0) ^ flip
            if bits:
                groups[delta] = bits
        eq = 0
        for delta, bits in groups.items():
            eq |= row[x - delta] * bits
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp) & mask
        hn = vp & xh
        hp = (hp << 1 | low) & mask
        hn = (hn << 1) & mask
        vp = hn | ~(xv | hp) & mask
        vn = hp & xv
    dists = []
    for _ in lanes:
        dists.append(n + (vp & ones).bit_count() - (vn & ones).bit_count())
        vp >>= width
        vn >>= width
    return dists


def _ter_edits(hyp: Sequence[str], rt: Sequence[str]) -> int:
    """Greedy shift search: repeatedly apply the block shift that most
    reduces word edit distance (first such shift on ties), one edit each,
    then add the residual edit distance. `rt` must be non-empty.

    Each step records the distance state after every prefix of `hyp`, and
    scores its candidates `_TER_LANES` at a time in one pass over `hyp`
    (`_lane_distances`). The first candidate with the largest gain wins, so
    a candidate that repeats an earlier shifted hypothesis can only tie.

    Only work that can change the result is done. The distance is at least
    max(n, m) minus the LCS, the LCS is at most the bag-of-words overlap, and
    a shift keeps the bag, so no candidate gets below `floor`: the search
    ends once the distance or the best candidate reaches it. Moving k tokens
    past d others changes the distance by at most 2 * min(k, d), so a
    candidate that cannot beat the best gain of the lanes scored so far is
    not scored. The reference starts of a block are those of its
    one-token-shorter prefix that the next token extends, in ascending
    order."""
    peq = _match_masks(rt)
    m = len(rt)
    hyp = tuple(hyp)
    n = len(hyp)
    occurrences: dict[str, list[int]] = {}
    for k, tok in enumerate(rt):
        occurrences.setdefault(tok, []).append(k)
    overlap = sum(min(c, len(occurrences.get(t, ()))) for t, c in Counter(hyp).items())
    floor = max(n, m) - overlap
    shifts = 0
    while True:
        prefix = [((1 << m) - 1, 0, m)]
        for tok in hyp:
            prefix.append(_advance(peq, m, prefix[-1], (tok,)))
        dist = prefix[-1][2]
        if dist <= floor:
            break
        best_gain = 0
        best: Optional[tuple[int, int, int]] = None
        lanes: list[tuple[int, int, int]] = []

        def score() -> None:
            nonlocal best_gain, best
            for lane, d in zip(lanes, _lane_distances(peq, m, hyp, prefix, lanes)):
                if dist - d > best_gain:
                    best_gain = dist - d
                    best = lane
            lanes.clear()

        for i in range(n):
            targets = occurrences.get(hyp[i], [])
            length = 1
            while targets and dist - best_gain > floor:
                for pos in targets:
                    j = min(pos, n - length)
                    if 2 * min(length, abs(i - j)) > best_gain:
                        lanes.append((i, length, j))
                        if len(lanes) == _TER_LANES:
                            score()
                            if dist - best_gain == floor:
                                break
                if i + length == n:
                    break
                nxt = hyp[i + length]
                targets = [s for s in targets if s + length < m and rt[s + length] == nxt]
                length += 1
            if dist - best_gain == floor:
                break  # a later candidate could at best tie
        if lanes:
            score()
        if best is None:
            break
        i, length, j = best
        removed = hyp[:i] + hyp[i + length :]
        hyp = removed[:j] + hyp[i : i + length] + removed[j:]
        shifts += 1
    return shifts + dist


def ter(candidate: str, references: Sequence[str]) -> float:
    """Translation edit rate: min over references of edits / reference length."""
    if not references:
        raise MetricError("ter needs at least one reference")
    ct = _analysed(candidate).tokens
    best = None
    for ref in references:
        rt = _analysed(ref).tokens
        if not rt:
            raise MetricError("ter is undefined against an empty reference")
        rate = _ter_edits(ct, rt) / len(rt)
        best = rate if best is None else min(best, rate)
    return best


def epm(x: RecordSet, y: str) -> float:
    """Fraction of the source values of x present in y: found case-folded
    and word-bounded by `find_bounded`, as condition 1 finds them."""
    values = x.folded_values
    if not values:
        return 0.0
    text = fold(y)
    return sum(1 for v in values if find_bounded(text, v) is not None) / len(values)


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


def osf(input_kb: RecordSet, reconstructed_kb: RecordSet) -> OsfScore:
    """Slot-filling scores: records matched between input and reconstruction
    under set semantics; precision is 0 when the reconstruction is empty."""
    if input_kb.kind is not reconstructed_kb.kind:
        raise VariantMismatchError(
            f"cannot compare {input_kb.kind.value} with {reconstructed_kb.kind.value}"
        )
    in_keys, out_keys = input_kb.record_keys, reconstructed_kb.record_keys
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
    Each distinct text is analysed once and shared by every metric.
    """
    _check_aligned(candidates, references)
    analysed: dict[str, _Text] = {}

    def analyse(text: str) -> _Text:
        out = analysed.get(text)
        if out is None:
            out = analysed[text] = _Text(text)
        return out

    candidates = [analyse(c) for c in candidates]
    references = [[analyse(r) for r in refs] for refs in references]
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
