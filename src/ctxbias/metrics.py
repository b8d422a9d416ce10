"""Evaluation metrics: character error rate, exact-match phrase precision,
recall and F1, purification retention, and the real-time factor."""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from operator import ne

from .corpus import BiasingList, scan_occurrences


@dataclass(frozen=True)
class MetricsReport:
    cer: float
    precision: float
    recall: float
    f1: float
    retention: float
    rtf: float
    substitutions: int
    insertions: int
    deletions: int
    ref_length: int
    tp: int
    fp: int
    fn: int

    def to_dict(self) -> dict:
        return asdict(self)


def cer(hyp, ref) -> tuple[float, int, int, int]:
    """Edit-distance error rate of a hypothesis against a reference.

    Returns (rate, substitutions, insertions, deletions); insertions are
    hypothesis tokens with no reference counterpart. When multiple optimal
    alignments exist, the backtrace prefers substitution/match, then
    deletion, then insertion.
    """
    hyp = tuple(hyp)
    ref = tuple(ref)
    if not ref:
        raise ValueError("reference must be nonempty")
    if hyp == ref:
        return 0.0, 0, 0, 0  # what the DP and its backtrace give
    h, r = len(hyp), len(ref)
    # Substituting over the common length and then inserting or deleting the
    # rest is an alignment, so w bounds the distance. A path through a cell
    # at offset k = j - i pays at least |k| + |k - (r - h)| insertions and
    # deletions to get there and on to the end, so no optimal path, and no
    # backtrace equality, reaches an offset beyond (w + |h - r|) / 2: the DP
    # runs over the band of that half-width only, with cells outside it held
    # above any distance.
    w = sum(map(ne, hyp, ref)) + abs(h - r)
    band = (w + abs(h - r)) // 2
    far = h + r + 1
    dist = [[far] * (r + 1) for _ in range(h + 1)]
    dist[0][: band + 1] = range(min(band, r) + 1)
    for i in range(1, h + 1):
        row, prev = dist[i], dist[i - 1]
        if i <= band:
            row[0] = i
        hi = hyp[i - 1]
        left = row[max(i - band, 1) - 1]
        for j in range(max(i - band, 1), min(i + band, r) + 1):
            d = prev[j - 1] + (hi != ref[j - 1])
            if prev[j] < d:
                d = prev[j] + 1
            if left < d:
                d = left + 1
            row[j] = left = d
    s = ins = dele = 0
    i, j = h, r
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + (hyp[i - 1] != ref[j - 1]):
            s += hyp[i - 1] != ref[j - 1]
            i, j = i - 1, j - 1
        elif j > 0 and dist[i][j] == dist[i][j - 1] + 1:
            dele += 1
            j -= 1
        else:
            ins += 1
            i -= 1
    return (s + ins + dele) / r, s, ins, dele


def _prf_counts(hyp, ref, spans, biasing_list: BiasingList) -> tuple[int, int, int]:
    gold = Counter(s.phrase for s in spans)
    hyp_occ = Counter(m for _, m in scan_occurrences(hyp, biasing_list))
    # an exact hypothesis scans as its reference does
    same = tuple(hyp) == tuple(ref)
    ref_occ = hyp_occ if same else Counter(m for _, m in scan_occurrences(ref, biasing_list))
    tp = sum(min(hyp_occ[m], c) for m, c in gold.items())
    fn = sum(gold.values()) - tp
    # list phrases surfacing in the hypothesis beyond their reference count
    fp = sum(max(c - ref_occ[m], 0) for m, c in hyp_occ.items())
    return tp, fp, fn


def phrase_prf(
    hyps, refs, spans_per_utt, biasing_list: BiasingList
) -> tuple[float, float, float, int, int, int]:
    """Exact-match phrase precision/recall/F1 over aligned utterance sets.

    A gold phrase counts as recalled when the hypothesis contains at least
    as many exact occurrences of it as there are annotated spans; any list
    phrase occurring more often in the hypothesis than in the reference
    counts as a false positive. Ratios with zero numerator and denominator
    report as 1. Returns (precision, recall, f1, tp, fp, fn).
    """
    if not (len(hyps) == len(refs) == len(spans_per_utt)):
        raise ValueError("hypothesis, reference and span sets are misaligned")
    tp = fp = fn = 0
    for hyp, ref, spans in zip(hyps, refs, spans_per_utt):
        t, p, n = _prf_counts(hyp, ref, spans, biasing_list)
        tp, fp, fn = tp + t, fp + p, fn + n
    precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
    recall = 1.0 if tp + fn == 0 else tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1, tp, fp, fn


def retention_rate(kept_per_utt, spans_per_utt) -> float:
    """Mean fraction of an utterance's gold phrases that survived purification.

    Utterances without gold phrases are skipped; with none eligible at all
    there is nothing to lose and the rate reports as 1.
    """
    if len(kept_per_utt) != len(spans_per_utt):
        raise ValueError("kept sets and span sets are misaligned")
    fractions = []
    for kept, spans in zip(kept_per_utt, spans_per_utt):
        golds = {s.phrase for s in spans}
        if not golds:
            continue
        kept_set = set(kept)
        fractions.append(len(golds & kept_set) / len(golds))
    if not fractions:
        return 1.0
    return sum(fractions) / len(fractions)


def rtf(decode_seconds: float, audio_seconds: float) -> float:
    """Real-time factor: decode wall time over (synthetic) audio duration."""
    if audio_seconds <= 0:
        raise ValueError("audio duration must be positive")
    return decode_seconds / audio_seconds
