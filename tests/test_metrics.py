import numpy as np
import pytest

from ctxbias import corpus, metrics
from ctxbias.harness import runner
from ctxbias.harness.config import ExperimentConfig
from ctxbias.harness.corpusgen import generate_corpus


def _vocab():
    return corpus.Vocabulary.build([chr(0x4E00 + i) for i in range(15)], seed=2)


def _distance_oracle(a, b):
    """Plain full-table edit distance, no backtrace."""
    n, m = len(a), len(b)
    d = np.zeros((n + 1, m + 1), dtype=int)
    d[:, 0] = np.arange(n + 1)
    d[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d[i, j] = min(
                d[i - 1, j - 1] + (a[i - 1] != b[j - 1]),
                d[i - 1, j] + 1,
                d[i, j - 1] + 1,
            )
    return int(d[n, m])


def test_cer_simple_cases():
    assert metrics.cer((1, 2, 3), (1, 2, 3)) == (0.0, 0, 0, 0)
    rate, s, i, d = metrics.cer((1, 2), (1, 3))
    assert rate == 0.5 and (s, i, d) == (1, 0, 0)
    rate, s, i, d = metrics.cer((1, 2, 9), (1, 2))
    assert (s, i, d) == (0, 1, 0)
    rate, s, i, d = metrics.cer((1,), (1, 2))
    assert (s, i, d) == (0, 0, 1)
    with pytest.raises(ValueError):
        metrics.cer((1,), ())


def test_cer_matches_dp_oracle_and_counts_add_up():
    rng = np.random.default_rng(0)
    for _ in range(300):
        hyp = tuple(rng.integers(0, 5, size=rng.integers(0, 11)).tolist())
        ref = tuple(rng.integers(0, 5, size=rng.integers(1, 11)).tolist())
        rate, s, i, d = metrics.cer(hyp, ref)
        dist = _distance_oracle(hyp, ref)
        assert s + i + d == dist
        assert rate == pytest.approx(dist / len(ref))


def _cer_dp(hyp, ref):
    """The DP table and backtrace with no shortcut, kept as the oracle for
    ``cer``'s identical-sequence fast path."""
    h, r = len(hyp), len(ref)
    dist = [[0] * (r + 1) for _ in range(h + 1)]
    for i in range(1, h + 1):
        dist[i][0] = i
    for j in range(1, r + 1):
        dist[0][j] = j
    for i in range(1, h + 1):
        for j in range(1, r + 1):
            sub = dist[i - 1][j - 1] + (hyp[i - 1] != ref[j - 1])
            dist[i][j] = min(sub, dist[i - 1][j] + 1, dist[i][j - 1] + 1)
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


def _noisy_sweep_pairs():
    """The (hyp, ref) pairs a small noisy sweep scores."""
    cfg = ExperimentConfig(n_utterances=30, list_lengths=(51, 201),
                           methods=("baseline", "joint", "joint_pp"), confusion_rate=0.6,
                           distractor_boost=0.3, score_jitter_sigma=0.3, label_flip_rate=0.1)
    corp = generate_corpus(cfg)
    refs = {u.uid: u.tokens for u in corp.utterances}
    cells = runner.run_sweep(cfg, corpus=corp, keep_outcomes=True).values()
    return [(o.hyp, refs[o.uid]) for cell in cells for o in cell.outcomes]


def test_cer_identical_fast_path_matches_full_dp():
    """The identical-sequence shortcut and the banded DP against the full
    DP, on the band's edge cases: unequal lengths up to the whole length
    difference, an empty hypothesis, edits at either end, adjacent swaps
    (two substitutions tie with a deletion plus an insertion), no shared
    token, shifts whose optimal paths reach the band's half-width, random
    short pairs over small alphabets, and what a noisy sweep scores."""
    rng = np.random.default_rng(3)
    pairs = [((1,), (1,)), ((4, 4, 4), (4, 4, 4)), ([1, 2, 3], (1, 2, 3))]
    for _ in range(200):
        ref = tuple(rng.integers(0, 4, size=rng.integers(1, 12)).tolist())
        hyp = ref if rng.random() < 0.5 else tuple(rng.integers(0, 4, size=len(ref)).tolist())
        pairs.append((hyp, ref))
    base = (1, 2, 3, 4, 5, 6, 7, 8)
    for ref in (base, (3, 1, 3, 1, 3, 1, 3), (2, 2, 2, 5)):
        n = len(ref)
        pairs += [((), ref), (ref[1:], ref), (ref[:-1], ref), (ref, ref[1:]), (ref, ref[:-1])]
        pairs += [((9,) + ref[1:], ref), (ref[:-1] + (9,), ref), ((9,) + ref, ref),
                  (ref + (9,), ref), (tuple(t + 20 for t in ref), ref),
                  (tuple(t + 20 for t in ref[:2]), ref), (ref * 3, ref), (ref[:1], ref * 2)]
        for k in range(n - 1):  # adjacent swaps, at every position
            swapped = list(ref)
            swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
            pairs += [(tuple(swapped), ref), (tuple(swapped[:-1]), ref), (ref, tuple(swapped))]
    for _ in range(300):  # every length difference, with edits on top
        ref = tuple(rng.integers(0, 3, size=rng.integers(1, 10)).tolist())
        kept = list(ref[: rng.integers(0, len(ref) + 1)])
        hyp = kept + rng.integers(0, 3, size=rng.integers(0, 6)).tolist()
        for _ in range(rng.integers(0, 3)):
            if hyp:
                hyp[rng.integers(0, len(hyp))] = int(rng.integers(0, 3))
        pairs += [(tuple(hyp), ref), (ref, tuple(hyp) or (0,))]
    for _ in range(20000):  # short sequences over 1 to 4 symbols, every shape
        symbols = int(rng.integers(1, 5))
        hyp = tuple(rng.integers(0, symbols, size=rng.integers(0, 15)).tolist())
        pairs.append((hyp, tuple(rng.integers(0, symbols, size=rng.integers(1, 13)).tolist())))
    for n in range(1, 13):  # optimal paths out to the band's half-width, ties included
        ref = tuple(range(n))
        for k in range(n // 2 + 1):
            shifted = ref[k:] + tuple(range(20, 20 + k))
            pairs += [(shifted, ref), (ref, shifted), (shifted[:-1], ref), (ref, shifted[1:] or ref)]
    sweep = _noisy_sweep_pairs()
    assert any(hyp != ref for hyp, ref in sweep)
    for hyp, ref in pairs + sweep:
        got, want = metrics.cer(hyp, ref), _cer_dp(tuple(hyp), tuple(ref))
        assert got == want, (hyp, ref)
        assert [type(v) for v in got] == [type(v) for v in want] == [float, int, int, int]


def test_edit_distance_is_a_metric():
    rng = np.random.default_rng(1)
    for _ in range(100):
        seqs = [
            tuple(rng.integers(0, 4, size=rng.integers(1, 8)).tolist()) for _ in range(3)
        ]
        a, b, c = seqs
        dab = sum(metrics.cer(a, b)[1:])
        dba = sum(metrics.cer(b, a)[1:])
        assert dab == dba  # symmetry of the distance (S/I/D roles swap)
        dac = sum(metrics.cer(a, c)[1:])
        dcb = sum(metrics.cer(c, b)[1:])
        assert dab <= dac + dcb


def test_phrase_prf_perfect():
    v = _vocab()
    bl = corpus.make_biasing_list([(2, 3), (4, 5)], v)
    refs = [(9, 2, 3, 8), (4, 5, 7)]
    spans = [(corpus.Span(1, 3, 1),), (corpus.Span(0, 2, 2),)]
    p, r, f1, tp, fp, fn = metrics.phrase_prf(refs, refs, spans, bl)
    assert (p, r, f1) == (1.0, 1.0, 1.0)
    assert (tp, fp, fn) == (2, 0, 0)


def test_phrase_prf_miss_without_false_positive():
    v = _vocab()
    bl = corpus.make_biasing_list([(2, 3)], v)
    ref = [(9, 2, 3, 8)]
    hyp = [(9, 2, 9, 8)]
    spans = [(corpus.Span(1, 3, 1),)]
    p, r, f1, tp, fp, fn = metrics.phrase_prf(hyp, ref, spans, bl)
    assert p == 1.0 and r == 0.0 and f1 == 0.0
    assert (tp, fp, fn) == (0, 0, 1)


def test_phrase_prf_counts_false_positives_per_occurrence():
    v = _vocab()
    bl = corpus.make_biasing_list([(2, 3), (4, 5)], v)
    ref = [(9, 2, 3, 8, 7)]
    hyp = [(4, 5, 2, 3, 7)]  # gold kept, plus a phrase absent from ref
    spans = [(corpus.Span(1, 3, 1),)]
    p, r, f1, tp, fp, fn = metrics.phrase_prf(hyp, ref, spans, bl)
    assert (tp, fp, fn) == (1, 1, 0)
    assert p == 0.5 and r == 1.0
    assert f1 == pytest.approx(2 * 0.5 / 1.5)


def test_phrase_prf_accidental_reference_occurrence_is_not_fp():
    v = _vocab()
    bl = corpus.make_biasing_list([(2, 3)], v)
    # the reference happens to contain the phrase twice but only one is a span
    ref = [(2, 3, 9, 2, 3)]
    spans = [(corpus.Span(3, 5, 1),)]
    p, r, f1, tp, fp, fn = metrics.phrase_prf(ref, ref, spans, bl)
    assert (p, r, f1) == (1.0, 1.0, 1.0)
    assert (tp, fp, fn) == (1, 0, 0)


def test_exact_hypothesis_scans_once_and_counts_as_two_scans(monkeypatch):
    """A hypothesis equal to its reference is scanned once, and counts as
    scanning both would: an accidental list phrase in the reference is then
    in the hypothesis too, so it is no false positive."""
    v = _vocab()
    bl = corpus.make_biasing_list([(2, 3), (4, 5)], v)
    ref = (4, 5, 9, 2, 3, 4, 5)  # (4, 5) occurs twice, neither a span
    spans = (corpus.Span(3, 5, 1),)
    calls = []

    def counted(tokens, biasing_list, kept=None):
        calls.append(tuple(tokens))
        return corpus.scan_occurrences(tokens, biasing_list, kept)

    monkeypatch.setattr(metrics, "scan_occurrences", counted)
    for hyp in (ref, list(ref)):
        calls.clear()
        assert metrics._prf_counts(hyp, ref, spans, bl) == (1, 0, 0)
        assert calls == [ref]
    calls.clear()
    assert metrics._prf_counts((4, 5, 9, 2, 3, 4, 5, 4, 5), ref, spans, bl) == (1, 1, 0)
    assert len(calls) == 2


def test_phrase_prf_rejects_misaligned_inputs():
    v = _vocab()
    bl = corpus.make_biasing_list([(2, 3)], v)
    with pytest.raises(ValueError):
        metrics.phrase_prf([(2, 3)], [(2, 3), (2, 3)], [()], bl)


def test_retention_rate():
    spans_a = (corpus.Span(0, 2, 3), corpus.Span(3, 5, 7))
    spans_b = (corpus.Span(0, 2, 4),)
    spans_none = ()
    kept_all = (0, 3, 4, 7)
    assert metrics.retention_rate([kept_all, kept_all], [spans_a, spans_b]) == 1.0
    half = metrics.retention_rate([(0, 3), (0,)], [spans_a, spans_b])
    assert half == pytest.approx((0.5 + 0.0) / 2)
    # utterances without golds do not dilute the mean
    assert metrics.retention_rate([(0,), kept_all], [spans_none, spans_b]) == 1.0
    assert metrics.retention_rate([(0,)], [spans_none]) == 1.0


def test_rtf():
    assert metrics.rtf(1.0, 10.0) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        metrics.rtf(1.0, 0.0)


def test_report_round_trip():
    rep = metrics.MetricsReport(
        cer=0.1,
        precision=0.9,
        recall=0.8,
        f1=2 * 0.9 * 0.8 / 1.7,
        retention=1.0,
        rtf=0.05,
        substitutions=3,
        insertions=1,
        deletions=2,
        ref_length=60,
        tp=8,
        fp=1,
        fn=2,
    )
    d = rep.to_dict()
    assert d["cer"] == 0.1 and d["tp"] == 8
    assert set(d) == {
        "cer", "precision", "recall", "f1", "retention", "rtf",
        "substitutions", "insertions", "deletions", "ref_length",
        "tp", "fp", "fn",
    }
