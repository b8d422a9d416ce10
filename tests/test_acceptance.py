"""End-to-end acceptance checks for the biased-decoding pipeline.

Each test covers one numbered acceptance property and prints a single
"ACCEPTANCE n: PASS" line when it holds. The expensive sweeps are shared
module-scoped fixtures; the whole module is budgeted to finish in a few
minutes on one core.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from ctxbias import corpus, metrics, smoothing
from ctxbias.harness.config import ExperimentConfig
from ctxbias.harness.corpusgen import generate_corpus
from ctxbias.harness.report import emit_report
from ctxbias.harness.runner import run_sweep
from ctxbias.jointdecode import greedy_decode, interpolate
from ctxbias.numeric import softmax
from ctxbias.reference import attention, losses
from ctxbias.reference.losses import FocalParams

BASE = ExperimentConfig(
    list_lengths=(51, 201, 601, 1196),
    methods=("attn", "joint"),
    confusion_rate=0.3,
    distractor_boost=0.3,
    score_jitter_sigma=0.1,
    n_seeds=10,
    seed=0,
)


@pytest.fixture(scope="module")
def shared_corpus():
    return generate_corpus(BASE)


@pytest.fixture(scope="module")
def noisy_cells(shared_corpus):
    """attn vs joint under the calibrated noise, 10 seeds, all lengths."""
    return run_sweep(BASE, corpus=shared_corpus, keep_outcomes=True)


@pytest.fixture(scope="module")
def gcp_timing_cells(shared_corpus):
    """Purified decoding on the same inputs as the noisy joint cells."""
    cfg = dataclasses.replace(BASE, methods=("joint_gcp",), list_lengths=(1196,))
    return run_sweep(cfg, corpus=shared_corpus)


@pytest.fixture(scope="module")
def stress_cells(shared_corpus):
    """Purification stress: heavy score jitter, M=1196, 20 seeds."""
    cfg = dataclasses.replace(
        BASE,
        methods=("joint_gcp", "joint_ocp"),
        list_lengths=(1196,),
        score_jitter_sigma=0.5,
        n_seeds=20,
    )
    return run_sweep(cfg, corpus=shared_corpus)


def _mean_f1(cells, method, m, seeds):
    return float(np.mean([cells[(method, m, s)].report.f1 for s in seeds]))


def test_criterion_1_oracle_limit(shared_corpus, capsys):
    """Zero noise: the purified pipeline is exact at every list length."""
    cfg = dataclasses.replace(
        BASE,
        methods=("joint_gcp_pp",),
        list_lengths=(51, 201, 1196),
        confusion_rate=0.0,
        distractor_boost=0.0,
        score_jitter_sigma=0.0,
        n_seeds=1,
    )
    t0 = time.perf_counter()
    cells = run_sweep(cfg, corpus=shared_corpus)
    wall = time.perf_counter() - t0
    for m in cfg.list_lengths:
        report = cells[("joint_gcp_pp", m, 0)].report
        assert report.f1 == 1.0
        assert report.cer == 0.0
        assert report.retention == 1.0
    assert wall <= 60.0
    with capsys.disabled():
        print(
            f"\nACCEPTANCE 1: PASS — zero-noise F1=1.0, CER=0.0, retention=1.0 "
            f"at M=51/201/1196 in {wall:.1f}s"
        )


def test_criterion_2_robustness_trend(noisy_cells, capsys):
    """Joint decoding beats the attention stub, and degrades less with M."""
    seeds = BASE.sweep_seeds
    f1 = {
        (meth, m): _mean_f1(noisy_cells, meth, m, seeds)
        for meth in ("attn", "joint")
        for m in BASE.list_lengths
    }
    for m in BASE.list_lengths:
        assert f1[("joint", m)] > f1[("attn", m)]
    drop_joint = f1[("joint", 51)] - f1[("joint", 1196)]
    drop_attn = f1[("attn", 51)] - f1[("attn", 1196)]
    assert drop_joint <= drop_attn
    with capsys.disabled():
        cells = "  ".join(
            f"M={m}: {f1[('joint', m)]:.4f}>{f1[('attn', m)]:.4f}"
            for m in BASE.list_lengths
        )
        print(
            f"ACCEPTANCE 2: PASS — joint F1 above stub at every M ({cells}); "
            f"drop 51->1196 joint {drop_joint:.4f} <= stub {drop_attn:.4f}"
        )


def test_criterion_3_retention_inequality(stress_cells, capsys):
    """Group competition retains gold phrases at least as well as one pass."""
    seeds = range(20)
    gcp_ret = [stress_cells[("joint_gcp", 1196, s)].report.retention for s in seeds]
    ocp_ret = [stress_cells[("joint_ocp", 1196, s)].report.retention for s in seeds]
    mean_gcp = float(np.mean(gcp_ret))
    mean_ocp = float(np.mean(ocp_ret))
    non_worse = sum(1 for g, o in zip(gcp_ret, ocp_ret) if g >= o)
    assert mean_gcp >= mean_ocp
    assert non_worse >= 14
    with capsys.disabled():
        print(
            f"ACCEPTANCE 3: PASS — retention grouped {mean_gcp:.4f} >= "
            f"once-only {mean_ocp:.4f} at M=1196, {non_worse}/20 seeds non-worse"
        )


def test_criterion_4_post_processing_safety(noisy_cells, capsys):
    """The count guard never loses phrases and never hurts error rate.

    Relative to not biasing at all: the guard either returns the backbone
    hypothesis unchanged or a biased one that detected strictly more
    phrases, so character error may only tie or improve on average.
    """
    count_viol = 0
    cer_viol = 0
    n = 0
    per_seed: dict[int, list[float]] = {}
    for (method, m, seed), cell in noisy_cells.items():
        for out in cell.outcomes:
            n += 1
            if out.count_final < out.count_bb:
                count_viol += 1
            if out.cer_final > out.cer_bb:
                cer_viol += 1
            per_seed.setdefault(seed, []).append(out.cer_final - out.cer_bb)
    assert count_viol == 0
    assert cer_viol <= 0.01 * n
    worst_seed = max(float(np.mean(d)) for d in per_seed.values())
    assert worst_seed <= 0.0
    with capsys.disabled():
        print(
            f"ACCEPTANCE 4: PASS — phrase count never drops ({n} utterances, "
            f"0 violations); CER deltas vs backbone <= 0 per seed "
            f"(worst mean {worst_seed:+.4f}, {cer_viol} utterances worse, "
            f"tolerance 1%)"
        )


def test_criterion_5_numerical_invariants(capsys):
    """Row-stochastic outputs and analytic gradients check out."""
    rng = np.random.default_rng(123)
    v = 32
    logits = rng.normal(scale=4.0, size=(100_000, v))
    rows = softmax(logits, axis=1)
    assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-9
    p = rng.uniform(size=(100_000, v))
    p /= p.sum(axis=1, keepdims=True)
    q = rng.uniform(size=(100_000, v))
    q /= q.sum(axis=1, keepdims=True)
    w = rng.uniform(size=100_000)
    mixed = interpolate(p, q, w)
    assert np.abs(mixed.sum(axis=1) - 1.0).max() <= 1e-9

    h = 1e-5

    def central(fn, x, i):
        lo, hi = x.copy(), x.copy()
        lo.flat[i] -= h
        hi.flat[i] += h
        return (fn(hi) - fn(lo)) / (2 * h)

    fp = FocalParams(alpha=0.75, gamma=2.0)
    q_list = rng.uniform(0.05, 0.95, size=100)
    y_list = rng.integers(0, 2, size=100).astype(float)
    grad = losses.focal_loss_grad(q_list, y_list, fp)
    for i in range(100):
        num = central(lambda x: losses.focal_loss(x, y_list, fp), q_list, i)
        assert abs(grad[i] - num) <= 1e-4 * max(1.0, abs(num))

    s = rng.normal(size=100)
    y_phr = rng.integers(0, 2, size=100).astype(float)
    grad = losses.contrastive_loss_grad(s, y_phr)
    for i in range(100):
        num = central(lambda x: losses.contrastive_loss(x, y_phr), s, i)
        assert abs(grad[i] - num) <= 1e-4 * max(1.0, abs(num))

    u, voc = 100, 12
    q_tok = rng.uniform(0.05, 1.0, size=(u, voc))
    q_tok /= q_tok.sum(axis=1, keepdims=True)
    y_tok = rng.integers(0, voc, size=u)
    grad = losses.token_ce_grad(q_tok, y_tok)
    for step in range(u):
        i = step * voc + int(y_tok[step])
        num = central(lambda x: losses.token_ce(x, y_tok), q_tok, i)
        assert abs(grad[step, y_tok[step]] - num) <= 1e-4 * max(1.0, abs(num))
    with capsys.disabled():
        print(
            "ACCEPTANCE 5: PASS — 1e5 softmax and interpolation rows sum to 1 "
            "within 1e-9; focal, contrastive and token-CE gradients match "
            "central differences at 100 points each"
        )


def _edit_distance_oracle(hyp, ref):
    """Plain quadratic edit distance table, no backtrace."""
    n, m = len(hyp), len(ref)
    d = np.zeros((n + 1, m + 1), dtype=int)
    d[:, 0] = np.arange(n + 1)
    d[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if hyp[i - 1] == ref[j - 1] else 1
            d[i, j] = min(d[i - 1, j] + 1, d[i, j - 1] + 1, d[i - 1, j - 1] + cost)
    return int(d[n, m])


def test_criterion_6_oracle_equivalence(capsys):
    """Vectorized kernels agree with naive loop implementations."""
    rng = np.random.default_rng(7)
    for _ in range(1000):
        ref = tuple(rng.integers(0, 5, size=rng.integers(1, 11)).tolist())
        hyp = tuple(rng.integers(0, 5, size=rng.integers(0, 11)).tolist())
        rate, s, i, d = metrics.cer(hyp, ref)
        dist = _edit_distance_oracle(hyp, ref)
        assert s + i + d == dist
        assert rate == dist / len(ref)

    chars = [chr(0x4E00 + i) for i in range(24)]
    for trial in range(100):
        vocab = corpus.Vocabulary.build(chars, seed=trial)
        n_phr = int(rng.integers(3, 12))
        seqs = set()
        while len(seqs) < n_phr:
            seqs.add(tuple(rng.integers(2, 24, size=rng.integers(2, 5)).tolist()))
        bl = corpus.make_biasing_list(sorted(seqs), vocab)
        phi = corpus.build_phi(bl, vocab)
        naive = np.zeros((bl.size, vocab.size), dtype=np.uint8)
        for m, phrase in enumerate(bl.phrases):
            for tok in phrase:
                naive[m, tok] = 1
        assert np.array_equal(phi.matrix, naive)

    for _ in range(100):
        u, m, d = rng.integers(2, 9, size=3)
        e_a = rng.normal(size=(u, d))
        e_p = rng.normal(size=(m, d))
        got = attention.corr_scores(e_a, e_p)
        naive = np.empty((u, m))
        for i in range(u):
            for j in range(m):
                naive[i, j] = float(np.dot(e_a[i], e_p[j])) / np.sqrt(d)
        assert np.allclose(got, naive, atol=1e-12)

    for _ in range(100):
        u, m, n = rng.integers(2, 7, size=3)
        w = rng.uniform(size=(u, m, n))
        got = attention.phrase_corr_from_heads(w)
        naive = np.empty((u, m))
        for i in range(u):
            for j in range(m):
                naive[i, j] = max(w[i, j, k] for k in range(n))
        assert np.array_equal(got, naive)

    for _ in range(100):
        u, v = rng.integers(2, 9, size=2)
        probs = rng.integers(0, 4, size=(u, v)) / 4.0  # coarse grid forces ties
        got = greedy_decode(probs)
        naive = []
        for row in probs:
            best = 0
            for j in range(1, v):
                if row[j] > row[best]:
                    best = j
            naive.append(best)
        assert got == tuple(naive)
    with capsys.disabled():
        print(
            "ACCEPTANCE 6: PASS — edit-distance rate matches the exhaustive "
            "table on 1000 pairs; containment mask, correlation scores, "
            "head pooling and greedy argmax match loop oracles on 100 "
            "instances each"
        )


def test_criterion_7_hand_values(capsys):
    """Three quantities small enough to verify by hand."""
    got = losses.focal_loss([0.5], [1.0], FocalParams(alpha=0.75, gamma=2.0))
    want = 0.75 * 0.25 * np.log(2.0)
    assert abs(got - want) <= 1e-6

    sm = smoothing.triangular_smooth(
        np.array([0.0, 1.0, 0.0]), smoothing.SmoothingParams(omega=0.6)
    )
    assert np.abs(sm - np.array([0.2, 0.6, 0.2])).max() <= 1e-12

    u, v = 17, 29
    uniform = np.full((u, v), 1.0 / v)
    refs = np.arange(u) % v
    assert abs(losses.token_ce(uniform, refs) - u * np.log(v)) <= 1e-9
    with capsys.disabled():
        print(
            "ACCEPTANCE 7: PASS — focal(0.5)=0.75*0.25*ln2, "
            "triangular [0,1,0] -> [0.2,0.6,0.2], uniform CE = U*lnV"
        )


def test_criterion_8_decode_time_scaling(noisy_cells, gcp_timing_cells, capsys):
    """Decode cost grows with the list; purification pays for itself."""
    seeds = BASE.sweep_seeds
    totals = {
        m: sum(noisy_cells[("joint", m, s)].decode_seconds for s in seeds)
        for m in BASE.list_lengths
    }
    ordered = [totals[m] for m in BASE.list_lengths]
    gcp_total = sum(gcp_timing_cells[("joint_gcp", 1196, s)].decode_seconds for s in seeds)
    joint = ", ".join(f"M={m}: {totals[m]:.3f}s" for m in BASE.list_lengths)
    assert all(a < b for a, b in zip(ordered, ordered[1:])), (
        f"ACCEPTANCE 8 monotone clause: joint decode time not increasing in M "
        f"({joint}); purified at M=1196 {gcp_total:.3f}s"
    )
    assert gcp_total < totals[1196], (
        f"ACCEPTANCE 8 purified clause: purified decode at M=1196 {gcp_total:.3f}s "
        f"is not below joint's {totals[1196]:.3f}s (joint {joint})"
    )
    with capsys.disabled():
        per_m = "  ".join(f"M={m}: {totals[m]:.2f}s" for m in BASE.list_lengths)
        print(
            f"ACCEPTANCE 8: PASS — joint decode time monotone in M ({per_m}); "
            f"purified decode at M=1196 {gcp_total:.2f}s < {totals[1196]:.2f}s"
        )


def _masked_cell_bytes(rundir):
    out = {}
    for path in sorted(rundir.glob("cell_*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        record.pop("timing", None)
        out[path.name] = json.dumps(record, sort_keys=True).encode()
    return out


def test_criterion_9_determinism(tmp_path, capsys):
    """The same config twice produces byte-identical metric records."""
    cfg = ExperimentConfig(
        list_lengths=(51, 201),
        methods=("baseline", "attn", "joint", "joint_gcp_pp"),
        n_utterances=60,
        confusion_rate=0.3,
        distractor_boost=0.4,
        score_jitter_sigma=0.2,
        label_flip_rate=0.05,
        n_seeds=2,
        seed=11,
    )
    dirs = []
    for run in ("a", "b"):
        outdir = tmp_path / run
        emit_report(run_sweep(cfg), outdir)
        dirs.append(outdir)
    first = _masked_cell_bytes(dirs[0])
    second = _masked_cell_bytes(dirs[1])
    assert first.keys() == second.keys()
    assert first == second
    with capsys.disabled():
        print(
            f"ACCEPTANCE 9: PASS — {len(first)} metric records byte-identical "
            f"across two sweeps (timing masked)"
        )
