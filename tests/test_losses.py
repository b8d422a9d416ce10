import numpy as np
import pytest

from ctxbias import corpus, simulate
from ctxbias.reference import losses


def test_focal_perfect_prediction_vanishes():
    p = losses.FocalParams()
    assert losses.focal_loss([1.0 - 1e-9], [1], p) == pytest.approx(0.0, abs=1e-6)
    assert losses.focal_loss([1e-9], [0], p) == pytest.approx(0.0, abs=1e-6)


def test_focal_hand_value():
    # alpha * (1-tau)^2 * (-ln tau) at q=0.5, y=1
    want = 0.75 * 0.25 * np.log(2.0)
    got = losses.focal_loss([0.5], [1], losses.FocalParams(alpha=0.75, gamma=2.0))
    assert got == pytest.approx(want, abs=1e-6)


def test_focal_reduces_to_half_bce():
    rng = np.random.default_rng(0)
    q = rng.uniform(0.05, 0.95, size=50)
    y = rng.integers(0, 2, size=50)
    got = losses.focal_loss(q, y, losses.FocalParams(alpha=0.5, gamma=0.0))
    bce = -np.sum(y * np.log(q) + (1 - y) * np.log(1 - q))
    assert got == pytest.approx(0.5 * bce, rel=1e-12)
    with pytest.raises(ValueError):
        losses.focal_loss([0.5, 0.5], [1], losses.FocalParams())


def _central_diff(f, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (f(up) - f(dn)) / (2 * h)
    return g


def test_focal_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    p = losses.FocalParams(alpha=0.75, gamma=2.0)
    for _ in range(100):
        q = rng.uniform(0.05, 0.95, size=6)
        y = rng.integers(0, 2, size=6)
        grad = losses.focal_loss_grad(q, y, p)
        num = _central_diff(lambda x: losses.focal_loss(x, y, p), q)
        assert np.allclose(grad, num, rtol=1e-4, atol=1e-7)


def test_contrastive_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(100):
        s = rng.uniform(-0.9, 0.9, size=8)
        y = rng.integers(0, 2, size=8)
        grad = losses.contrastive_loss_grad(s, y)
        num = _central_diff(lambda x: losses.contrastive_loss(x, y), s)
        assert np.allclose(grad, num, rtol=1e-4, atol=1e-7)


def test_token_ce_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(100):
        q = rng.uniform(0.05, 1.0, size=(4, 6))
        q /= q.sum(axis=1, keepdims=True)
        y = rng.integers(0, 6, size=4)
        grad = losses.token_ce_grad(q, y)
        flat = q.ravel()
        num = _central_diff(
            lambda x: losses.token_ce(x.reshape(4, 6), y), flat
        ).reshape(4, 6)
        assert np.allclose(grad, num, rtol=1e-4, atol=1e-6)


def test_phrase_pool():
    rng = np.random.default_rng(4)
    e = rng.normal(size=(5, 8))
    assert np.array_equal(losses.phrase_pool(e, np.zeros(5)), np.zeros(8))
    one_hot = np.zeros(5)
    one_hot[2] = 1
    assert np.allclose(losses.phrase_pool(e, one_hot), e[2])
    y = rng.integers(0, 2, size=5)
    want = sum(y[u] * e[u] for u in range(5))
    assert np.allclose(losses.phrase_pool(e, y), want)


def test_cosine_sims():
    rng = np.random.default_rng(5)
    e = rng.normal(size=8)
    rows = np.stack([2.0 * e, rng.normal(size=8)])
    s = losses.cosine_sims(e, rows)
    assert s[0] == pytest.approx(1.0)
    ortho = np.zeros((1, 2))
    ortho[0, 1] = 1.0
    assert losses.cosine_sims(np.array([1.0, 0.0]), ortho)[0] == pytest.approx(0.0)
    for m in range(2):
        want = float(e @ rows[m]) / (np.linalg.norm(e) * np.linalg.norm(rows[m]))
        assert s[m] == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        losses.cosine_sims(np.zeros(8), rows)


def test_contrastive_values_and_linearity():
    assert losses.contrastive_loss([1, 0, 0], [1, 0, 0]) == pytest.approx(-1.0)
    assert losses.contrastive_loss([0.5, 0.5], [1, 0]) == pytest.approx(0.0)
    rng = np.random.default_rng(6)
    s = rng.uniform(-1, 1, size=10)
    y = rng.integers(0, 2, size=10)
    want = sum(-s[m] if y[m] else s[m] for m in range(10))
    assert losses.contrastive_loss(s, y) == pytest.approx(want, rel=1e-12)
    assert losses.contrastive_loss(3.5 * s, y) == pytest.approx(
        3.5 * losses.contrastive_loss(s, y), rel=1e-12
    )


def test_token_ce_values():
    one_hot = np.eye(5)[[0, 3, 2]]
    assert losses.token_ce(one_hot, [0, 3, 2]) == pytest.approx(0.0)
    uniform = np.full((3, 10), 0.1)
    assert losses.token_ce(uniform, [1, 2, 3]) == pytest.approx(3 * np.log(10), abs=1e-9)
    rng = np.random.default_rng(7)
    q = rng.uniform(0.01, 1.0, size=(4, 6))
    q /= q.sum(axis=1, keepdims=True)
    y = rng.integers(0, 6, size=4)
    want = sum(-np.log(q[u, y[u]]) for u in range(4))
    assert losses.token_ce(q, y) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        losses.token_ce(q, [0, 1, 2, 6])


def test_total_loss():
    assert losses.total_loss(0.0, 0.0, 0.0) == 0.0
    assert losses.total_loss(1.0, 2.0, 3.0) == 6.0
    with pytest.raises(ValueError):
        losses.total_loss(float("nan"), 0.0, 0.0)


def test_zero_noise_batch_total_is_tiny():
    # ten clean utterances; phrase scores pooled over the labelled steps
    # serve as the similarity vector for the contrastive term
    v = corpus.Vocabulary.build([chr(0x4E00 + i) for i in range(20)], seed=1)
    bl = corpus.make_biasing_list([(2, 3), (4, 5, 6), (7, 8)], v)
    spec = simulate.NoiseSpec(seed=0)
    p = losses.FocalParams()
    total = 0.0
    for k in range(10):
        toks = [9 + (k + j) % 10 for j in range(8)]
        m = 1 + k % 3
        phrase = bl.phrases[m]
        toks[2 : 2 + len(phrase)] = phrase
        utt = corpus.Utterance(
            f"u{k}", tuple(toks), 2.0, (corpus.Span(2, 2 + len(phrase), m),)
        )
        labels = losses.make_labels(utt, bl)
        bundle = simulate.SyntheticScorer(utt, bl, v, spec).bundle()
        n_gold = labels.y_list.sum()
        s = labels.y_list.astype(float) @ bundle.q_phr / max(n_gold, 1)
        total += losses.total_loss(
            losses.focal_loss(bundle.q_list, labels.y_list, p),
            losses.contrastive_loss(s, labels.y_phr),
            losses.token_ce(bundle.q_tok, labels.y_tok),
        )
    assert total <= 1e-3
