import numpy as np
import pytest

from ctxbias.numeric import softmax
from ctxbias.reference import attention


def test_corr_scores_hand_values():
    e = np.zeros((1, 4))
    e[0, 0] = 1.0
    assert attention.corr_scores(e, e)[0, 0] == pytest.approx(0.5)
    f = np.zeros((1, 4))
    f[0, 1] = 1.0
    assert attention.corr_scores(e, f)[0, 0] == 0.0


def test_corr_scores_matches_double_loop():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 8))
    b = rng.normal(size=(5, 8))
    got = attention.corr_scores(a, b)
    for u in range(3):
        for m in range(5):
            want = float(a[u] @ b[m]) / np.sqrt(8)
            assert got[u, m] == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        attention.corr_scores(a, rng.normal(size=(5, 9)))


def test_single_phrase_broadcasts():
    rng = np.random.default_rng(1)
    e_acou = rng.normal(size=(4, 8))
    e_phr = rng.normal(size=(1, 8))
    out = attention.cross_attention(e_acou, e_phr, n_heads=1)
    assert np.allclose(out.weights, 1.0)
    assert np.allclose(out.e_bias, np.broadcast_to(e_phr, (4, 8)))
    assert np.allclose(out.e_comp, out.e_bias + e_acou)


def test_equidistant_phrases_split_evenly():
    d = 8
    e_phr = np.zeros((2, d))
    e_phr[0, 0] = 1.0
    e_phr[1, 1] = 1.0
    query = np.zeros((1, d))
    query[0, 2] = 1.0  # orthogonal to both keys
    out = attention.cross_attention(query, e_phr, n_heads=1)
    assert np.allclose(out.weights[0, :, 0], [0.5, 0.5])


def test_multi_head_matches_naive_loop():
    rng = np.random.default_rng(2)
    e_acou = rng.normal(size=(6, 16))
    e_phr = rng.normal(size=(9, 16))
    out = attention.cross_attention(e_acou, e_phr, n_heads=4)
    assert out.weights.shape == (6, 9, 4)
    assert np.allclose(out.weights.sum(axis=1), 1.0, atol=1e-9)
    d_h = 4
    for n in range(4):
        q = e_acou[:, n * d_h : (n + 1) * d_h]
        k = e_phr[:, n * d_h : (n + 1) * d_h]
        w = softmax(q @ k.T / np.sqrt(d_h), axis=1)
        assert np.allclose(out.weights[:, :, n], w, atol=1e-12)
        assert np.allclose(out.e_bias[:, n * d_h : (n + 1) * d_h], w @ k, atol=1e-12)
    with pytest.raises(ValueError):
        attention.cross_attention(e_acou, e_phr, n_heads=3)


def test_phrase_corr_from_heads():
    a = np.zeros((1, 1, 3))
    a[0, 0] = [0.1, 0.7, 0.2]
    assert attention.phrase_corr_from_heads(a)[0, 0] == pytest.approx(0.7)
    rng = np.random.default_rng(4)
    t = rng.uniform(size=(5, 6, 4))
    got = attention.phrase_corr_from_heads(t)
    for u in range(5):
        for m in range(6):
            assert got[u, m] == max(t[u, m, n] for n in range(4))
    single = rng.uniform(size=(5, 6, 1))
    assert np.array_equal(attention.phrase_corr_from_heads(single), single[:, :, 0])
    with pytest.raises(ValueError):
        attention.phrase_corr_from_heads(-t)


def test_permuting_phrases_permutes_weights_only():
    rng = np.random.default_rng(5)
    e_acou = rng.normal(size=(4, 8))
    e_phr = rng.normal(size=(6, 8))
    perm = rng.permutation(6)
    out = attention.cross_attention(e_acou, e_phr, n_heads=2)
    out_p = attention.cross_attention(e_acou, e_phr[perm], n_heads=2)
    assert np.allclose(out_p.weights, out.weights[:, perm, :])
    assert np.allclose(out_p.e_bias, out.e_bias, atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(10, 7))
    shifted = x + rng.normal(size=(10, 1))
    assert np.allclose(softmax(x, axis=1), softmax(shifted, axis=1), atol=1e-12)
