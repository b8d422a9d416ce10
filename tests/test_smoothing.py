import numpy as np
import parent_decode
import pytest

from ctxbias import smoothing
from ctxbias.smoothing import SmoothingParams


def test_params_validation():
    with pytest.raises(ValueError, match="omega must lie in"):
        SmoothingParams(omega=1.5)
    for value in (True, np.True_, "0.5", None):
        with pytest.raises(ValueError, match="omega must be a real number"):
            SmoothingParams(omega=value)
    assert SmoothingParams(omega=1).omega == 1


def test_triangular_preserves_constants():
    p = SmoothingParams(omega=0.6)
    q = np.full(7, 0.37)
    assert np.allclose(smoothing.triangular_smooth(q, p), q, atol=1e-12)
    assert np.allclose(smoothing.triangular_smooth(np.array([0.5]), p), [0.5])


def test_triangular_omega_one_is_identity():
    q = np.random.default_rng(0).uniform(size=9)
    assert np.allclose(smoothing.triangular_smooth(q, SmoothingParams(omega=1.0)), q)


def test_triangular_hand_value():
    got = smoothing.triangular_smooth([0.0, 1.0, 0.0], SmoothingParams(omega=0.6))
    assert np.allclose(got, [0.2, 0.6, 0.2], atol=1e-12)


def test_triangular_shift_equivariance_interior():
    rng = np.random.default_rng(1)
    q = rng.uniform(size=12)
    p = SmoothingParams(omega=0.6)
    shifted = np.roll(q, 3)
    a = smoothing.triangular_smooth(q, p)
    b = smoothing.triangular_smooth(shifted, p)
    assert np.allclose(np.roll(a, 3)[4:-4], b[4:-4], atol=1e-12)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_estimate_phrase_length():
    assert smoothing.estimate_phrase_length(np.zeros(6)) == 1
    q = np.zeros(8)
    q[0] = 2.4
    assert smoothing.estimate_phrase_length(q) == 2
    q[0] = 2.5
    assert smoothing.estimate_phrase_length(q) == 3  # half rounds up
    assert smoothing.estimate_phrase_length(np.ones(4) * 5) == 4  # capped at U
    # clean 2-token span through the triangular kernel still estimates 2
    y = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    q_s = smoothing.triangular_smooth(y, SmoothingParams(omega=0.6))
    assert smoothing.estimate_phrase_length(q_s) == 2


def test_locate_window():
    q = np.array([0.0, 1.0, 1.0, 0.0, 0.0])
    assert smoothing.locate_window(q, 2, 1) == 1
    for u in range(5):
        assert smoothing.locate_window(q, 1, u) == u
    uniform = np.ones(6)
    assert smoothing.locate_window(uniform, 3, 4) == 2  # ties go left
    with pytest.raises(ValueError):
        smoothing.locate_window(q, 6, 0)


def test_guided_smooth_windows_match_locate_window():
    # oracle: pool over locate_window's start, step by step, for every
    # window length 1..U, with ties in the list scores on even trials
    rng = np.random.default_rng(7)
    for trial in range(400):
        n = int(rng.integers(1, 13))
        q_list = rng.integers(0, 3, size=n) / 2.0 if trial % 2 == 0 else rng.uniform(size=n)
        q_phr = rng.uniform(size=(n, 4))
        for length in range(1, n + 1):
            q_slist = np.full(n, length / n)
            assert smoothing.estimate_phrase_length(q_slist) == length
            starts = [smoothing.locate_window(q_list, length, u) for u in range(n)]
            want = np.tanh(np.array([q_phr[j : j + length].sum(axis=0) for j in starts]))
            got = smoothing.guided_phrase_smooth(q_phr, q_list, q_slist)
            assert np.allclose(got, want, rtol=0, atol=1e-12)
            assert np.array_equal(got, np.tanh(parent_decode._box_sums(q_phr, length)[starts]))


def test_guided_smooth_window_one_is_tanh():
    rng = np.random.default_rng(2)
    q_phr = rng.uniform(size=(5, 4))
    q_list = rng.uniform(size=5)
    out = smoothing.guided_phrase_smooth(q_phr, q_list, np.full(5, 0.1))
    assert np.allclose(out, np.tanh(q_phr), atol=1e-12)


def test_guided_smooth_zero_input_stays_zero():
    out = smoothing.guided_phrase_smooth(
        np.zeros((6, 3)), np.zeros(6), np.zeros(6)
    )
    assert np.array_equal(out, np.zeros((6, 3)))


def _oracle_case():
    """Clean single-span instance: span at steps 3..4, gold phrase 1 of 3."""
    u, m = 8, 3
    q_list = np.zeros(u)
    q_list[3:5] = 1.0
    q_phr = np.zeros((u, m))
    q_phr[3:5, 1] = 1.0
    return q_list, q_phr


def test_guided_smooth_keeps_gold_argmax_on_clean_span():
    q_list, q_phr = _oracle_case()
    q_slist = smoothing.triangular_smooth(q_list, SmoothingParams(omega=0.6))
    out = smoothing.guided_phrase_smooth(q_phr, q_list, q_slist)
    assert out.shape == q_phr.shape
    for u in (3, 4):
        assert np.argmax(out[u]) == 1
        assert out[u, 1] >= np.tanh(1.0)
    assert out.min() >= 0.0 and out.max() < 1.0


def test_guided_smooth_sharpens_flat_scores():
    # margin growth regime: scores far from tanh saturation, so pooling a
    # window of L agreeing steps beats any single step
    q_list, q_phr = _oracle_case()
    q_phr = 0.3 * q_phr
    q_phr[:, 2] = 0.05  # faint competitor everywhere
    q_slist = smoothing.triangular_smooth(q_list, SmoothingParams(omega=0.6))
    out = smoothing.guided_phrase_smooth(q_phr, q_list, q_slist)
    for u in (3, 4):
        before = np.sort(q_phr[u])
        after = np.sort(out[u])
        margin_before = before[-1] - before[-2]
        margin_after = after[-1] - after[-2]
        assert margin_after >= margin_before


def test_smoothing_is_deterministic_and_length_preserving():
    rng = np.random.default_rng(3)
    q = rng.uniform(size=10)
    p = SmoothingParams(omega=0.6)
    a = smoothing.triangular_smooth(q, p)
    assert np.array_equal(a, smoothing.triangular_smooth(q, p))
    assert a.shape == q.shape


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_non_finite_smoothed_scores_raise_naming_q_slist(bad):
    q_slist = np.full(5, 0.2)
    q_slist[2] = bad
    with pytest.raises(ValueError, match="q_slist"):
        smoothing.estimate_phrase_length(q_slist)
    with pytest.raises(ValueError, match="q_slist"):
        smoothing.guided_phrase_smooth(np.full((5, 3), 0.5), np.full(5, 0.5), q_slist)
    # infinities of both signs sum to NaN, which numpy warns about first
    with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="q_slist"):
        smoothing.estimate_phrase_length(np.array([np.inf, -np.inf]))


def _check_pooled(q_phr, q_list, q_slist, side):
    """``_pool_windows`` against ``locate_window``, ``estimate_phrase_length``
    and the parent's per-step pooling, bit for bit; returns the row count."""
    pooled, step_rows, starts, length = smoothing._pool_windows(q_phr, q_list, q_slist)
    n = len(q_list)
    assert length == smoothing.estimate_phrase_length(q_slist)
    assert starts.tolist() == [smoothing.locate_window(q_list, length, u) for u in range(n)]
    want = parent_decode.guided_phrase_smooth(q_phr, q_list, q_slist)
    got = smoothing.guided_phrase_smooth(q_phr, q_list, q_slist)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if side == "cumsum":
        assert step_rows is None and pooled.tobytes() == want.tobytes()
        return n
    distinct = sorted(set(starts.tolist()))
    assert pooled.shape == (len(distinct), np.shape(q_phr)[1])
    assert [distinct[r] for r in step_rows] == starts.tolist()
    assert pooled[step_rows].tobytes() == want.tobytes()
    return len(distinct)


def test_pooled_windows_match_the_per_step_pooling(width_sides):
    # every window length 1..U, widths 1-17 and 1196, ties in the list
    # scores on even trials
    rng = np.random.default_rng(8)
    for trial in range(120):
        n = int(rng.integers(1, 14))
        m = 1196 if trial % 10 == 0 else int(rng.integers(1, 18))
        q_list = rng.integers(0, 3, size=n) / 2.0 if trial % 2 == 0 else rng.uniform(size=n)
        q_phr = rng.uniform(size=(n, m))
        for side in width_sides():
            for length in range(1, n + 1):
                _check_pooled(q_phr, q_list, np.full(n, length / n), side)


def test_pooled_windows_share_rows_at_the_edges(width_sides):
    rng = np.random.default_rng(9)
    for side in width_sides():
        per_step = side == "cumsum"
        for n in (1, 2, 5, 16):
            q_phr = rng.uniform(size=(n, 7))
            # U = 1: one step, one window
            # L = U: every step in the one window that fits (k = 1)
            k = _check_pooled(q_phr, rng.uniform(size=n), np.ones(n), side)
            assert k == (n if per_step else 1)
            # L = 1 with ascending list scores: every step in its own window
            # (k = U)
            k = _check_pooled(q_phr, np.linspace(0, 1, n), np.zeros(n), side)
            assert k == n
            # a flat list: every search ties, and ties go to the smallest
            # start, so with L = 2 steps 0 and 1 share start 0
            k = _check_pooled(q_phr, np.full(n, 0.5), np.full(n, 2 / n), side)
            assert k == (n if per_step else max(1, n - 1))


def test_pooled_windows_read_fortran_ordered_and_strided_phrase_scores(width_sides):
    rng = np.random.default_rng(10)
    for n, m in ((1, 3), (6, 5), (16, 17), (16, 1196)):
        q_list = rng.uniform(size=n)
        base = rng.uniform(size=(2 * n, 2 * m))
        for q_phr in (np.asfortranarray(base[:n, :m]), base[::2, ::2], base[:n, 1::2]):
            for side in width_sides():
                for length in sorted({1, max(1, n // 2), n}):
                    _check_pooled(q_phr, q_list, np.full(n, length / n), side)


def test_the_width_selection_is_at_the_row_add_width():
    rng = np.random.default_rng(11)
    q_list = rng.uniform(size=9)
    q_slist = np.full(9, 3 / 9)
    for m in (smoothing._ROW_ADD_WIDTH - 1, smoothing._ROW_ADD_WIDTH):
        q_phr = rng.uniform(size=(9, m))
        pooled, step_rows, starts, _ = smoothing._pool_windows(q_phr, q_list, q_slist)
        assert (step_rows is None) == (m < smoothing._ROW_ADD_WIDTH)
        assert _check_pooled(q_phr, q_list, q_slist,
                             "cumsum" if step_rows is None else "row_adds") == len(pooled)
