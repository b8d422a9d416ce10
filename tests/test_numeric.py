import numpy as np

from ctxbias import numeric


def _masked_expit(x):
    """The boolean-mask formula, kept as the oracle for ``expit``."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _plain_logit(p):
    p = np.asarray(p, dtype=np.float64)
    return np.log(p) - np.log1p(-p)


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_expit_matches_masked_formula_bit_for_bit():
    gen = np.random.default_rng(5)
    edges = np.array([0.0, -0.0, 745.0, -745.0, 746.0, -746.0, 1000.0, -1000.0,
                      np.nan, -np.nan, np.inf, -np.inf, 1e-300, -1e-300, 36.7, -36.7])
    cases = [np.array([]), np.zeros((0, 3)), edges, edges.reshape(4, 4),
             np.arange(-5, 5), gen.normal(0, 10, size=7).astype(np.float32)]
    for shape in [(1,), (16,), (8, 24), (40, 24), (16, 1196), (400, 1196)]:
        x = gen.normal(0, 10, size=shape)
        cases.append(x)
        x = x.copy()
        x.flat[:: 3] = edges[gen.integers(0, edges.size, size=x.flat[::3].size)]
        cases.append(x)
    for x in cases:
        # other dtypes are computed in float64
        want = _masked_expit(np.asarray(x, dtype=np.float64))
        assert _same_bits(numeric.expit(x), want), (x.dtype, x.shape)
    for x in (np.float64(-3.0), np.array(2.5), np.array(-0.0)):
        got = numeric.expit(x)
        assert got.shape == () and got.tobytes() == _masked_expit(np.asarray(x)).tobytes()


def test_logit_matches_plain_formula_and_inverts_expit():
    gen = np.random.default_rng(6)
    for p in (np.array([]), np.array([1e-4, 6e-3, 0.5, 0.85, 0.9]), gen.random((16, 1196))):
        assert _same_bits(numeric.logit(p), _plain_logit(p))
    p = gen.uniform(0.01, 0.99, size=500)
    assert np.allclose(numeric.expit(numeric.logit(p)), p, rtol=0, atol=1e-12)
