"""The decode core against its stages as they stood before the per-call
rewrite, kept verbatim in ``parent_decode``: every ``DecodeResult`` array
and hypothesis bit for bit, for both decoders."""

import numpy as np
import parent_decode
import pytest

from ctxbias import corpus, jointdecode, purify, simulate
from ctxbias.bundle import CorrelationBundle
from ctxbias.harness.config import ExperimentConfig
from ctxbias.harness.corpusgen import generate_corpus
from ctxbias.numeric import softmax
from ctxbias.smoothing import SmoothingParams

CFG = ExperimentConfig(n_utterances=5, seed=3)
PARAMS = SmoothingParams(omega=0.6)
SPECS = {
    "flip": simulate.NoiseSpec(seed=5, label_flip_rate=0.3),
    "jitter": simulate.NoiseSpec(seed=5, score_jitter_sigma=0.4),
    "confusion": simulate.NoiseSpec(seed=5, confusion_rate=0.7),
    "distractors": simulate.NoiseSpec(seed=5, distractor_boost=0.5),
}
ARRAYS = ("q_bias", "weight", "q_sphr", "q_casr")


@pytest.fixture(scope="module")
def corp():
    return generate_corpus(CFG)


@pytest.fixture(scope="module")
def lists(corp):
    """(sublist, mask) for M = 2, 51 and 1196, prefixes of the longest list."""
    longest = corp.lists[1196]
    out = {}
    for m in (2, 51, 1196):
        bl = longest.sublist(np.arange(m))
        out[m] = bl, corpus.build_phi(bl, corp.vocabulary)
    return out


def _assert_same(new, old):
    for name in ("hyp_bb", "hyp_casr", "hyp_final"):
        a, b = getattr(new, name), getattr(old, name)
        assert type(a) is tuple and a == b, name
        assert all(type(t) is int for t in a), name
    assert (new.count_bb, new.count_casr) == (old.count_bb, old.count_casr)
    for name in ARRAYS:
        a, b = getattr(new, name), getattr(old, name)
        if b is None:
            assert a is None, name
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _both_decoders(bundle, bl, phi):
    _assert_same(jointdecode.decode_utterance(bundle, bl, phi, PARAMS),
                 parent_decode.decode_utterance(bundle, bl, phi, PARAMS))
    _assert_same(jointdecode.attention_decode(bundle, bl, phi),
                 parent_decode.attention_decode(bundle, bl, phi))


@pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS.keys())
def test_decoders_match_the_parent_stages_on_scorer_bundles(corp, lists, spec):
    longest = corp.lists[1196]
    for utt in corp.utterances:
        scorer = simulate.SyntheticScorer(utt, longest, corp.vocabulary, spec)
        for m, (bl, phi) in lists.items():
            _both_decoders(scorer.bundle(np.arange(m)), bl, phi)


@pytest.mark.parametrize("method", ("gcp", "ocp"))
def test_decoders_match_the_parent_stages_on_purified_sublists(corp, lists, method):
    longest, phi = lists[1196]
    spec = simulate.NoiseSpec(seed=2, label_flip_rate=0.1, score_jitter_sigma=0.5,
                              confusion_rate=0.3, distractor_boost=0.3)
    for utt in corp.utterances:
        scorer = simulate.SyntheticScorer(utt, longest, corp.vocabulary, spec)
        kept = getattr(purify, method)(longest, scorer, CFG.purify_for(2)).kept
        _both_decoders(scorer.bundle(kept), longest.sublist(kept),
                       purify.restrict_phi(phi, kept))


def _random_bundle(gen, u, m, v, q_list):
    return CorrelationBundle(
        q_list=q_list,
        q_phr=gen.uniform(size=(u, m)),
        q_tok=gen.dirichlet(np.ones(v), size=u),
        p_bb=gen.dirichlet(np.ones(v), size=u),
    )


def test_decoders_match_the_parent_stages_on_window_edges(corp, lists):
    """U = 1, and list scores that put the window at length 1 (all zero)
    and at length U (all one), a span after a run of zeros (the padding must
    not win a tie), and random scores with and without ties."""
    gen = np.random.default_rng(11)
    v = corp.vocabulary.size
    for m, (bl, phi) in lists.items():
        for u in (1, 2, 3, 7, 16):
            late_span = (np.arange(u) >= u - 2).astype(float)  # zero-sum windows first
            for q_list in (np.zeros(u), np.ones(u), late_span, gen.uniform(size=u),
                           gen.integers(0, 3, size=u) / 2.0):
                bundle = _random_bundle(gen, u, m, v, q_list)
                length = parent_decode.estimate_phrase_length(
                    parent_decode.triangular_smooth(q_list, PARAMS))
                if not q_list.any():
                    assert length == 1
                elif (q_list == 1).all():
                    assert length == u
                _both_decoders(bundle, bl, phi)


def test_decoders_match_the_parent_stages_on_fortran_ordered_arrays(corp, lists):
    gen = np.random.default_rng(12)
    v = corp.vocabulary.size
    for m, (bl, phi) in lists.items():
        for u in (1, 5, 16):
            c = _random_bundle(gen, u, m, v, gen.uniform(size=u))
            f = CorrelationBundle(q_list=c.q_list, q_phr=np.asfortranarray(c.q_phr),
                                  q_tok=np.asfortranarray(c.q_tok),
                                  p_bb=np.asfortranarray(c.p_bb))
            if u > 1:
                assert f.q_phr.flags.f_contiguous and not f.q_phr.flags.c_contiguous
            _both_decoders(f, bl, phi)


@pytest.mark.parametrize("dtype", (np.float64, np.float32, np.int64, np.int32))
def test_softmax_matches_the_parent_in_dtype_and_bits(dtype):
    gen = np.random.default_rng(13)
    x = (gen.normal(size=(6, 9)) * 4).astype(dtype)
    for axis in (0, 1, -1):
        for a in (x, np.asfortranarray(x), x[:, ::2]):
            got, want = softmax(a, axis=axis), parent_decode.softmax(a, axis=axis)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    if np.issubdtype(dtype, np.floating):
        assert softmax(x).dtype == dtype
    else:
        assert softmax(x).dtype == np.float64
