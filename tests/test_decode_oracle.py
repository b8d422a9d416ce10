"""The decode core against its stages as they stood before the per-call
rewrite, kept verbatim in ``parent_decode``: every ``DecodeResult`` array
and hypothesis bit for bit, for both decoders, on both sides of the
pooling's width selection (the ``width_sides`` fixture)."""

import numpy as np
import parent_decode
import pytest
from test_corpus import _brute_force_scan

from ctxbias import corpus, jointdecode, purify, simulate
from ctxbias.bundle import CorrelationBundle
from ctxbias.harness.config import ExperimentConfig
from ctxbias.harness.corpusgen import generate_corpus
from ctxbias.numeric import softmax
from ctxbias.smoothing import SmoothingParams, estimate_phrase_length, locate_window

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
    """(sublist, mask) for M = 2, 3, 17, 51 and 1196, prefixes of the
    longest list."""
    longest = corp.lists[1196]
    out = {}
    for m in (2, 3, 17, 51, 1196):
        bl = longest.sublist(np.arange(m))
        out[m] = bl, corpus.build_phi(bl, corp.vocabulary)
    return out


@pytest.fixture(scope="module")
def long_phrases(corp):
    """(list, mask, utterances): a list whose real phrases hold 7 to 19
    tokens (the generated lists hold 2 to 6), each base phrase with an
    extension that starts with it and a variant with one token swapped for
    its confusable partner, and utterances naming one or two of them in
    spans. Windows longer than 6 steps and deep prefix-tree walks then run
    end to end."""
    vocab, gen = corp.vocabulary, np.random.default_rng(21)
    phrases = {}
    for _ in range(40):
        base = gen.integers(2, vocab.size, size=int(gen.integers(7, 16))).tolist()
        extra = gen.integers(2, vocab.size, size=int(gen.integers(2, 13))).tolist()
        longer = (base + extra)[: corpus.MAX_PHRASE_LEN]
        variant = list(base)
        k = int(gen.integers(len(base)))
        variant[k] = vocab.confusable[variant[k]]
        phrases.update(dict.fromkeys(map(tuple, (base, longer, variant))))
    bl = corpus.make_biasing_list(phrases, vocab)
    utts = []
    for k in range(8):
        tokens, spans = [], []
        for _ in range(1 + k % 2):
            tokens += gen.integers(2, vocab.size, size=int(gen.integers(1, 4))).tolist()
            m = int(gen.integers(1, bl.size))
            spans.append(corpus.Span(len(tokens), len(tokens) + len(bl.phrases[m]), m))
            tokens += bl.phrases[m]
        tokens += gen.integers(2, vocab.size, size=2).tolist()
        utts.append(corpus.Utterance(f"long{k}", tuple(tokens), 0.1 * len(tokens), tuple(spans)))
    assert {len(p) for p in bl.phrases[1:]} == set(range(7, corpus.MAX_PHRASE_LEN + 1))
    return bl, corpus.build_phi(bl, vocab), utts


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


def _assert_windows(res, bundle):
    """The joint decode's window fields are ``estimate_phrase_length`` of its
    weight and ``locate_window`` per step."""
    if res.q_sphr is None:
        assert res.window_start is None and res.phrase_length is None
        return
    length = estimate_phrase_length(res.weight)
    assert type(res.phrase_length) is int and res.phrase_length == length
    assert res.window_start.dtype == np.intp
    assert res.window_start.tolist() == [locate_window(bundle.q_list, length, u)
                                         for u in range(bundle.n_steps)]


def _both_decoders(bundle, bl, phi):
    res = jointdecode.decode_utterance(bundle, bl, phi, PARAMS)
    _assert_same(res, parent_decode.decode_utterance(bundle, bl, phi, PARAMS))
    _assert_windows(res, bundle)
    attn = jointdecode.attention_decode(bundle, bl, phi)
    _assert_same(attn, parent_decode.attention_decode(bundle, bl, phi))
    assert attn.window_start is None and attn.phrase_length is None


@pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS.keys())
def test_decoders_match_the_parent_stages_on_scorer_bundles(corp, lists, spec, width_sides):
    longest = corp.lists[1196]
    for _ in width_sides():
        for utt in corp.utterances:
            scorer = simulate.SyntheticScorer(utt, longest, corp.vocabulary, spec)
            for m, (bl, phi) in lists.items():
                _both_decoders(scorer.bundle(np.arange(m)), bl, phi)


@pytest.mark.parametrize("method", ("gcp", "ocp"))
def test_decoders_match_the_parent_stages_on_purified_sublists(corp, lists, method,
                                                               width_sides):
    longest, phi = lists[1196]
    spec = simulate.NoiseSpec(seed=2, label_flip_rate=0.1, score_jitter_sigma=0.5,
                              confusion_rate=0.3, distractor_boost=0.3)
    for _ in width_sides():
        for utt in corp.utterances:
            scorer = simulate.SyntheticScorer(utt, longest, corp.vocabulary, spec)
            kept = getattr(purify, method)(longest, scorer, CFG.purify_for(2)).kept
            _both_decoders(scorer.bundle(kept), longest.sublist(kept),
                           purify.restrict_phi(phi, kept))


def _assert_guard_counts(res, bl):
    """The guard's counts are those of the brute-force scan."""
    assert res.count_bb == len(_brute_force_scan(res.hyp_bb, bl))
    assert res.count_casr == len(_brute_force_scan(res.hyp_casr, bl))


def test_decoders_match_the_parent_stages_on_long_phrases(corp, long_phrases, width_sides):
    """Phrases of 7 to 19 tokens: the joint and attention decodes of the full
    list, and the purified decodes of the ``gcp`` and ``ocp`` kept sets,
    match the parent's stages, and the guard's counts match the brute-force
    scan of the list or of the kept sublist."""
    bl, phi, utts = long_phrases
    spec = simulate.NoiseSpec(seed=4, label_flip_rate=0.1, score_jitter_sigma=0.1,
                              confusion_rate=0.3, distractor_boost=0.4)
    lengths, kept_sizes, counts = set(), [], set()
    for _ in width_sides():
        for utt in utts:
            scorer = simulate.SyntheticScorer(utt, bl, corp.vocabulary, spec, phi)
            bundle = scorer.bundle()
            _both_decoders(bundle, bl, phi)
            res = jointdecode.decode_utterance(bundle, bl, phi, PARAMS)
            _assert_guard_counts(res, bl)
            lengths.add(res.phrase_length)
            counts.update((res.count_bb, res.count_casr))
            for pick in (purify.gcp, purify.ocp):
                kept = pick(bl, scorer, CFG.purify_for(4)).kept
                kept_sizes.append(kept.indices.size)
                sub, sub_phi = bl.sublist(kept), purify.restrict_phi(phi, kept)
                want = parent_decode.decode_utterance(scorer.bundle(kept), sub, sub_phi, PARAMS)
                got = jointdecode.decode_utterance(scorer.bundle(kept), bl, phi, PARAMS, kept)
                _assert_same(got, want)
                _assert_guard_counts(got, sub)
    assert max(lengths) > 6 and 1 < min(kept_sizes) and max(kept_sizes) < bl.size
    assert {0, 1, 2} <= counts


def _random_bundle(gen, u, m, v, q_list):
    return CorrelationBundle(
        q_list=q_list,
        q_phr=gen.uniform(size=(u, m)),
        q_tok=gen.dirichlet(np.ones(v), size=u),
        p_bb=gen.dirichlet(np.ones(v), size=u),
    )


def test_decoders_match_the_parent_stages_on_window_edges(corp, lists, width_sides):
    """U = 1, and list scores that put the window at length 1 (all zero:
    every step its own window) and at length U (all one: every step in one
    window), a span after a run of zeros (the padding must not win a tie),
    and random scores with and without ties."""
    for _ in width_sides():
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


def _strided(a):
    """``a`` as a view with a column stride of two elements."""
    wide = np.zeros((a.shape[0], 2 * a.shape[1]))
    wide[:, ::2] = a
    return wide[:, ::2]


def test_decoders_match_the_parent_stages_on_fortran_ordered_arrays(corp, lists, width_sides):
    for _ in width_sides():
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
                s = CorrelationBundle(q_list=c.q_list, q_phr=_strided(c.q_phr),
                                      q_tok=_strided(c.q_tok), p_bb=c.p_bb)
                assert not (s.q_phr.flags.c_contiguous or s.q_tok.flags.f_contiguous)
                _both_decoders(s, bl, phi)


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


@pytest.mark.parametrize("sigma", (0.1, 0.5), ids=("base", "stress"))
def test_purified_decode_through_the_full_list_matches_the_sublist_decode(sigma, width_sides):
    """``decode_utterance(..., kept=)`` reads the full list's scan table and
    the full mask's nonzeros; the oracle builds the sublist and copies the
    mask rows, as the purified decode once did, and the parent's stages
    decode it. Every field agrees bit for bit, for the kept sets of gcp and
    ocp at the benchmark's BASE noise (mean m_pur about 28) and at its
    purify_stress jitter (about 70)."""
    config = ExperimentConfig(n_utterances=30, seed=3, confusion_rate=0.3,
                              distractor_boost=0.3, score_jitter_sigma=sigma)
    corp = generate_corpus(config)
    bl = corp.lists[1196]
    phi = corpus.build_phi(bl, corp.vocabulary)
    params = config.purify_for(1)
    for _ in width_sides():
        sizes = []
        for utt in corp.utterances:
            scorer = simulate.SyntheticScorer(utt, bl, corp.vocabulary, config.noise_for(1), phi)
            for pick in (purify.gcp, purify.ocp):
                kept = pick(bl, scorer, params).kept.indices.tolist()
                sizes.append(len(kept))
                sub, sub_phi = bl.sublist(kept), purify.restrict_phi(phi, kept)
                want = jointdecode.decode_utterance(scorer.bundle(kept), sub, sub_phi, PARAMS)
                _assert_same(want, parent_decode.decode_utterance(scorer.bundle(kept), sub,
                                                                  sub_phi, PARAMS))
                kept_set = corpus.KeptSet.of(kept, bl.size)
                for given in (kept, kept_set):
                    got = jointdecode.decode_utterance(scorer.bundle(given), bl, phi, PARAMS, given)
                    _assert_same(got, want)
                    _assert_windows(got, scorer.bundle(given))
        assert (np.mean(sizes) < 40) if sigma == 0.1 else (np.mean(sizes) > 55)


