import numpy as np
import pytest

from ctxbias import corpus, jointdecode, simulate
from ctxbias.bundle import CorrelationBundle
from ctxbias.harness.config import ExperimentConfig
from ctxbias.harness.corpusgen import generate_corpus
from ctxbias.numeric import softmax
from ctxbias.smoothing import SmoothingParams, guided_phrase_smooth, triangular_smooth


def _vocab(n_chars: int = 20, seed: int = 3) -> corpus.Vocabulary:
    return corpus.Vocabulary.build([chr(0x4E00 + i) for i in range(n_chars)], seed=seed)


def _clean_case(spans=((1, 3, 1), (4, 6, 2))):
    v = _vocab()
    bl = corpus.make_biasing_list([(2, 3), (4, 5), (6, 7, 8)], v)
    tokens = [10, 11, 12, 13, 14, 15, 16]
    for start, end, m in spans:
        tokens[start:end] = bl.phrases[m]
    utt = corpus.Utterance("u0", tuple(tokens), 2.0, tuple(corpus.Span(*s) for s in spans))
    bundle = simulate.SyntheticScorer(utt, bl, v, simulate.NoiseSpec(seed=7)).bundle()
    phi = corpus.build_phi(bl, v)
    return v, bl, utt, bundle, phi


def test_joint_intersection_zero_list_scores_are_uniform():
    v, bl, utt, bundle, phi = _clean_case()
    u, vsize = bundle.q_tok.shape
    out = jointdecode.joint_intersection(
        np.zeros(u), bundle.q_phr, bundle.q_tok, phi
    )
    assert np.allclose(out, 1.0 / vsize, atol=1e-12)
    empty = corpus.PhiMask(matrix=np.zeros_like(phi.matrix))
    out = jointdecode.joint_intersection(np.ones(u), bundle.q_phr, bundle.q_tok, empty)
    assert np.allclose(out, 1.0 / vsize, atol=1e-12)


def _dense_intersection(q_slist, q_sphr, q_tok, phi):
    """The intersection as the (U, M, V) broadcast: mask by multiplication,
    max over phrases."""
    phrase_max = (q_sphr[:, :, None] * phi.matrix.astype(float)[None]).max(axis=1)
    return softmax(q_slist[:, None] * phrase_max * q_tok, axis=1)


def test_joint_intersection_matches_dense_oracle_on_random_masks():
    rng = np.random.default_rng(4)
    shapes = [(1, 9), (2, 9), (7, 12), (40, 30)]
    for trial in range(60):
        m, v = shapes[trial % len(shapes)]
        u = int(rng.integers(1, 9))
        density = (0.0, 0.05, 0.3, 1.0)[trial % 4]
        matrix = (rng.uniform(size=(m, v)) < density).astype(np.uint8)
        matrix[:, rng.integers(0, v)] = 0  # a token in no phrase
        phi = corpus.PhiMask(matrix=matrix)
        q_slist = rng.uniform(size=u)
        q_sphr = rng.uniform(size=(u, m)) * (rng.uniform(size=(u, m)) > 0.2)
        q_tok = rng.dirichlet(np.ones(v), size=u)
        got = jointdecode.joint_intersection(q_slist, q_sphr, q_tok, phi)
        assert np.array_equal(got, _dense_intersection(q_slist, q_sphr, q_tok, phi))


def test_joint_intersection_matches_dense_oracle_on_the_corpus():
    config = ExperimentConfig(
        n_utterances=12, confusion_rate=0.3, distractor_boost=0.3, score_jitter_sigma=0.1
    )
    corp = generate_corpus(config)
    for m in config.list_lengths:
        bl = corp.lists[m]
        phi = corpus.build_phi(bl, corp.vocabulary)
        for utt in corp.utterances:
            b = simulate.SyntheticScorer(utt, bl, corp.vocabulary, config.noise_for(0), phi).bundle()
            q_slist = triangular_smooth(b.q_list, SmoothingParams())
            q_sphr = guided_phrase_smooth(b.q_phr, b.q_list, q_slist)
            got = jointdecode.joint_intersection(q_slist, q_sphr, b.q_tok, phi)
            assert np.array_equal(got, _dense_intersection(q_slist, q_sphr, b.q_tok, phi))


def test_joint_intersection_points_at_phrase_tokens():
    v, bl, utt, bundle, phi = _clean_case()
    out = jointdecode.joint_intersection(
        np.ones(len(utt.tokens)), bundle.q_phr, bundle.q_tok, phi
    )
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
    for u in (1, 2):
        assert np.argmax(out[u]) in bl.phrases[1]
    with pytest.raises(ValueError):
        jointdecode.joint_intersection(np.ones(3), bundle.q_phr, bundle.q_tok, phi)


def test_interpolate_endpoints_and_rows():
    rng = np.random.default_rng(0)
    p = rng.dirichlet(np.ones(6), size=4)
    q = rng.dirichlet(np.ones(6), size=4)
    assert np.allclose(jointdecode.interpolate(p, q, np.zeros(4)), p)
    assert np.allclose(jointdecode.interpolate(p, q, np.ones(4)), q)
    half = jointdecode.interpolate(
        np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.array([0.5])
    )
    assert np.allclose(half, [[0.5, 0.5]])
    w = rng.uniform(size=4)
    mixed = jointdecode.interpolate(p, q, w)
    assert np.allclose(mixed.sum(axis=1), 1.0, atol=1e-12)


def test_greedy_decode():
    one_hot = np.eye(5)[[3, 0, 4]]
    assert jointdecode.greedy_decode(one_hot) == (3, 0, 4)
    assert jointdecode.greedy_decode(np.full((2, 7), 1.0 / 7)) == (0, 0)
    rng = np.random.default_rng(1)
    probs = rng.uniform(size=(5, 7))
    got = jointdecode.greedy_decode(probs)
    for u in range(5):
        assert got[u] == max(range(7), key=lambda t: (probs[u, t], -t))


def test_count_phrases():
    v = _vocab()
    bl = corpus.make_biasing_list([(2, 3), (2, 3, 2)], v)
    assert jointdecode.count_phrases((9, 2, 3, 9), bl) == 1
    assert jointdecode.count_phrases((), bl) == 0
    # longest match consumes first: (2,3,2,3) -> phrase (2,3,2), then lone 3
    assert jointdecode.count_phrases((2, 3, 2, 3), bl) == 1


def test_post_process_requires_strict_improvement():
    v = _vocab()
    bl = corpus.make_biasing_list([(2, 3)], v)
    with_phrase = (2, 3, 9)
    without = (9, 9, 9)
    assert jointdecode.post_process(with_phrase, without, bl) == (with_phrase, 1, 0)
    assert jointdecode.post_process((2, 3, 8), (2, 3, 9), bl) == ((2, 3, 9), 1, 1)
    assert jointdecode.post_process(without, without, bl) == (without, 0, 0)


def test_decode_zero_noise_recovers_reference():
    v, bl, utt, bundle, phi = _clean_case()
    res = jointdecode.decode_utterance(bundle, bl, phi, SmoothingParams())
    assert res.hyp_bb == utt.tokens
    assert res.hyp_casr == utt.tokens
    assert res.hyp_final == utt.tokens
    assert np.allclose(res.q_bias.sum(axis=1), 1.0, atol=1e-9)


def test_decode_without_real_phrases_falls_back():
    v, bl, utt, bundle, phi = _clean_case(spans=())
    only_nb = bl.sublist([0])
    scorer = simulate.SyntheticScorer(utt, only_nb, v, simulate.NoiseSpec(seed=7))
    nb_bundle = scorer.bundle()
    # a confident list channel, so that only the fallback keeps the
    # biased path from overriding the backbone
    nb_bundle = CorrelationBundle(
        q_list=np.ones(len(utt.tokens)), q_phr=nb_bundle.q_phr, q_tok=nb_bundle.q_tok,
        p_bb=nb_bundle.p_bb,
    )
    nb_phi = corpus.build_phi(only_nb, v)
    for res in (
        jointdecode.decode_utterance(nb_bundle, only_nb, nb_phi, SmoothingParams()),
        jointdecode.attention_decode(nb_bundle, only_nb, nb_phi),
    ):
        assert res.hyp_bb == jointdecode.greedy_decode(nb_bundle.p_bb)
        assert res.hyp_casr == res.hyp_final == res.hyp_bb
        assert np.all(res.q_bias == 1.0 / v.size)


def test_decode_with_kept_indices_checks_them_against_list_and_bundle():
    v, bl, utt, bundle, phi = _clean_case()
    scorer = simulate.SyntheticScorer(utt, bl, v, simulate.NoiseSpec(seed=7))
    params = SmoothingParams()
    # the no-bias entry alone falls back to the backbone, as its sublist does
    res = jointdecode.decode_utterance(scorer.bundle([0]), bl, phi, params, [0])
    assert res.hyp_casr == res.hyp_final == res.hyp_bb
    assert (res.count_bb, res.count_casr) == (0, 0)
    for kept, named in (([0, 9], "index 9 is outside"), ([1, 0], "first kept index is 1"),
                        ([0, 2, 2], "index 2 repeats")):
        with pytest.raises(ValueError, match=named):
            jointdecode.decode_utterance(bundle, bl, phi, params, kept)
    # the bundle must score exactly the kept entries
    with pytest.raises(ValueError, match="2 of them kept"):
        jointdecode.decode_utterance(bundle, bl, phi, params, [0, 2])
    with pytest.raises(ValueError, match="kept set is of a 2-entry list"):
        jointdecode.decode_utterance(scorer.bundle([0, 1]), bl, phi, params,
                                     corpus.KeptSet.of([0, 1], 2))


def test_decode_corrects_homophone_confusions():
    # backbone mishears one step of each name; the scorers know better
    v, bl, utt, bundle, phi = _clean_case(spans=((1, 3, 1), (4, 6, 2)))
    p_bb = bundle.p_bb.copy()
    refs = np.asarray(utt.tokens)
    for step in (2, 5):
        partner = v.confusable[refs[step]]
        p_bb[step, refs[step]], p_bb[step, partner] = (
            p_bb[step, partner],
            p_bb[step, refs[step]],
        )
    confused = CorrelationBundle(
        q_list=bundle.q_list, q_phr=bundle.q_phr, q_tok=bundle.q_tok, p_bb=p_bb
    )
    res = jointdecode.decode_utterance(confused, bl, phi, SmoothingParams())
    assert res.hyp_bb != utt.tokens  # both names are broken
    assert res.hyp_casr == utt.tokens
    assert res.hyp_final == utt.tokens


def test_zero_list_correlation_leaves_backbone_untouched():
    v, bl, utt, _, phi = _clean_case(spans=())
    bundle = simulate.SyntheticScorer(utt, bl, v, simulate.NoiseSpec(seed=3)).bundle()
    assert bundle.q_list.sum() == 0.0
    res = jointdecode.decode_utterance(bundle, bl, phi, SmoothingParams())
    assert res.hyp_casr == res.hyp_bb


def test_post_process_never_loses_phrases():
    rng = np.random.default_rng(2)
    v = _vocab()
    bl = corpus.make_biasing_list([(2, 3), (4, 5)], v)
    for _ in range(50):
        hyp_a = tuple(rng.integers(2, 10, size=6).tolist())
        hyp_b = tuple(rng.integers(2, 10, size=6).tolist())
        final = jointdecode.post_process(hyp_a, hyp_b, bl)[0]
        assert jointdecode.count_phrases(final, bl) >= jointdecode.count_phrases(hyp_b, bl)


def test_phrase_permutation_leaves_q_bias_identical():
    v, bl, utt, bundle, phi = _clean_case()
    rng = np.random.default_rng(4)
    u = len(utt.tokens)
    q_slist = rng.uniform(size=u)
    perm = rng.permutation(bl.size)
    permuted_phi = corpus.PhiMask(matrix=phi.matrix[perm].copy())
    a = jointdecode.joint_intersection(q_slist, bundle.q_phr, bundle.q_tok, phi)
    b = jointdecode.joint_intersection(
        q_slist, bundle.q_phr[:, perm], bundle.q_tok, permuted_phi
    )
    assert np.array_equal(a, b)


def test_full_bias_follows_q_bias_argmax():
    v, bl, utt, bundle, phi = _clean_case()
    u = len(utt.tokens)
    q_bias = jointdecode.joint_intersection(
        np.ones(u), bundle.q_phr, bundle.q_tok, phi
    )
    casr = jointdecode.interpolate(bundle.p_bb, q_bias, np.ones(u))
    assert jointdecode.greedy_decode(casr) == jointdecode.greedy_decode(q_bias)


def test_attention_stub_decodes_clean_input():
    v, bl, utt, bundle, phi = _clean_case()
    res = jointdecode.attention_decode(bundle, bl, phi)
    assert res.hyp_bb == utt.tokens
    assert res.hyp_final == utt.tokens
    assert np.allclose(res.q_bias.sum(axis=1), 1.0, atol=1e-9)


def test_decode_results_carry_the_guard_counts():
    """Both decoders hand out the two phrase counts the guard compared,
    counted against the decoded list, the same counts the guard returns
    with the hypothesis it kept."""
    config = ExperimentConfig(n_utterances=30, confusion_rate=0.3, distractor_boost=0.3,
                              score_jitter_sigma=0.3)
    corp = generate_corpus(config)
    bl = corp.lists[201]
    phi = corpus.build_phi(bl, corp.vocabulary)
    kept_biased = 0
    for utt in corp.utterances:
        bundle = simulate.SyntheticScorer(utt, bl, corp.vocabulary, config.noise_for(1)).bundle()
        for res in (jointdecode.decode_utterance(bundle, bl, phi, SmoothingParams()),
                    jointdecode.attention_decode(bundle, bl, phi)):
            assert res.count_bb == jointdecode.count_phrases(res.hyp_bb, bl)
            assert res.count_casr == jointdecode.count_phrases(res.hyp_casr, bl)
            assert type(res.hyp_final) is tuple
            assert jointdecode.post_process(res.hyp_casr, res.hyp_bb, bl) == (
                res.hyp_final, res.count_casr, res.count_bb)
            kept_biased += res.hyp_final != res.hyp_bb
    assert kept_biased  # the guard let some biased hypotheses through


def test_decode_core_does_not_import_the_synthetic_scorer():
    # the bundle contract lives in ctxbias.bundle; the decoders need nothing
    # from the synthetic scorer's module
    import ast
    import inspect

    tree = ast.parse(inspect.getsource(jointdecode))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names}
    assert "bundle" in imported and not any("simulate" in (name or "") for name in imported)


_ONES_2X3 = corpus.PhiMask(matrix=np.ones((2, 3), dtype=np.uint8))
_Q_SLIST_SHAPES = [
    # (stage, q_slist) with every other input well formed: 2 steps for the
    # intersection (2 phrases, 3 tokens), 4 for the phrase pooling
    ("intersection", np.full((2, 1), 0.5)),
    ("intersection", np.full(3, 0.5)),
    ("intersection", np.full(1, 0.5)),
    ("intersection", np.array(0.5)),
    ("pooling", np.full(2, 0.5)),
    ("pooling", np.full(10, 0.5)),
    ("pooling", np.full((4, 1), 0.5)),
    ("pooling", np.array(0.5)),
]


@pytest.mark.parametrize("stage, q_slist", _Q_SLIST_SHAPES)
def test_stages_reject_a_q_slist_that_is_not_one_weight_per_step(stage, q_slist):
    with pytest.raises(ValueError, match="q_slist"):
        if stage == "intersection":
            jointdecode.joint_intersection(q_slist, np.full((2, 2), 0.5),
                                           np.full((2, 3), 1 / 3), _ONES_2X3)
        else:
            guided_phrase_smooth(np.full((4, 2), 0.5), np.full(4, 0.5), q_slist)


def test_intersection_over_shared_rows_equals_the_per_step_intersection():
    rng = np.random.default_rng(14)
    v = _vocab(n_chars=30)
    bl = corpus.make_biasing_list([(2, 3), (4, 5), (6, 7, 8), (3, 9), (11, 12)], v)
    phi = corpus.build_phi(bl, v)
    for u in (1, 2, 9):
        for k in sorted({1, max(1, u // 2), u}):
            pooled = rng.uniform(size=(k, bl.size))
            step_rows = np.sort(rng.integers(0, k, size=u))
            q_slist = rng.uniform(size=u)
            q_tok = rng.dirichlet(np.ones(v.size), size=u)
            for tok in (q_tok, np.asfortranarray(q_tok)):
                want = jointdecode.joint_intersection(q_slist, pooled[step_rows], tok, phi)
                got = jointdecode.joint_intersection(q_slist, pooled, tok, phi, None, step_rows)
                assert got.tobytes() == want.tobytes()
                kept = np.array([0, 2, 3])
                want = jointdecode.joint_intersection(q_slist, pooled[step_rows][:, :3], tok,
                                                      phi, kept)
                got = jointdecode.joint_intersection(q_slist, pooled[:, :3], tok, phi, kept,
                                                     step_rows)
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("step_rows, match", [
    (np.array([0.0, 1.0, 1.0, 0.0]), "integer"),
    (np.zeros((4, 1), dtype=int), "1-d"),
    (np.array([0, 1, 2, 0]), "index the 2 rows"),
    (np.array([0, -1, 1, 0]), "index the 2 rows"),
    (np.array([0, 1, 1]), "disagree"),
])
def test_intersection_rejects_step_rows_that_do_not_index_the_rows(step_rows, match):
    with pytest.raises(ValueError, match=match):
        jointdecode.joint_intersection(np.full(4, 0.5), np.full((2, 2), 0.5),
                                       np.full((4, 3), 1 / 3), _ONES_2X3, None, step_rows)
