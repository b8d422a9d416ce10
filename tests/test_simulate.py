from types import SimpleNamespace

import numpy as np
import parent_build
import pytest

from ctxbias import corpus, jointdecode, rng, simulate
from ctxbias.bundle import CorrelationBundle, load_bundle, save_bundle
from ctxbias.harness.config import ExperimentConfig
from ctxbias.harness.corpusgen import generate_corpus
from ctxbias.reference.embeddings import synth_embeddings
from ctxbias.reference.losses import make_labels
from ctxbias.smoothing import SmoothingParams


def _vocab(n_chars: int = 20, seed: int = 3) -> corpus.Vocabulary:
    return corpus.Vocabulary.build([chr(0x4E00 + i) for i in range(n_chars)], seed=seed)


def _setup(spans=((2, 4, 1),), n_utt_tokens: int = 8):
    """Small fixture: vocab, a 4-phrase list, one utterance with given spans."""
    v = _vocab()
    bl = corpus.make_biasing_list([(2, 3), (4, 5, 6), (3, 4), (7, 8)], v)
    tokens = list(range(9, 9 + n_utt_tokens))
    for start, end, m in spans:
        tokens[start:end] = bl.phrases[m]
    utt = corpus.Utterance(
        "u0", tuple(tokens), 2.0, tuple(corpus.Span(*s) for s in spans)
    )
    return v, bl, utt


def test_make_labels_single_span():
    v, bl, utt = _setup(spans=((2, 4, 1),))
    labels = make_labels(utt, bl)
    expect = np.zeros(8, dtype=np.uint8)
    expect[2:4] = 1
    assert np.array_equal(labels.y_list, expect)
    assert labels.y_phr.tolist() == [0, 1, 0, 0, 0]
    assert np.array_equal(labels.y_tok, np.asarray(utt.tokens))


def test_make_labels_no_span_points_at_no_bias():
    v, bl, utt = _setup(spans=())
    labels = make_labels(utt, bl)
    assert labels.y_list.sum() == 0
    assert labels.y_phr.tolist() == [1, 0, 0, 0, 0]


def test_make_labels_two_spans():
    v, bl, utt = _setup(spans=((0, 2, 1), (4, 7, 2)))
    labels = make_labels(utt, bl)
    assert labels.y_phr.tolist() == [0, 1, 1, 0, 0]
    assert labels.y_list.tolist() == [1, 1, 0, 0, 1, 1, 1, 0]


def test_make_labels_rejects_foreign_span():
    v, bl, utt = _setup(spans=((2, 4, 1),))
    short = bl.sublist([0])
    with pytest.raises(ValueError):
        make_labels(utt, short)


def test_embeddings_oracle_alignment_and_determinism():
    v, bl, utt = _setup()
    spec = simulate.NoiseSpec(seed=11)
    bank = synth_embeddings(utt, bl, spec, d=16)
    assert bank.acoustic.shape[1] == 16
    gold = bank.phrase[1]
    for u in (2, 3):
        cos = bank.acoustic[u] @ gold / (
            np.linalg.norm(bank.acoustic[u]) * np.linalg.norm(gold)
        )
        assert cos >= 0.9
    again = synth_embeddings(utt, bl, spec, d=16)
    assert np.array_equal(bank.acoustic, again.acoustic)
    assert np.array_equal(bank.phrase, again.phrase)
    with pytest.raises(ValueError):
        synth_embeddings(utt, bl, spec, d=4)


def test_embeddings_degrade_with_jitter():
    v, bl, utt = _setup()

    def mean_gold_cos(sigma):
        total = 0.0
        for seed in range(100):
            bank = synth_embeddings(
                utt, bl, simulate.NoiseSpec(seed=seed, score_jitter_sigma=sigma)
            )
            a = bank.acoustic[2] / np.linalg.norm(bank.acoustic[2])
            b = bank.phrase[1] / np.linalg.norm(bank.phrase[1])
            total += float(a @ b)
        return total / 100

    sims = [mean_gold_cos(s) for s in (0.0, 0.25, 0.5, 1.0)]
    assert sims[0] == pytest.approx(1.0)
    assert all(a > b for a, b in zip(sims, sims[1:]))


def test_backbone_clean_rows_decode_reference():
    v, bl, utt = _setup()
    p = simulate.synth_backbone(utt, simulate.NoiseSpec(seed=5), v)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(p >= 0)
    assert tuple(np.argmax(p, axis=1)) == utt.tokens


def test_backbone_full_confusion_flips_span_steps():
    v, bl, utt = _setup(spans=((2, 4, 1),))
    p = simulate.synth_backbone(utt, simulate.NoiseSpec(seed=5, confusion_rate=1.0), v)
    hyp = np.argmax(p, axis=1)
    refs = np.asarray(utt.tokens)
    assert hyp[2] != refs[2] and hyp[3] != refs[3]
    # confusion lands on the seeded partner, and only span steps move
    assert hyp[2] == v.confusable[refs[2]]
    outside = [u for u in range(8) if u not in (2, 3)]
    assert np.array_equal(hyp[outside], refs[outside])


def test_backbone_ignores_jitter():
    v, bl, utt = _setup()
    a = simulate.synth_backbone(utt, simulate.NoiseSpec(seed=5), v)
    b = simulate.synth_backbone(utt, simulate.NoiseSpec(seed=5, score_jitter_sigma=0.8), v)
    assert np.array_equal(a, b)


def test_zero_noise_bundle_is_the_oracle():
    v, bl, utt = _setup(spans=((2, 4, 1),))
    labels = make_labels(utt, bl)
    bundle = simulate.SyntheticScorer(utt, bl, v, simulate.NoiseSpec(seed=9)).bundle()
    assert np.array_equal(bundle.q_list, labels.y_list.astype(float))
    for u in (2, 3):
        row = bundle.q_phr[u]
        assert row[1] == 1.0
        assert row[[0, 2, 3, 4]].sum() == 0.0
    off_span = bundle.q_phr[[0, 1, 4, 5, 6, 7]]
    assert np.array_equal(off_span[:, 0], np.ones(6))
    assert off_span[:, 1:].sum() == 0.0
    assert tuple(np.argmax(bundle.q_tok, axis=1)) == utt.tokens
    assert tuple(np.argmax(bundle.p_bb, axis=1)) == utt.tokens


def test_confused_token_rows_keep_reference_on_top():
    # the token scorer sees the biasing context, so confusion narrows its
    # margin without flipping the argmax; the backbone is the one that flips
    v, bl, utt = _setup(spans=((2, 4, 1),))
    spec = simulate.NoiseSpec(seed=5, confusion_rate=1.0)
    scorer = simulate.SyntheticScorer(utt, bl, v, spec)
    bundle = scorer.bundle()
    refs = np.asarray(utt.tokens)
    partners = np.asarray(v.confusable)[refs]
    for u in (2, 3):
        assert bundle.q_tok[u, refs[u]] == pytest.approx(simulate.TOKEN_CONFUSED_REF)
        assert bundle.q_tok[u, partners[u]] == pytest.approx(
            simulate.TOKEN_CONFUSED_PARTNER
        )
        assert np.argmax(bundle.p_bb[u]) == partners[u]
    assert tuple(np.argmax(bundle.q_tok, axis=1)) == utt.tokens


def test_full_label_flip_inverts_q_list():
    v, bl, utt = _setup(spans=((2, 4, 1),))
    labels = make_labels(utt, bl)
    spec = simulate.NoiseSpec(seed=9, label_flip_rate=1.0)
    bundle = simulate.SyntheticScorer(utt, bl, v, spec).bundle()
    assert np.array_equal(bundle.q_list, 1.0 - labels.y_list.astype(float))


def test_span_scores_stay_high_under_mild_jitter():
    # Monte-Carlo calibration: mean span-step list score over 1000 seeds
    v, bl, utt = _setup(spans=((2, 4, 1),))
    total, count = 0.0, 0
    for seed in range(1000):
        scorer = simulate.SyntheticScorer(
            utt, bl, v, simulate.NoiseSpec(seed=seed, score_jitter_sigma=0.1)
        )
        q = scorer.q_list_for(range(bl.size))
        total += q[2] + q[3]
        count += 2
    assert total / count >= 0.8


def test_bundle_invariants_under_heavy_noise():
    v, bl, utt = _setup(spans=((2, 4, 1), (5, 8, 2)))
    spec = simulate.NoiseSpec(
        seed=21,
        label_flip_rate=0.3,
        score_jitter_sigma=0.4,
        confusion_rate=0.6,
        distractor_boost=0.8,
    )
    bundle = simulate.SyntheticScorer(utt, bl, v, spec).bundle()
    assert np.allclose(bundle.q_tok.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(bundle.p_bb.sum(axis=1), 1.0, atol=1e-9)
    assert bundle.q_list.min() >= 0 and bundle.q_list.max() <= 1
    assert bundle.q_phr.min() >= 0 and bundle.q_phr.max() <= 1
    again = simulate.SyntheticScorer(utt, bl, v, spec).bundle()
    for name in ("q_list", "q_phr", "q_tok", "p_bb"):
        assert np.array_equal(getattr(bundle, name), getattr(again, name))
    # q_tok and p_bb are the scorer's own arrays, shared by every bundle
    for arr in (bundle.q_tok, bundle.p_bb):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0.5
        with pytest.raises(ValueError):
            arr.flags.writeable = True


def test_distractor_boost_raises_token_sharers_only():
    v, bl, utt = _setup(spans=((2, 4, 1),))  # gold phrase 1 = (2, 3)
    spec = simulate.NoiseSpec(seed=4, distractor_boost=0.5)
    scorer = simulate.SyntheticScorer(utt, bl, v, spec)
    q_phr = scorer.q_phr_for(range(bl.size))
    # phrase 3 = (3, 4) shares a token with gold; phrase 4 = (7, 8) does not
    assert q_phr[2:4, 3].max() > 0
    assert q_phr[2:4, 4].sum() == 0.0
    assert q_phr[2:4, 3].max() <= 0.5  # bounded by boost * frac^3 < boost


def test_group_scores_do_not_depend_on_other_groups():
    v, bl, utt = _setup(spans=((2, 4, 1),))
    spec = simulate.NoiseSpec(seed=13, score_jitter_sigma=0.2, distractor_boost=0.4)
    scorer = simulate.SyntheticScorer(utt, bl, v, spec)
    ql_a, qp_a = scorer.q_list_for([1, 3]), scorer.q_phr_for([0, 1, 3])
    scorer.q_list_for([2, 4])  # interleave another group
    scorer.q_phr_for([0, 2, 4])
    assert np.array_equal(ql_a, scorer.q_list_for([1, 3]))
    assert np.array_equal(qp_a, scorer.q_phr_for([0, 1, 3]))
    # a group scores the same alone and batched with others
    assert np.array_equal(scorer.q_list_groups([2, 4, 1, 3], 2)[1], ql_a)
    # phrase columns are slices of the full-list scores
    full = scorer.q_phr_for(range(bl.size))
    assert np.array_equal(qp_a, full[:, [0, 1, 3]])


def test_group_without_gold_scores_near_zero():
    v, bl, utt = _setup(spans=((2, 4, 1),))
    scorer = simulate.SyntheticScorer(utt, bl, v, simulate.NoiseSpec(seed=2))
    ql = scorer.q_list_for([2, 4])
    assert ql[2] == 0.0 and ql[3] == 0.0
    assert scorer.q_list_for([1, 4])[2] == 1.0
    qp_gold = scorer.q_phr_for([0, 1, 4])
    assert np.argmax(qp_gold[2]) == 1  # gold column right after no-bias
    ql_groups = scorer.q_list_groups([2, 4, 1, 4], 2)
    assert ql_groups[0, 2] == 0.0 and ql_groups[1, 2] == 1.0


def test_q_list_groups_rows_equal_q_list_for():
    # every noise channel on, a long list, ragged last groups, groups with
    # and without evidence-bearing members, and two-span utterances whose
    # golds land in different groups
    config = ExperimentConfig(
        n_utterances=30, two_span_rate=0.5, label_flip_rate=0.1, score_jitter_sigma=0.4,
        confusion_rate=0.3, distractor_boost=0.5,
    )
    corp = generate_corpus(config)
    bl = corp.lists[601]
    rng = np.random.default_rng(3)
    for utt in corp.utterances:
        scorer = simulate.SyntheticScorer(utt, bl, corp.vocabulary, config.noise_for(1))
        parent = parent_build.SyntheticScorer(utt, bl, corp.vocabulary, config.noise_for(1))
        members = rng.permutation(np.arange(1, bl.size))[: int(rng.integers(1, bl.size))]
        for group_size in (1, 7, 75, members.size, members.size + 3):
            rows = scorer.q_list_groups(members, group_size)
            assert rows.shape == (-(-members.size // group_size), utt.n_steps)
            for g, row in enumerate(rows):
                group = members[g * group_size : (g + 1) * group_size]
                assert np.array_equal(row, scorer.q_list_for(group))
                # the slow form: noise applied to the group's column max, as
                # the parent build's dense evidence gives it
                slow = parent._apply_list_noise(parent._ev_list[:, group].max(axis=1))
                assert np.array_equal(row, slow)
    with pytest.raises(ValueError):
        scorer.q_list_groups([], 3)
    with pytest.raises(ValueError):
        scorer.q_list_groups([1, 2], 0)
    with pytest.raises(ValueError, match="nonempty"):
        scorer.q_list_for([])


def test_bundle_file_round_trip(tmp_path):
    v, bl, utt = _setup(spans=((2, 4, 1),))
    spec = simulate.NoiseSpec(seed=1, score_jitter_sigma=0.1)
    bundle = simulate.SyntheticScorer(utt, bl, v, spec).bundle()
    # a path without the .npz suffix is written and read as given
    for path in (tmp_path / "bundle.npz", tmp_path / "bundle", str(tmp_path / "plain")):
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        for name in ("q_list", "q_phr", "q_tok", "p_bb"):
            assert np.array_equal(getattr(bundle, name), getattr(loaded, name))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle", "bundle.npz", "plain"]


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        simulate.NoiseSpec(confusion_rate=1.5)
    with pytest.raises(ValueError):
        simulate.NoiseSpec(score_jitter_sigma=-0.1)


def test_prefix_slice_of_longest_scorer_matches_fresh_scorer():
    """A scorer built at the longest list, sliced to a prefix, gives exactly
    what a scorer built at that prefix gives; the sweep runner relies on it."""
    from ctxbias import purify
    cfg = ExperimentConfig(n_utterances=6, list_lengths=(51, 201, 601), group_size=75)
    corp = generate_corpus(cfg)
    spec = simulate.NoiseSpec(seed=4, label_flip_rate=0.1, score_jitter_sigma=0.3,
                              confusion_rate=0.3, distractor_boost=0.3)
    params = purify.PurifyParams(group_size=75, shuffle_seed=4)
    longest = corp.lists[601]
    for utt in corp.utterances:
        big = simulate.SyntheticScorer(utt, longest, corp.vocabulary, spec)
        for m in (51, 201, 601):
            bl = corp.lists[m]
            fresh = simulate.SyntheticScorer(utt, bl, corp.vocabulary, spec)
            a, b = big.bundle(np.arange(m)), fresh.bundle()
            for name in ("q_list", "q_phr", "q_tok", "p_bb"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), (utt.uid, m, name)
            for pick in (purify.gcp, purify.ocp):
                assert pick(bl, big, params).kept == pick(bl, fresh, params).kept
    # a kept set means what it means to the sublist: no wrapped negative
    # index, no bare IndexError past the end, no missing no-bias entry
    for bad, named in (([], "first kept index is missing"), ([2, 3], "first kept index is 2,"),
                       ([0, -1], "index -1 is outside 0..600"), ([0, 601], "index 601 is outside"),
                       (np.arange(602), "index 601 is outside"), ([0, 2, 2], "index 2 repeats"),
                       ([0, 5, 2, 2, 5], "index 5 repeats")):
        with pytest.raises(ValueError, match=named):
            big.bundle(bad)
        with pytest.raises(ValueError, match=named):
            longest.sublist(bad)
    with pytest.raises(ValueError, match=r"shape \(1, 2\)"):
        big.bundle(np.zeros((1, 2), dtype=int))


def _dense_distractors(ev, scorer):
    """The full-field formula, kept as the oracle for ``_apply_distractors``:
    every (U, M) cell drawn, every span checked against the whole bool mask."""
    spec, utt = scorer.spec, scorer.utt
    u, m = ev.shape
    mat = scorer.phi.matrix.astype(bool)
    set_sizes = np.maximum(mat.sum(axis=1), 1)
    draws = rng.uniform_field(rng.stream_key(spec.seed, "dst", utt.uid), rng.grid_index(u, m))
    r = 1.0 - draws
    log_boost = np.log(spec.distractor_boost)
    for s in utt.spans:
        shared = (mat & mat[s.phrase]).sum(axis=1)
        frac = shared / set_sizes
        sharers = (shared > 0) & (np.arange(m) != s.phrase)
        sharers[0] = False
        cols = np.flatnonzero(sharers)
        if cols.size == 0:
            continue
        vals = np.exp(r[s.start : s.end, cols] * log_boost) * frac[cols] ** 3
        block = ev[s.start : s.end, cols]
        np.maximum(block, vals, out=block)
        ev[s.start : s.end, cols] = block


def test_distractors_match_dense_field_formula():
    """Drawing only the read cells gives the dense formula's bits, and so do
    the phrase scores built on top of them with every noise channel on."""
    cfg = ExperimentConfig(n_utterances=40, list_lengths=(51, 1196))
    corp = generate_corpus(cfg)
    spec = simulate.NoiseSpec(seed=6, label_flip_rate=0.1, score_jitter_sigma=0.3,
                              confusion_rate=0.3, distractor_boost=0.3)
    checked = 0
    for m in (51, 1196):
        bl = corp.lists[m]
        phi = corpus.build_phi(bl, corp.vocabulary)
        for utt in corp.utterances:
            scorer = simulate.SyntheticScorer(utt, bl, corp.vocabulary, spec, phi)
            parent = parent_build.SyntheticScorer(utt, bl, corp.vocabulary, spec, phi)
            ev = parent._ev_list.copy()
            ev[:, 0] = 1.0 - parent._y_list
            want = ev.copy()
            _dense_distractors(want, scorer)
            scorer._apply_distractors(ev)
            assert ev.tobytes() == want.tobytes(), (m, utt.uid)
            z = rng.normal_field(rng.stream_key(spec.seed, "qphr", utt.uid),
                                 rng.grid_index(utt.n_steps, m))
            base = np.log(np.clip(want, simulate.PHRASE_JITTER_FLOOR, simulate.JITTER_CAP))
            base -= np.log1p(-np.clip(want, simulate.PHRASE_JITTER_FLOOR, simulate.JITTER_CAP))
            x = base + simulate.PHRASE_JITTER_GAIN * spec.score_jitter_sigma * z
            q_phr = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                             np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
            assert scorer.q_phr_for(np.arange(m)).tobytes() == q_phr.tobytes(), (m, utt.uid)
            checked += bool(utt.spans)
    assert checked > 20  # the span utterances are where the distractors act


def _contract_case():
    """A valid bundle's arrays (U=4, M=3, V=4, every value exact in float32)
    with a list and mask that fit it."""
    v = _vocab(n_chars=2)  # V = 4: two reserved entries and two characters
    bl = corpus.make_biasing_list([(2, 3), (3, 2)], v)
    arrays = {
        "q_list": np.array([0.0, 0.5, 1.0, 0.25]),
        "q_phr": np.full((4, 3), 0.25),
        "q_tok": np.full((4, 4), 0.25),
        "p_bb": np.tile([0.5, 0.25, 0.125, 0.125], (4, 1)),
    }
    return bl, corpus.build_phi(bl, v), arrays


def _put(name, fn):
    return lambda a: {**a, name: fn(a[name])}


def _poke(name, index, value):
    def fn(x):
        x = x.copy()
        x[index] = value
        return x

    return _put(name, fn)


MALFORMED_BUNDLES = {
    "q_list-2d": (_put("q_list", lambda x: np.stack([x, x], axis=1)), "q_list"),
    "q_list-0d": (_put("q_list", lambda x: x[1]), "q_list"),
    "q_phr-1d": (_put("q_phr", lambda x: x[:, 0]), "q_phr"),
    "q_phr-3d": (_put("q_phr", lambda x: x[..., None]), "q_phr"),
    "q_tok-1d": (_put("q_tok", lambda x: x[0]), "q_tok"),
    "p_bb-3d": (_put("p_bb", lambda x: x[None]), "p_bb"),
    "q_list-bool": (_put("q_list", lambda x: x > 0.3), "q_list"),
    "q_phr-int": (_put("q_phr", lambda x: (x * 4).astype(np.int64)), "q_phr"),
    "q_tok-uint8": (_put("q_tok", lambda x: x.astype(np.uint8)), "q_tok"),
    "p_bb-complex": (_put("p_bb", lambda x: x.astype(complex)), "p_bb"),
    "no-steps": (lambda a: {k: x[:0] for k, x in a.items()}, "q_list"),
    "no-phrase-column": (_put("q_phr", lambda x: x[:, :0]), "q_phr"),
    "q_phr-steps": (_put("q_phr", lambda x: x[:-1]), "q_phr"),
    "q_tok-steps": (_put("q_tok", lambda x: x[:-1]), "q_tok"),
    "p_bb-vocabulary": (_put("p_bb", lambda x: x[:, :-1]), "p_bb"),
    "q_list-nan": (_poke("q_list", 1, np.nan), "q_list"),
    "q_phr-inf": (_poke("q_phr", (0, 1), np.inf), "q_phr"),
    "q_phr--inf": (_poke("q_phr", (0, 1), -np.inf), "q_phr"),
    "q_list-negative": (_poke("q_list", 0, -0.25), "q_list"),
    "q_phr-above-1": (_poke("q_phr", (2, 2), 1.5), "q_phr"),
    "q_tok-row-off": (_poke("q_tok", (3, 0), 0.25 + 2e-9), "q_tok"),
    "p_bb-negative": (_poke("p_bb", (1, 1), -0.25), "p_bb"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BUNDLES))
def test_malformed_bundles_are_rejected_where_they_enter(case, tmp_path):
    """Each malformed bundle fails with a ValueError that names the array:
    built directly, loaded from a file, or handed to either decoder as any
    object carrying the four arrays."""
    bl, phi, arrays = _contract_case()
    damage, name = MALFORMED_BUNDLES[case]
    bad = damage(arrays)
    with pytest.raises(ValueError, match=name):
        CorrelationBundle(**bad)
    path = tmp_path / "bad.npz"
    np.savez(path, **bad)
    with pytest.raises(ValueError, match=name):
        load_bundle(path)
    with pytest.raises(ValueError, match=name):
        jointdecode.decode_utterance(SimpleNamespace(**bad), bl, phi, SmoothingParams())
    with pytest.raises(ValueError, match=name):
        jointdecode.attention_decode(SimpleNamespace(**bad), bl, phi)


def test_bundle_contract_accepts_and_casts_real_floats(tmp_path):
    bl, phi, arrays = _contract_case()
    assert CorrelationBundle(**arrays).q_phr is arrays["q_phr"]  # no copy
    narrow = {k: x.astype(np.float32) for k, x in arrays.items()}
    bundle = CorrelationBundle(**narrow)
    for name, x in arrays.items():
        assert getattr(bundle, name).dtype == np.float64
        assert np.array_equal(getattr(bundle, name), x)
    # a row 1e-9 off still sums to 1 within the tolerance
    near = {**arrays, "q_tok": arrays["q_tok"].copy()}
    near["q_tok"][3, 0] += 5e-10
    CorrelationBundle(**near)
    path = tmp_path / "narrow.npz"
    np.savez(path, **narrow)
    loaded = load_bundle(path)
    assert loaded.p_bb.dtype == np.float64
    want = jointdecode.decode_utterance(bundle, bl, phi, SmoothingParams())
    got = jointdecode.decode_utterance(SimpleNamespace(**narrow), bl, phi, SmoothingParams())
    assert got.hyp_final == want.hyp_final and np.array_equal(got.q_casr, want.q_casr)


def test_decoders_reject_bundles_that_do_not_fit_the_list_or_mask():
    bl, phi, arrays = _contract_case()
    bundle = CorrelationBundle(**arrays)
    longer = corpus.make_biasing_list([(2, 3), (3, 2), (2, 2)], _vocab(n_chars=2))
    wider = corpus.PhiMask(np.zeros((3, 5), dtype=np.uint8))
    for decode in (
        lambda b, bl_, phi_: jointdecode.decode_utterance(b, bl_, phi_, SmoothingParams()),
        jointdecode.attention_decode,
    ):
        with pytest.raises(ValueError, match="q_phr"):
            decode(bundle, longer, corpus.build_phi(longer, _vocab(n_chars=2)))
        with pytest.raises(ValueError, match="q_tok"):
            decode(bundle, bl, wider)
