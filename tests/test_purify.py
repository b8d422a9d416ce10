import numpy as np
import parent_build
import pytest

from ctxbias import corpus, purify, rng, simulate
from ctxbias.bundle import CorrelationBundle
from ctxbias.harness.config import ExperimentConfig
from ctxbias.harness.corpusgen import generate_corpus
from ctxbias.purify import PurifyParams


def _vocab(n_chars: int = 30, seed: int = 5) -> corpus.Vocabulary:
    return corpus.Vocabulary.build([chr(0x4E00 + i) for i in range(n_chars)], seed=seed)


def _corpus_with_list(n_real: int = 50, seed: int = 0):
    """A biasing list of n_real distinct 2-token phrases over a 30-char vocab."""
    v = _vocab()
    rng = np.random.default_rng(seed)
    seqs = set()
    while len(seqs) < n_real:
        seqs.add(tuple(int(t) for t in rng.integers(2, v.size, size=2)))
    bl = corpus.make_biasing_list(sorted(seqs), v)
    return v, bl


def _utterance_for(bl, gold_indices, uid="u0"):
    tokens = [2, 3, 4]
    spans = []
    for m in gold_indices:
        start = len(tokens)
        tokens.extend(bl.phrases[m])
        spans.append(corpus.Span(start, len(tokens), m))
        tokens.append(5)
    return corpus.Utterance(uid, tuple(tokens), 2.0, tuple(spans))


def _groups(shuffle_seed, round_index, m, group_size):
    order = purify.round_order(shuffle_seed, round_index, m)
    return [order[i : i + group_size] for i in range(0, m, group_size)]


def test_group_phrases_shapes():
    groups = _groups(1, 1, 150, 75)
    assert [len(g) for g in groups] == [75, 75]
    assert sorted(np.concatenate(groups).tolist()) == list(range(150))
    assert [len(g) for g in _groups(1, 1, 10, 75)] == [10]
    a = _groups(9, 2, 40, 7)
    b = _groups(9, 2, 40, 7)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert [len(g) for g in a] == [7, 7, 7, 7, 7, 5]
    # the cached order is the round's seeded shuffle, and read-only
    key = rng.stream_key(9, "round", 2)
    assert np.array_equal(np.concatenate(a), np.random.default_rng(key).permutation(40))
    assert not purify.round_order(9, 2, 40).flags.writeable
    with pytest.raises(ValueError):
        purify.round_order(9, 2, 0)


def test_select_winners_empty_when_no_confident_step():
    q_list = np.full(6, 0.4)
    q_phr = np.random.default_rng(0).uniform(size=(6, 9))
    assert tuple(purify.select_winners(q_list, q_phr, 0.5, 3)) == ()


def test_select_winners_singleton():
    q_list = np.array([0.1, 0.9, 0.2])
    q_phr = np.zeros((3, 5))
    q_phr[1, 3] = 1.0
    assert tuple(purify.select_winners(q_list, q_phr, 0.5, 10)) == (3,)


def _bruteforce_winners(q_list, q_phr, thres, n_top):
    want = set()
    for step in range(len(q_list)):
        if q_list[step] > thres:
            vals = q_list[step] * q_phr[step]
            ranked = sorted(range(q_phr.shape[1]), key=lambda m: (-vals[m], m))
            want.update(m for m in ranked[:n_top] if vals[m] > 0)
    return tuple(sorted(want))


def test_select_winners_matches_bruteforce():
    gen = np.random.default_rng(1)
    for trial in range(60):
        u, g = 7, 25
        q_list = gen.uniform(size=u)
        if trial % 2:  # coarse scores: many ties, also at the n_top-th place
            q_phr = gen.integers(0, 4, size=(u, g)) / 4.0
        else:
            q_phr = gen.uniform(size=(u, g)) * (gen.uniform(size=(u, g)) > 0.3)
        for n_top in (1, 4, g - 1, g, g + 3):
            got = purify.select_winners(q_list, q_phr, 0.5, n_top)
            assert tuple(got) == _bruteforce_winners(q_list, q_phr, 0.5, n_top)


def test_select_winners_stacked_groups_flatten_to_group_times_slots():
    """Groups side by side, the last one short: its missing slots score
    zero, so it competes as a group of its own length."""
    gen = np.random.default_rng(2)
    n_groups, u, slots = 5, 6, 9
    q_list = gen.uniform(size=(n_groups, u))
    q_phr = gen.integers(0, 3, size=(n_groups, u, slots)) / 2.0
    side_by_side = q_phr.transpose(1, 0, 2).reshape(u, -1)
    for short in (0, 1, 4, slots - 1):
        n = n_groups * slots - short
        got = tuple(purify.select_winners(q_list, side_by_side[:, :n], 0.5, 3, slots))
        want = tuple(
            g * slots + s
            for g in range(n_groups)
            for s in _bruteforce_winners(q_list[g], q_phr[g][:, : n - g * slots], 0.5, 3)
        )
        assert got == want, short
    with pytest.raises(ValueError, match="do not make 5 groups of 9 slots"):
        purify.select_winners(q_list, side_by_side[:, :36], 0.5, 3, slots)


def test_select_winners_one_short_group_competes_over_its_own_columns():
    """One group of fewer columns than slots, as gcp hands over a lone
    confident last group: the missing slots would score zero, so the group
    competes over its own columns, ties at the n_top-th place included."""
    gen = np.random.default_rng(3)
    for trial in range(40):
        u, n, slots = 6, int(gen.integers(1, 12)), 12
        q_list = gen.uniform(size=(1, u))
        q_phr = gen.integers(0, 3, size=(u, n)) / 2.0
        for n_top in (1, 3, n, slots - 1, slots + 2):
            got = purify.select_winners(q_list, q_phr, 0.5, n_top, slots)
            assert got.dtype == np.intp
            assert tuple(got) == _bruteforce_winners(q_list[0], q_phr, 0.5, n_top)


def test_zero_noise_purification_keeps_exactly_the_golds():
    v, bl = _corpus_with_list()
    utt = _utterance_for(bl, [3, 17])
    scorer = simulate.SyntheticScorer(utt, bl, v, simulate.NoiseSpec(seed=2))
    params = PurifyParams(group_size=10, n_r=2, shuffle_seed=4)
    res = purify.gcp(bl, scorer, params)
    assert res.kept.indices.tolist() == [0, 3, 17]
    assert res.m_pur == 3
    res_once = purify.ocp(bl, scorer, params)
    assert res_once.kept.indices.tolist() == [0, 3, 17]


def test_gcp_single_group_equals_ocp_bit_for_bit():
    v, bl = _corpus_with_list()
    utt = _utterance_for(bl, [8])
    spec = simulate.NoiseSpec(seed=6, score_jitter_sigma=0.15, distractor_boost=0.5)
    scorer = simulate.SyntheticScorer(utt, bl, v, spec)
    params = PurifyParams(group_size=60, n_r=2, shuffle_seed=11)
    wide = purify.gcp(bl, scorer, params)
    once = purify.ocp(bl, scorer, PurifyParams(group_size=75, n_r=1, shuffle_seed=11))
    assert wide == once
    assert len(wide.rounds) == 1  # everything fits one group, so one round


def test_purify_determinism_and_audit_log():
    v, bl = _corpus_with_list()
    utt = _utterance_for(bl, [8, 21])
    spec = simulate.NoiseSpec(seed=3, score_jitter_sigma=0.2, distractor_boost=0.6)
    scorer = simulate.SyntheticScorer(utt, bl, v, spec)
    params = PurifyParams(group_size=10, n_r=2, shuffle_seed=7)
    a = purify.gcp(bl, scorer, params)
    b = purify.gcp(bl, scorer, params)
    assert a == b
    assert 1 <= len(a.rounds) <= params.n_r
    # each round splits the previous round's survivors into groups
    competing = bl.size - 1
    for rnd in a.rounds:
        assert rnd.groups == -(-competing // params.group_size)
        assert rnd.survivors <= competing
        competing = rnd.survivors
    assert a.rounds[-1].survivors == a.m_pur - 1


def test_round_output_bounds():
    v, bl = _corpus_with_list()
    utt = _utterance_for(bl, [8])
    spec = simulate.NoiseSpec(seed=5, score_jitter_sigma=0.2, distractor_boost=0.8)
    scorer = simulate.SyntheticScorer(utt, bl, v, spec)
    params = PurifyParams(group_size=10, n_top=4, n_r=2, shuffle_seed=13)
    res = purify.gcp(bl, scorer, params)
    prev = bl.size - 1
    for rnd in res.rounds:
        q_list_fullish = scorer.q_list_for(range(1, bl.size))
        n_active = int(np.sum(q_list_fullish > params.thres_list))
        assert rnd.survivors <= rnd.groups * params.n_top * max(n_active, 1)
        assert rnd.survivors <= prev
        prev = rnd.survivors


def _loop_gcp(biasing_list, scorer, params):
    """Group purification as a loop over groups, one scorer call per group
    and a sort per confident step: the reference for the one-pass gcp.
    Returns the kept indices and (groups, survivors) per round."""
    survivors = [int(i) for i in biasing_list.real_indices()]
    rounds = []
    i = 1
    while survivors:
        key = rng.stream_key(params.shuffle_seed, "round", i)
        order = np.random.default_rng(key).permutation(len(survivors))
        local_groups = [
            order[j : j + params.group_size] for j in range(0, len(survivors), params.group_size)
        ]
        merged = set()
        for g in local_groups:
            members = [survivors[j] for j in g.tolist()]
            q_list_g = scorer.q_list_for(members)
            if not np.any(q_list_g > params.thres_list):
                continue
            vals_all = q_list_g[:, None] * scorer.q_phr_for(members)
            for u in np.flatnonzero(q_list_g > params.thres_list):
                vals = vals_all[u]
                pos = np.flatnonzero(vals > 0)
                order = pos[np.lexsort((pos, -vals[pos]))]
                merged.update(members[j] for j in order[: params.n_top])
        survivors = sorted(merged)
        rounds.append((len(local_groups), len(survivors)))
        i += 1
        if i > params.n_r or -(-len(survivors) // params.group_size) <= 1:
            break
    return (0, *survivors), rounds


def test_gcp_matches_loop_oracle_with_every_noise_channel():
    v, bl = _corpus_with_list(n_real=150, seed=3)
    spec = simulate.NoiseSpec(
        seed=8, label_flip_rate=0.1, score_jitter_sigma=0.5,
        confusion_rate=0.4, distractor_boost=0.7,
    )
    checked = 0
    for golds in ([], [4], [9, 120], [33, 77, 140]):
        utt = _utterance_for(bl, golds, uid=f"u{len(golds)}")
        scorer = simulate.SyntheticScorer(utt, bl, v, spec)
        for group_size in (3, 10, 23, 75, 149, 150, 400):
            for n_r in (1, 2, 3):
                for n_top in (1, 4):
                    params = PurifyParams(group_size=group_size, n_r=n_r, n_top=n_top,
                                          shuffle_seed=group_size + n_r)
                    res = purify.gcp(bl, scorer, params)
                    kept, rounds = _loop_gcp(bl, scorer, params)
                    assert res.kept.indices.tolist() == list(kept)
                    assert [tuple(r) for r in res.rounds] == rounds
                    checked += len(rounds) > 1
        once = purify.ocp(bl, scorer, PurifyParams(n_top=4))
        want = _loop_gcp(bl, scorer, PurifyParams(group_size=150, n_r=1, n_top=4))[0]
        assert once.kept.indices.tolist() == list(want)
    assert checked  # some runs went past the first round

    # the benchmark's purify_stress noise on the generated M=1196 list, where
    # the first round often finds every group confident, so the round takes
    # its members as they stand and reads the short last group apart
    config = ExperimentConfig(n_utterances=8, confusion_rate=0.3, distractor_boost=0.3,
                              score_jitter_sigma=0.5)
    corp = generate_corpus(config)
    bl = corp.lists[1196]
    phi = corpus.build_phi(bl, corp.vocabulary)
    params = config.purify_for(0)
    all_confident = 0
    for utt in corp.utterances:
        scorer = simulate.SyntheticScorer(utt, bl, corp.vocabulary, config.noise_for(0), phi)
        members = bl.real_indices()[purify.round_order(params.shuffle_seed, 1, bl.size - 1)]
        q_list = scorer.q_list_groups(members, params.group_size)
        all_confident += bool((q_list > params.thres_list).any(axis=1).all())
        res = purify.gcp(bl, scorer, params)
        kept, rounds = _loop_gcp(bl, scorer, params)
        assert [tuple(r) for r in res.rounds] == rounds
        assert res.kept.indices.tolist() == list(kept) and not res.kept.indices.flags.writeable
        once = purify.ocp(bl, scorer, params)
        want = _loop_gcp(bl, scorer, PurifyParams(group_size=bl.size - 1, n_r=1, shuffle_seed=0))[0]
        assert once.kept.indices.tolist() == list(want)
    assert all_confident


class _Corrupted:
    """A scorer whose answers are damaged by ``damage(name, array)``."""

    def __init__(self, scorer, damage):
        self.scorer, self.damage = scorer, damage

    def q_list_groups(self, members, group_size):
        return self.damage("list", self.scorer.q_list_groups(members, group_size))

    def q_phr_for(self, members):
        return self.damage("phr", self.scorer.q_phr_for(members))


def _set(where, value):
    def damage(name, a):
        if name == where:
            a = a.copy()
            a.flat[0] = value
        return a

    return damage


@pytest.mark.parametrize(
    "damage",
    [
        _set("list", np.nan),
        _set("list", 5.0),
        _set("list", -0.5),
        _set("phr", np.nan),
        _set("phr", np.inf),
        _set("phr", 1.5),
        lambda name, a: a[:-1] if name == "list" else a,  # a group missing
        lambda name, a: a[0] if name == "list" else a,  # one row, not (G, U)
        lambda name, a: a[:-1] if name == "phr" else a,  # a step missing
        lambda name, a: a[:, 1:] if name == "phr" else a,  # a member missing
    ],
    ids=["list-nan", "list-5", "list-negative", "phr-nan", "phr-inf", "phr-1.5",
         "list-rows", "list-1d", "phr-steps", "phr-members"],
)
def test_gcp_rejects_bad_scorer_answers(damage):
    v, bl = _corpus_with_list()
    utt = _utterance_for(bl, [8])
    scorer = simulate.SyntheticScorer(utt, bl, v, simulate.NoiseSpec(seed=1))
    params = PurifyParams(group_size=10)
    kept = purify.gcp(bl, _Corrupted(scorer, lambda name, a: a), params).kept
    assert kept.indices.tolist() == [0, 8]
    with pytest.raises(ValueError):
        purify.gcp(bl, _Corrupted(scorer, damage), params)
    with pytest.raises(ValueError):
        purify.ocp(bl, _Corrupted(scorer, damage), params)


def test_no_bias_always_kept_even_with_no_winners():
    v, bl = _corpus_with_list()
    utt = _utterance_for(bl, [])  # no gold spans, no confident steps
    scorer = simulate.SyntheticScorer(utt, bl, v, simulate.NoiseSpec(seed=1))
    res = purify.gcp(bl, scorer, PurifyParams())
    assert res.kept.indices.tolist() == [0]
    assert res.m_pur == 1


def test_winner_count_bound_single_span():
    v, bl = _corpus_with_list()
    utt = _utterance_for(bl, [12])
    spec = simulate.NoiseSpec(seed=9, distractor_boost=0.9)
    scorer = simulate.SyntheticScorer(utt, bl, v, spec)
    res = purify.ocp(bl, scorer, PurifyParams(n_top=10))
    # one 2-token span: at most 10 winners per confident step, plus no-bias
    assert res.m_pur <= 1 + 10 * 2
    assert res.kept.members[12]


def test_restrict_phi():
    v, bl = _corpus_with_list(n_real=6)
    phi = corpus.build_phi(bl, v)
    sub = purify.restrict_phi(phi, range(bl.size))
    assert np.array_equal(sub.matrix, phi.matrix)
    kept = [0, 2, 5]
    sub = purify.restrict_phi(phi, kept)
    rebuilt = corpus.build_phi(bl.sublist(kept), v)
    assert np.array_equal(sub.matrix, rebuilt.matrix)
    # the sublist's rule, with the same messages: the no-bias row first,
    # rows in range, no row twice
    for bad, named in (([], "first kept index is missing"), ([2, 3], "first kept index is 2,"),
                       ([0, -1], "index -1 is outside 0..6"), ([0, 99], "index 99 is outside"),
                       (range(8), "index 7 is outside"), ([0, 2, 2], "index 2 repeats"),
                       ([0, 0], "index 0 repeats"), ([0, 5, 2, 2, 5], "index 5 repeats"),
                       ((0, 1.0), "must be integers"), ([0, 1.5], "must be integers")):
        with pytest.raises(ValueError, match=named):
            purify.restrict_phi(phi, bad)
        with pytest.raises(ValueError, match=named):
            bl.sublist(bad)


def test_kept_by_token_equals_the_restricted_mask_index():
    """The purified decode's token index, gathered from the full mask's
    cached nonzeros, equals the index of ``restrict_phi``'s copied rows
    element for element: for the no-bias entry alone, every index, and
    seeded random subsets, in order and shuffled."""
    corp = generate_corpus(ExperimentConfig(n_utterances=4))
    gen = np.random.default_rng(6)
    for m in (51, 1196):
        bl = corp.lists[m]
        phi = corpus.build_phi(bl, corp.vocabulary)
        kept_sets = [(0,), tuple(range(m))]
        for size in (1, 5, 30, 120, m - 1):
            rest = gen.permutation(np.arange(1, m))[:size]
            kept_sets += [(0, *np.sort(rest).tolist()), (0, *rest.tolist())]
        for kept in kept_sets:
            got = phi._kept_by_token(corpus.KeptSet.of(kept, m).indices)
            for a, b in zip(got, purify.restrict_phi(phi, kept).by_token):
                assert a.dtype == b.dtype and np.array_equal(a, b), (m, len(kept))


def test_params_validation():
    with pytest.raises(ValueError):
        PurifyParams(group_size=0)
    with pytest.raises(ValueError):
        PurifyParams(thres_list=1.5)
    for name in ("group_size", "n_r", "n_top", "shuffle_seed"):
        for value in (2.5, 3.0, True):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                PurifyParams(**{name: value})
    for value in (True, np.False_, "0.5"):
        with pytest.raises(ValueError, match="thres_list must be a real number"):
            PurifyParams(thres_list=value)


def test_restriction_equals_its_from_scratch_builds():
    """With every noise channel on, for the kept sets gcp and ocp choose and
    for random ones: the restricted mask and its token index, the sublist's
    scan index and the kept bundle all equal what is built from scratch for
    the sublist, and the kept bundle passes the full bundle contract."""
    config = ExperimentConfig(
        n_utterances=12, two_span_rate=0.5, label_flip_rate=0.1, score_jitter_sigma=0.5,
        confusion_rate=0.3, distractor_boost=0.5,
    )
    corp = generate_corpus(config)
    bl = corp.lists[601]
    phi = corpus.build_phi(bl, corp.vocabulary)
    gen = np.random.default_rng(5)
    for utt in corp.utterances:
        scorer = simulate.SyntheticScorer(utt, bl, corp.vocabulary, config.noise_for(1), phi)
        parent = parent_build.SyntheticScorer(utt, bl, corp.vocabulary, config.noise_for(1), phi)
        full = scorer.bundle()
        CorrelationBundle(q_list=full.q_list, q_phr=full.q_phr, q_tok=full.q_tok, p_bb=full.p_bb)
        random_kept = gen.permutation(np.arange(1, bl.size))[: int(gen.integers(0, 200))]
        for kept in (
            purify.gcp(bl, scorer, config.purify_for(1)).kept.indices.tolist(),
            purify.ocp(bl, scorer, config.purify_for(1)).kept.indices.tolist(),
            (0, *random_kept.tolist()),
            (0, *np.sort(random_kept).tolist()),
        ):
            sub = bl.sublist(kept)
            validated = corpus.BiasingList(phrases=sub.phrases, no_bias_token=bl.no_bias_token)
            assert sub._trie == validated._trie
            restricted = purify.restrict_phi(phi, kept)
            rebuilt = corpus.build_phi(validated, corp.vocabulary)
            assert np.array_equal(restricted.matrix, rebuilt.matrix)
            token_of, phrases = np.nonzero(rebuilt.matrix.T)
            tokens, starts = np.unique(token_of, return_index=True)
            for got, want in zip(restricted.by_token, (tokens, starts, phrases)):
                assert np.array_equal(got, want)
            bundle = scorer.bundle(kept)
            checked = CorrelationBundle(
                q_list=bundle.q_list, q_phr=bundle.q_phr, q_tok=bundle.q_tok, p_bb=bundle.p_bb
            )
            ev = parent._ev_list[:, list(kept)].max(axis=1)
            assert checked.q_list.tobytes() == parent._apply_list_noise(ev).tobytes()
            assert checked.q_phr.tobytes() == full.q_phr[:, list(kept)].tobytes()
            assert checked.q_tok.tobytes() == full.q_tok.tobytes()
            assert checked.p_bb.tobytes() == full.p_bb.tobytes()
