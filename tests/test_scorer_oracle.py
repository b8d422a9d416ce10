"""The lean scorer build and the fast value check against the parent build,
kept verbatim in ``parent_build``: every field bit for bit, every check
outcome and message the same. The scorer draws a phrase column the first
time a query reads it; the parent draws every column when it is built, so
it is the oracle for every answer, whatever was asked before."""

import numpy as np
import parent_build
import pytest

from ctxbias import bundle as contract
from ctxbias import corpus, purify, rng, simulate
from ctxbias.harness.config import ExperimentConfig
from ctxbias.harness.corpusgen import generate_corpus

SPECS = {
    "oracle": simulate.NoiseSpec(seed=5),
    "flip": simulate.NoiseSpec(seed=5, label_flip_rate=0.3),
    "jitter": simulate.NoiseSpec(seed=5, score_jitter_sigma=0.4),
    "confusion": simulate.NoiseSpec(seed=5, confusion_rate=0.7),
    "distractors": simulate.NoiseSpec(seed=5, distractor_boost=0.5),
    "all": simulate.NoiseSpec(seed=6, label_flip_rate=0.2, score_jitter_sigma=0.3,
                              confusion_rate=0.6, distractor_boost=0.4),
}


@pytest.fixture(scope="module")
def corp():
    return generate_corpus(ExperimentConfig(n_utterances=4))


def _utterances(u, phrases, gen, vocab):
    """Utterances of ``u`` steps: no span, a span at step 0, a span ending at
    step u, and two spans (one at each end) when both fit; ``phrases`` maps
    list indices to token tuples the spans may use."""
    fill = gen.integers(2, vocab.size, size=u).tolist()
    by_len = {}
    for idx, toks in phrases.items():
        if len(toks) <= u:
            by_len.setdefault(len(toks), []).append(idx)
    shapes = [()]
    fits = [i for lst in by_len.values() for i in lst]
    if fits:
        p, q = (int(i) for i in gen.choice(fits, size=2))
        shapes.append(((0, p),))
        shapes.append(((u - len(phrases[q]), q),))
        if len(phrases[p]) + len(phrases[q]) <= u:
            shapes.append(((0, p), (u - len(phrases[q]), q)))
    for k, shape in enumerate(shapes):
        tokens = list(fill)
        spans = []
        for start, idx in shape:
            end = start + len(phrases[idx])
            tokens[start:end] = phrases[idx]
            spans.append(corpus.Span(start, end, idx))
        yield corpus.Utterance(f"u{u}s{k}", tuple(tokens), 1.0, tuple(spans))


def _assert_same_build(new, old):
    for name in ("_q_phr", "_q_tok", "_p_bb"):
        a = new.q_phr_for(np.arange(new._m)) if name == "_q_phr" else getattr(new, name)
        b = getattr(old, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert not new._q_tok.flags.writeable and not new._p_bb.flags.writeable
    # the list table and its ranks: the same evidence columns, and per column
    # and per step the same noised list correlation, as the no-evidence row
    assert np.array_equal(new._ev_slot >= 0, old._ev_slot >= 0)
    assert new._list_table[0].tobytes() == old._list_table[0].tobytes()
    for col in np.flatnonzero(old._ev_slot >= 0):
        a = new._list_table[new._ev_rank[:, new._ev_slot[col]], new._steps]
        b = old._list_table[old._ev_rank[:, old._ev_slot[col]], old._steps]
        assert a.tobytes() == b.tobytes(), col
    members = np.arange(1, new._m)
    if members.size:
        for size in (1, 7, members.size):
            assert new.q_list_groups(members, size).tobytes() == \
                old.q_list_groups(members, size).tobytes()
    a, b = new.bundle(), old.bundle()
    for name in ("q_list", "q_phr", "q_tok", "p_bb"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


@pytest.mark.parametrize("spec_name", sorted(SPECS))
def test_lean_build_equals_parent_build_bit_for_bit(spec_name, corp):
    """Each noise channel alone and all of them, U from 1 to 20, M = 2, 51
    and 1196, spans at step 0 and ending at step U, and two-span utterances
    (at M = 2 two spans of the one phrase)."""
    spec, vocab = SPECS[spec_name], corp.vocabulary
    gen = np.random.default_rng(17)
    built = 0
    for m in (2, 51, 1196):
        for u in range(1, 21):
            if m == 2:
                phrase = tuple(gen.integers(2, vocab.size, size=int(gen.integers(2, 4))).tolist())
                bl = corpus.make_biasing_list([phrase], vocab)
            else:
                bl = corp.lists[m]
            phrases = {i: bl.phrases[i] for i in range(1, bl.size)}
            phi = corpus.build_phi(bl, vocab)
            for utt in _utterances(u, phrases, gen, vocab):
                new = simulate.SyntheticScorer(utt, bl, vocab, spec, phi)
                old = parent_build.SyntheticScorer(utt, bl, vocab, spec, phi)
                _assert_same_build(new, old)
                backbone = simulate.synth_backbone(utt, spec, vocab)
                assert backbone.tobytes() == parent_build.synth_backbone(utt, spec, vocab).tobytes()
                built += 1
    assert built > 150


def test_distractor_overlaps_cached_on_the_mask_build_as_the_parent_did(corp):
    """Two utterances naming one gold phrase, built against one mask: the
    first build computes the phrase's overlaps and caches them on the mask,
    the second reads them from there; both builds match the parent's."""
    vocab, bl = corp.vocabulary, corp.lists[1196]
    phi = corpus.build_phi(bl, vocab)
    spec = SPECS["all"]
    gen = np.random.default_rng(23)
    gold = 700
    phrase = bl.phrases[gold]
    utts = []
    for k, start in enumerate((0, 5)):
        tokens = gen.integers(2, vocab.size, size=start + len(phrase) + 4).tolist()
        tokens[start : start + len(phrase)] = phrase
        span = corpus.Span(start, start + len(phrase), gold)
        utts.append(corpus.Utterance(f"shared{k}", tuple(tokens), 1.0, (span,)))
    assert gold not in phi._overlaps
    entries = []
    for utt in utts:
        new = simulate.SyntheticScorer(utt, bl, vocab, spec, phi)
        _assert_same_build(new, parent_build.SyntheticScorer(utt, bl, vocab, spec, phi))
        entries.append(phi._overlaps[gold])
    assert entries[0] is entries[1] and list(phi._overlaps) == [gold]
    cols, frac = entries[0]
    assert cols.size > 0 and not (cols.flags.writeable or frac.flags.writeable)


def test_wide_token_jitter_draws_every_row_as_the_parent_did(corp):
    """Past the bound where a one-hot token row might not survive the jitter
    exactly, every row is drawn: the same rows come out, or the same error."""
    vocab, bl = corp.vocabulary, corp.lists[51]
    gen = np.random.default_rng(3)
    phrases = {i: bl.phrases[i] for i in range(1, bl.size)}
    outcomes = set()
    # exp overflows on both sides at these widths; the outcomes are compared
    with np.errstate(over="ignore", invalid="ignore"):
        _compare_wide_jitter(vocab, bl, phrases, gen, outcomes)
    assert outcomes == {"raised", "built"}


def _compare_wide_jitter(vocab, bl, phrases, gen, outcomes):
    for sigma in (150.0, 170.0, 400.0):
        spec = simulate.NoiseSpec(seed=2, score_jitter_sigma=sigma, confusion_rate=0.5)
        for u in (3, 8, 16):
            for utt in _utterances(u, phrases, gen, vocab):
                try:
                    old = parent_build.SyntheticScorer(utt, bl, vocab, spec)
                except ValueError as exc:
                    with pytest.raises(ValueError) as caught:
                        simulate.SyntheticScorer(utt, bl, vocab, spec)
                    assert str(caught.value) == str(exc)
                    outcomes.add("raised")
                    continue
                _assert_same_build(simulate.SyntheticScorer(utt, bl, vocab, spec), old)
                outcomes.add("built")


def _same(a, b, what):
    assert (a.dtype, a.shape, a.flags.c_contiguous) == (b.dtype, b.shape, b.flags.c_contiguous), what
    assert a.tobytes() == b.tobytes(), what


def _same_bundle(new, old, what):
    for name in ("q_list", "q_phr", "q_tok", "p_bb"):
        _same(getattr(new, name), getattr(old, name), (what, name))


@pytest.mark.parametrize("spec_name", sorted(SPECS))
def test_scorer_drawing_on_first_read_answers_as_the_eager_build(spec_name, corp):
    """Each noise channel alone and all of them, on the corpus utterances at
    M = 1196: phrase scores of random members in random order with repeats,
    then every prefix bundle; the prefix ladder 51 -> 201 -> 601 -> 1196 by
    ``q_phr_for`` on a fresh scorer (partial draws, then the rest); and the
    kept bundles after ``gcp`` and ``ocp`` on a small grid (M = 51, drawn
    whole), on a short list of the longest scorer (as a sweep reads it) and
    on the longest list."""
    spec, vocab = SPECS[spec_name], corp.vocabulary
    longest = corp.lists[1196]
    phis = {m: corpus.build_phi(corp.lists[m], vocab) for m in (51, 1196)}
    gen = np.random.default_rng(31)
    params = purify.PurifyParams()
    for utt in corp.utterances:
        old = parent_build.SyntheticScorer(utt, longest, vocab, spec, phis[1196])
        new = simulate.SyntheticScorer(utt, longest, vocab, spec, phis[1196])
        for _ in range(6):
            members = gen.integers(0, 1196, size=int(gen.integers(1, 120)))
            members = np.concatenate([members, members[: int(gen.integers(0, members.size))]])
            gen.shuffle(members)
            _same(new.q_phr_for(members), old.q_phr_for(members), "q_phr_for")
        for m in (51, 201, 601, 1196):
            _same_bundle(new.bundle(np.arange(m)), old.bundle(np.arange(m)), m)
        new = simulate.SyntheticScorer(utt, longest, vocab, spec, phis[1196])
        for m in (51, 201, 601, 1196):
            _same(new.q_phr_for(np.arange(m)), old.q_phr_for(np.arange(m)), m)
        assert new._undrawn == 0
        for scorer_m, list_m in ((51, 51), (1196, 201), (1196, 1196)):
            bl = corp.lists[list_m]
            old = parent_build.SyntheticScorer(utt, corp.lists[scorer_m], vocab, spec,
                                               phis[scorer_m])
            for pick in (purify.gcp, purify.ocp):
                new = simulate.SyntheticScorer(utt, corp.lists[scorer_m], vocab, spec,
                                               phis[scorer_m])
                kept = pick(bl, new, params).kept
                assert kept == pick(bl, old, params).kept
                _same_bundle(new.bundle(kept), old.bundle(kept.indices), (scorer_m, list_m))


def test_a_bad_drawn_phrase_score_raises_at_the_query(corp, monkeypatch):
    """A draw is held to the bundle contract before anything hands it out: a
    NaN in a phrase column's noise raises ``ValueError`` naming q_phr at
    every query that reads the column, and nothing is kept as drawn."""
    vocab, bl = corp.vocabulary, corp.lists[1196]
    spec = simulate.NoiseSpec(seed=5, score_jitter_sigma=0.4)
    draw = rng.normal_field

    def poisoned(key, index, cols=None):
        z = draw(key, index, cols)
        if cols is not None:  # a phrase-column draw; the list noise has no columns
            z[-1, -1] = np.nan
        return z

    monkeypatch.setattr(rng, "normal_field", poisoned)
    utt = next(u for u in corp.utterances if u.spans)
    scorer = simulate.SyntheticScorer(utt, bl, vocab, spec)
    for query in (lambda: scorer.q_phr_for([7, 3, 7]), lambda: scorer.bundle(np.arange(51)),
                  lambda: scorer.q_phr_for(np.arange(1196)), lambda: scorer.bundle()):
        with pytest.raises(ValueError, match="q_phr contains non-finite values"):
            query()
    assert scorer._q_phr is None and scorer._undrawn == 1196


def _outcome(check, arrays):
    try:
        check(*arrays)
    except ValueError as exc:
        return str(exc)
    return None


def test_fast_value_check_accepts_and_rejects_what_the_full_check_does():
    gen = np.random.default_rng(8)
    u, m, v = 5, 7, 6
    q_tok = gen.random((u, v))
    q_tok /= q_tok.sum(axis=1, keepdims=True)
    valid = [gen.random(u), gen.random((u, m)), q_tok, np.full((u, v), 1.0 / v)]
    pokes = [np.nan, -np.nan, np.inf, -np.inf, -0.25, -1e-300, -0.0, 0.0, 1.0,
             1.0 + 2.0**-52, 1.5, 1e308, 2e-9, 5e-10]
    seen = set()
    for case in range(600):
        arrays = [a.copy() for a in valid]
        for _ in range(int(gen.integers(1, 3))):
            a = arrays[int(gen.integers(0, 4))]
            cell = tuple(int(gen.integers(0, n)) for n in a.shape)
            value = pokes[int(gen.integers(0, len(pokes)))]
            # on a stochastic row, sometimes nudge a cell instead of setting it
            a[cell] = a[cell] + value if a is not arrays[1] and case % 3 == 0 else value
        want = _outcome(parent_build._check_values, arrays)
        assert _outcome(contract._check_values, arrays) == want, (case, want)
        seen.add(want)
    # empty arrays, 0-d arrays and the rows-within-1e-9 edge
    for arrays in ([np.zeros(0), np.zeros((0, 3)), np.zeros((0, 2)), np.zeros((0, 2))],
                   [np.zeros(0), np.zeros((2, 3)), np.zeros((2, 0)), np.zeros((2, 0))],
                   [np.array(0.5), np.array(1.0), np.array(1.0), np.array(1.0)],
                   [valid[0], valid[1], valid[3] + 1e-9 / v, valid[3]]):
        want = _outcome(parent_build._check_values, arrays)
        assert _outcome(contract._check_values, arrays) == want
        seen.add(want)
    names = {msg.split()[0] for msg in seen if msg}
    clauses = {msg.split(maxsplit=1)[1] for msg in seen if msg}
    assert None in seen and names == {"q_list", "q_phr", "q_tok", "p_bb"}
    assert clauses == {"contains non-finite values", "contains negative values",
                       "holds correlations above 1", "rows must sum to 1"}
