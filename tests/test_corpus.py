import pickle
from functools import lru_cache

import numpy as np
import pytest

from ctxbias import corpus, purify, simulate
from ctxbias.harness.config import ExperimentConfig
from ctxbias.harness.corpusgen import generate_corpus


def _vocab(n_chars: int = 12, seed: int = 0) -> corpus.Vocabulary:
    chars = [chr(0x4E00 + i) for i in range(n_chars)]
    return corpus.Vocabulary.build(chars, seed=seed)


def test_vocab_reserved_slots():
    v = _vocab()
    assert v.tokens[v.unknown_index] == corpus.UNKNOWN_TOKEN
    assert v.tokens[v.no_bias_index] == corpus.NO_BIAS_TOKEN
    assert v.size == 14


def test_vocab_confusable_partners_never_self():
    for n in (2, 3, 4, 5, 12):
        v = _vocab(n_chars=n, seed=n)
        for t in range(2, v.size):
            assert v.confusable[t] != t
            assert 2 <= v.confusable[t] < v.size
    # reserved entries map to themselves
    v = _vocab()
    assert v.confusable[0] == 0 and v.confusable[1] == 1


def test_encode_round_trip_and_unknown_character_error():
    v = _vocab()
    text = v.tokens[2] + v.tokens[3] + v.tokens[4]
    ids = v.encode(text)
    assert v.decode(ids) == text
    assert v.encode("") == ()
    # a character outside the vocabulary is named with its position, never
    # mapped to the reserved unknown entry
    for bad, named in (("Z", "'Z' at position 0"),
                       (text + "Z" + text + "Y", "'Z' at position 3"),
                       (text + "<unk>", "'<' at position 3")):
        with pytest.raises(ValueError, match=named):
            v.encode(bad)


def test_biasing_list_shape_rules():
    v = _vocab()
    bl = corpus.make_biasing_list([(2, 3), (4, 5, 6)], v)
    assert bl.size == 3
    assert bl.phrases[0] == (v.no_bias_index,)
    assert list(bl.real_indices()) == [1, 2]

    with pytest.raises(ValueError, match="duplicate"):
        corpus.make_biasing_list([(2, 3), (2, 3)], v)
    with pytest.raises(ValueError, match="length"):
        corpus.make_biasing_list([(2,)], v)
    with pytest.raises(ValueError, match="length"):
        corpus.make_biasing_list([tuple(range(2, 2 + 20))], _vocab(n_chars=25))
    with pytest.raises(ValueError, match="length 0"):
        corpus.make_biasing_list([(2, 3), ()], v)
    # a phrase is a tuple of token ids, never coerced from anything else
    holder = type("Holder", (), {"tokens": (4, 5)})()
    for m, phrase in ((1, [4, 5]), (2, holder), (0, [v.no_bias_index])):
        phrases = [(v.no_bias_index,), (2, 3), (6, 7)]
        phrases[m] = phrase
        with pytest.raises(ValueError, match=f"phrase {m} is a (list|Holder)"):
            corpus.BiasingList(phrases=tuple(phrases), no_bias_token=v.no_bias_index)


def test_sublist_preserves_entries():
    v = _vocab()
    bl = corpus.make_biasing_list([(2, 3), (4, 5), (6, 7)], v)
    sub = bl.sublist([0, 2])
    assert sub.size == 2
    assert sub.phrases[1] == (4, 5)
    with pytest.raises(ValueError):
        bl.sublist([1, 2])


def test_sublist_rejects_bad_indices_and_equals_a_validated_list():
    v = _vocab()
    bl = corpus.make_biasing_list([(2, 3), (4, 5), (6, 7), (3, 4), (8, 9, 10)], v)
    for bad in ([0, -1], [0, 2, -5], [0, 6], [0, 99], [0, 2, 2], [0, 0], [0, 3, 1, 3]):
        with pytest.raises(ValueError):
            bl.sublist(bad)
    with pytest.raises(ValueError):
        bl.sublist([])
    for bad in ((0, 1.0), [0, 1.5]):
        with pytest.raises(ValueError, match="must be integers"):
            bl.sublist(bad)
    gen = np.random.default_rng(4)
    for _ in range(50):
        rest = gen.permutation(np.arange(1, bl.size))[: gen.integers(0, bl.size)]
        kept = [0, *rest.tolist()]
        sub = bl.sublist(kept)
        validated = corpus.BiasingList(
            phrases=tuple(bl.phrases[m] for m in kept), no_bias_token=bl.no_bias_token
        )
        assert sub == validated
        assert sub._trie == validated._trie
    assert bl.sublist(np.array([0, 4, 2])) == bl.sublist((0, 4, 2))
    with pytest.raises(ValueError, match="first kept index is 4, not"):
        bl.sublist(np.array([4, 0]))


def _phi_oracle(biasing_list, vocab):
    """The mask by one assignment per phrase, the obvious build."""
    matrix = np.zeros((biasing_list.size, vocab.size), dtype=np.uint8)
    for m, phrase in enumerate(biasing_list.phrases):
        matrix[m, list(phrase)] = 1
    return matrix


def test_phi_mask_contents():
    v = _vocab()
    bl = corpus.make_biasing_list([(2, 3), (3, 4)], v)
    phi = corpus.build_phi(bl, v)
    assert phi.matrix.shape == (3, v.size)
    assert phi.matrix[0, v.no_bias_index] == 1
    assert phi.matrix[1, 2] == 1 and phi.matrix[1, 3] == 1 and phi.matrix[1, 4] == 0
    # phrases that repeat a token
    for phrases in ([(2, 2, 3)], [(5, 4, 5, 4)]):
        bl = corpus.make_biasing_list(phrases, v)
        assert np.array_equal(corpus.build_phi(bl, v).matrix, _phi_oracle(bl, v))
    corp = generate_corpus(ExperimentConfig(n_utterances=20))
    assert sorted(corp.lists) == [51, 201, 601, 1196]
    for bl in corp.lists.values():
        got = corpus.build_phi(bl, corp.vocabulary).matrix
        want = _phi_oracle(bl, corp.vocabulary)
        assert got.dtype == want.dtype and np.array_equal(got, want), bl.size


def _by_token_oracle(matrix):
    """The token index by a 2-d nonzero and np.unique, the obvious build."""
    token_of, phrases = np.nonzero(matrix.T)
    tokens, starts = np.unique(token_of, return_index=True)
    return tokens, starts, phrases


def test_phi_mask_caches_equal_their_obvious_builds():
    gen = np.random.default_rng(7)
    shapes = [(1, 4), (5, 1), (0, 6), (6, 9), (40, 30), (300, 82)]
    for m, v in shapes:
        for density in (0.0, 0.05, 0.5, 1.0):
            matrix = (gen.uniform(size=(m, v)) < density).astype(np.uint8)
            phi = corpus.PhiMask(matrix=matrix)
            for got, want in zip(phi.by_token, _by_token_oracle(matrix)):
                assert got.dtype == want.dtype and np.array_equal(got, want), (m, v, density)
            # the float form attention multiplies by, cached and read-only
            assert phi.dense.dtype == np.float64
            assert np.array_equal(phi.dense, matrix.astype(float))
            assert phi.dense is phi.dense
            with pytest.raises(ValueError, match="read-only"):
                phi.dense[...] = 0.0
            assert np.array_equal(phi.row_sizes, matrix.sum(axis=1))
            with pytest.raises(ValueError, match="read-only"):
                phi.row_sizes[...] = 0


def _brute_force_scan(tokens, biasing_list):
    """Longest match first at every position, trying every real phrase."""
    seq, found, i = tuple(tokens), [], 0
    ranked = sorted(range(1, biasing_list.size), key=lambda m: -len(biasing_list.phrases[m]))
    while i < len(seq):
        for m in ranked:
            t = biasing_list.phrases[m]
            if seq[i : i + len(t)] == t:
                found.append((i, m))
                i += len(t)
                break
        else:
            i += 1
    return tuple(found)


# the generated corpus, with enough noise that purification drops phrases
_GENERATED = ExperimentConfig(n_utterances=20, score_jitter_sigma=0.5, distractor_boost=0.5)


def _hitting_seqs(bl, vocab, gen, n):
    """``n`` token sequences built from ``bl``'s phrases joined by random
    tokens: each phrase kept whole, cut short, with a token swapped for its
    confusable partner, or with an id outside the vocabulary (-1 or
    ``vocab.size``) put in."""
    seqs = []
    while len(seqs) < n:
        seq = []
        for _ in range(int(gen.integers(1, 5))):
            seq += gen.integers(2, vocab.size, size=int(gen.integers(0, 3))).tolist()
            phrase = list(bl.phrases[int(gen.integers(1, bl.size))])
            k = int(gen.integers(len(phrase)))
            kind = int(gen.integers(4))
            if kind == 1:
                phrase.pop()
            elif kind == 2:
                phrase[k] = vocab.confusable[phrase[k]]
            elif kind == 3:
                phrase.insert(k, (-1, vocab.size)[int(gen.integers(2))])
            seq += phrase
        seqs.append(seq)
    return seqs


@lru_cache(maxsize=None)
def _generated_corpus():
    return generate_corpus(_GENERATED)


@lru_cache(maxsize=None)
def _generated_lists():
    """The generated corpus's lists at every swept length (phrases of 2..6
    tokens that share prefixes, with confusable variants), and a list of
    pool phrases each extended by further pool phrases up to the 19-token
    limit, so that phrases end inside longer ones; each with 50 token
    sequences: 10 references and 40 runs of its phrases."""
    corp = _generated_corpus()
    vocab, gen = corp.vocabulary, np.random.default_rng(13)
    pool = corp.pool.phrases[1:]
    nested = dict.fromkeys(pool[:100])
    for phrase in pool[:100]:
        while len(phrase) < corpus.MAX_PHRASE_LEN:
            phrase = (phrase + pool[int(gen.integers(len(pool)))])[: corpus.MAX_PHRASE_LEN]
            nested[phrase] = None
    lists = (*corp.lists.values(), corpus.make_biasing_list(nested, vocab))
    refs = [utt.tokens for utt in corp.utterances[:10]]
    return tuple((bl, (*refs, *_hitting_seqs(bl, vocab, gen, 40))) for bl in lists)


@lru_cache(maxsize=None)
def _purified_kept_sets():
    """The ``gcp`` and ``ocp`` kept sets of four utterances at M=1196."""
    corp = _generated_corpus()
    bl = corp.lists[1196]
    phi = corpus.build_phi(bl, corp.vocabulary)
    kept = []
    for utt in corp.utterances[:4]:
        scorer = simulate.SyntheticScorer(utt, bl, corp.vocabulary, _GENERATED.noise_for(0), phi)
        for purifier in (purify.gcp, purify.ocp):
            kept.append(purifier(bl, scorer, _GENERATED.purify_for(0)).kept)
    return bl, tuple(kept)


def test_scan_matches_brute_force_on_lists_and_sublists():
    v = _vocab(n_chars=6)
    gen = np.random.default_rng(11)
    seqs = set()
    while len(seqs) < 60:
        seqs.add(tuple(gen.integers(2, v.size, size=int(gen.integers(2, 6))).tolist()))
    bl = corpus.make_biasing_list(sorted(seqs), v)
    for _ in range(40):
        rest = gen.permutation(np.arange(1, bl.size))[: gen.integers(0, bl.size)]
        sub = bl.sublist([0, *rest.tolist()])
        for target in (bl, sub):
            hyp = gen.integers(2, v.size, size=int(gen.integers(0, 30))).tolist()
            assert corpus.scan_occurrences(hyp, target) == _brute_force_scan(hyp, target)
    # the generated corpus's lists, and a random sublist of each
    for bl, seqs in _generated_lists():
        rest = gen.permutation(np.arange(1, bl.size))[: gen.integers(0, bl.size)]
        for target in (bl, bl.sublist([0, *rest.tolist()])):
            for hyp in seqs:
                assert corpus.scan_occurrences(hyp, target) == _brute_force_scan(hyp, target)


def test_a_pickled_list_scans_as_the_list_does():
    """A worker process gets each list pickled, with its prefix tree when a
    scan has built it: the tree's terminals must survive the round trip."""
    for bl, seqs in _generated_lists():
        corpus.scan_occurrences((), bl)  # builds the tree
        copy = pickle.loads(pickle.dumps(bl))
        assert "_trie" in vars(copy) and copy._trie == bl._trie
        for hyp in seqs:
            assert corpus.scan_occurrences(hyp, copy) == corpus.scan_occurrences(hyp, bl)


def test_utterance_span_validation():
    uid = "u1"
    with pytest.raises(ValueError, match="out of range"):
        corpus.Utterance(uid, (2, 3, 4), 1.0, (corpus.Span(2, 5, 1),))
    with pytest.raises(ValueError, match="overlap"):
        corpus.Utterance(uid, (2, 3, 4, 5), 1.0, (corpus.Span(0, 2, 1), corpus.Span(1, 3, 2)))
    for duration in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="duration_seconds"):
            corpus.Utterance(uid, (2, 3), duration)


def test_validate_spans_against_list():
    v = _vocab()
    bl = corpus.make_biasing_list([(2, 3)], v)
    good = corpus.Utterance("ok", (4, 2, 3, 5), 1.0, (corpus.Span(1, 3, 1),))
    corpus.validate_spans(good, bl)
    bad = corpus.Utterance("bad", (4, 2, 4, 5), 1.0, (corpus.Span(1, 3, 1),))
    with pytest.raises(ValueError, match="bad"):
        corpus.validate_spans(bad, bl)


def test_save_biasing_list_writes_one_decoded_phrase_per_line(tmp_path):
    v = _vocab()
    bl = corpus.make_biasing_list([(2, 3), (4, 5, 6), (7, 2)], v)
    path = tmp_path / "list.txt"
    corpus.save_biasing_list(bl, v, path)
    # the no-bias entry is implicit: only the real phrases, in list order
    want = [v.tokens[2] + v.tokens[3], v.tokens[4] + v.tokens[5] + v.tokens[6],
            v.tokens[7] + v.tokens[2]]
    assert path.read_text(encoding="utf-8") == "\n".join(want) + "\n"


def test_save_utterances_writes_one_row_per_utterance(tmp_path):
    v = _vocab()
    utts = [
        corpus.Utterance("a", (4, 2, 3, 5, 6), 0.75,
                         (corpus.Span(1, 3, 1), corpus.Span(3, 5, 2))),
        corpus.Utterance("b", (5, 6), 0.5),
    ]
    path = tmp_path / "utts.tsv"
    corpus.save_utterances(utts, v, path)
    # uid, text and duration, then the spans as start:end:phrase joined by ';'
    # only where there are any
    assert path.read_text(encoding="utf-8") == (
        f"a\t{v.decode((4, 2, 3, 5, 6))}\t0.75\t1:3:1;3:5:2\n"
        f"b\t{v.decode((5, 6))}\t0.5\n")


def test_kept_scan_equals_the_scan_of_the_sublist():
    """A scan restricted to the kept phrases of the full list's table finds
    what the sublist's own scan finds, with original indices: a longer
    phrase that is not kept must not hide a shorter kept one."""
    v = _vocab(n_chars=8)
    long_, short, tail, mid, other = (2, 3, 4, 5), (2, 3), (4, 5), (3, 4, 5), (6, 7)
    bl = corpus.make_biasing_list([long_, short, tail, mid, other], v)
    a, b, c, d, e = range(1, 6)
    hyp = (2, 3, 4, 5, 6, 7, 2, 3)
    table = [
        (range(bl.size), ((0, a), (4, e), (6, b))),
        ((0, b, c), ((0, b), (2, c), (6, b))),  # the longest phrase is not kept
        ((0, c, b), ((0, b), (2, c), (6, b))),  # kept order does not matter
        ((0, b), ((0, b), (6, b))),
        ((0, c), ((2, c),)),
        ((0, d, e), ((1, d), (4, e))),
        ((0, a, e), ((0, a), (4, e))),
        ((0,), ()),
    ]
    for kept, want in table:
        kept = list(kept)
        got = corpus.scan_occurrences(hyp, bl, kept)
        assert got == want, kept
        assert corpus.scan_occurrences(hyp, bl, corpus.KeptSet.of(kept, bl.size)) == want
        # the oracle: the sublist's own scan, its indices mapped back
        sub = corpus.scan_occurrences(hyp, bl.sublist(kept))
        assert tuple((i, kept[m]) for i, m in sub) == want, kept
    with pytest.raises(ValueError, match="index 9 is outside"):
        corpus.scan_occurrences(hyp, bl, [0, 9])
    with pytest.raises(ValueError, match="kept set is of a 3-entry list"):
        corpus.scan_occurrences(hyp, bl, corpus.KeptSet.of([0, 1], 3))


def test_kept_scan_matches_the_sublist_scan_on_random_lists():
    v = _vocab(n_chars=6)
    gen = np.random.default_rng(12)
    seqs = set()
    while len(seqs) < 60:
        seqs.add(tuple(gen.integers(2, v.size, size=int(gen.integers(2, 6))).tolist()))
    bl = corpus.make_biasing_list(sorted(seqs), v)
    for trial in range(60):
        rest = gen.permutation(np.arange(1, bl.size))[: gen.integers(0, bl.size)]
        kept = [0, *(sorted(rest.tolist()) if trial % 2 else rest.tolist())]
        for _ in range(3):
            hyp = gen.integers(2, v.size, size=int(gen.integers(0, 30))).tolist()
            sub = corpus.scan_occurrences(hyp, bl.sublist(kept))
            want = tuple((i, kept[m]) for i, m in sub)
            assert corpus.scan_occurrences(hyp, bl, kept) == want
    # a random kept set of each generated list, and what purification keeps
    # at M=1196, over sequences that hit the full list and the kept phrases
    vocab = _generated_corpus().vocabulary
    cases = []
    for bl, seqs in _generated_lists():
        rest = gen.permutation(np.arange(1, bl.size))[: gen.integers(0, bl.size)]
        cases.append((bl, [0, *rest.tolist()], seqs))
    bl, purified = _purified_kept_sets()
    assert all(ks.indices.size < bl.size for ks in purified)
    seqs = next(seqs for full, seqs in _generated_lists() if full is bl)
    cases += [(bl, ks.indices.tolist(), seqs) for ks in purified]
    for bl, kept, seqs in cases:
        sub_list = bl.sublist(kept)
        for hyp in (*seqs, *_hitting_seqs(sub_list, vocab, gen, 25)):
            want = tuple((i, kept[m]) for i, m in corpus.scan_occurrences(hyp, sub_list))
            assert corpus.scan_occurrences(hyp, bl, kept) == want
            assert corpus.scan_occurrences(hyp, bl, corpus.KeptSet.of(kept, bl.size)) == want

def test_kept_set_is_checked_once_and_read_only():
    kept = np.array([0, 4, 2])
    ks = corpus.KeptSet.of(kept, 6)
    assert corpus.KeptSet.of(ks, 6) is ks
    assert ks.indices.tolist() == [0, 4, 2] and ks.indices.dtype == np.intp
    assert ks.members.tolist() == [True, False, True, False, True, False]
    kept[1] = 5  # the caller's array stays the caller's
    assert ks.indices.tolist() == [0, 4, 2]
    for arr in (ks.indices, ks.members):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    # equal by value: the same indices, in the same order, of one list size
    assert corpus.KeptSet.of(np.array([0, 4, 2], dtype=np.uint64), 6) == ks
    assert corpus.KeptSet.of([0, 2, 4], 6) != ks and corpus.KeptSet.of([0, 4, 2], 7) != ks
    for bad, named in (([], "first kept index is missing"), ([3, 0], "first kept index is 3"),
                       ([0, -1], "index -1 is outside 0..5"), ([0, 6], "index 6 is outside"),
                       ([0, 2, 2], "index 2 repeats"), ([0, 1.5], "must be integers"),
                       (np.zeros((1, 2), dtype=int), r"shape \(1, 2\)"),
                       # named as given, not as a wrapped intp
                       (np.array([0, 2**63], dtype=np.uint64),
                        "index 9223372036854775808 is outside 0..5")):
        with pytest.raises(ValueError, match=named):
            corpus.KeptSet.of(bad, 6)
