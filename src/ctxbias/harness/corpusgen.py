"""Synthetic evaluation corpus.

The phrase pool is laid out in zones so that nested prefix lists expose a
growing amount of competition:

  [0, 50)        gold phrases: the only ones that ever appear as spans
  [50, 200)      unrelated random phrases
  [200, end)     a shuffled mix of gold variants (confusable-partner swaps
                 and one-token extensions of those swaps) and more randoms

Every swept list is a prefix of the pool plus the no-bias entry, so the
shortest list holds the golds with little competition while the longest
holds every variant. Gold phrases use confusably-disjoint tokens (a token
and its partner never share a phrase) so a partner swap always yields a
distinct phrase.

Reference texts are scrubbed: no pool phrase matches an utterance anywhere
except a gold at its own span. Scanning a correct hypothesis therefore
recovers exactly the spans, for every swept list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import rng as rng_mod
from ..corpus import (
    BiasingList,
    Span,
    Utterance,
    Vocabulary,
    make_biasing_list,
)
from .config import ExperimentConfig

GOLD_COUNT = 50
GOLD_LEN = 3
RANDOM_ZONE = 150  # unrelated phrases between the golds and the variant mix
MAX_RANDOM_LEN = 6


@dataclass(frozen=True, eq=False)
class Corpus:
    vocabulary: Vocabulary
    pool: BiasingList
    lists: dict[int, BiasingList]
    utterances: tuple[Utterance, ...]
    span_total: int  # utterances that carry at least one span


def _windows(tokens, length):
    return [tuple(tokens[i : i + length]) for i in range(len(tokens) - length + 1)]


def _draw_golds(rng, vocab: Vocabulary, lo: int, hi: int) -> list[tuple[int, ...]]:
    golds: list[tuple[int, ...]] = []
    seen = set()
    while len(golds) < GOLD_COUNT:
        cand = tuple(int(t) for t in rng.integers(lo, hi, size=GOLD_LEN))
        if cand in seen:
            continue
        toks = set(cand)
        if any(vocab.confusable[t] in toks for t in cand):
            continue
        golds.append(cand)
        seen.add(cand)
    return golds


def stray_gold(tokens, spans, gold_index) -> bool:
    """Whether a gold phrase matches ``tokens`` at some window other than one
    of the ``spans``' own (start, phrase) sites.

    ``gold_index`` maps each gold's token tuple to its phrase index; golds
    are distinct, so a window matches at most one of them and one lookup per
    window decides it.
    """
    own = {(s.start, s.phrase) for s in spans}
    for w, window in enumerate(zip(*(tokens[k:] for k in range(GOLD_LEN)))):
        phrase = gold_index.get(window)
        if phrase is not None and (w, phrase) not in own:
            return True
    return False


def _draw_utterance(rng, config: ExperimentConfig, golds, gold_index, lo, hi, uid):
    u = int(rng.integers(config.u_min, config.u_max + 1))
    n_spans = 0
    if rng.random() < config.span_rate:
        n_spans = 2 if rng.random() < config.two_span_rate else 1
    picks = rng.choice(GOLD_COUNT, size=n_spans, replace=False) if n_spans else []
    spans = []
    if n_spans == 2:
        s1 = int(rng.integers(0, u - 2 * GOLD_LEN))  # leave room for gap + span
        s2 = int(rng.integers(s1 + GOLD_LEN + 1, u - GOLD_LEN + 1))
        starts = [s1, s2]
    elif n_spans == 1:
        starts = [int(rng.integers(0, u - GOLD_LEN + 1))]
    else:
        starts = []
    tokens = [int(t) for t in rng.integers(lo, hi, size=u)]
    covered = set()
    for start, pick in zip(starts, picks):
        tokens[start : start + GOLD_LEN] = golds[int(pick)]
        spans.append(Span(start, start + GOLD_LEN, int(pick) + 1))
        covered.update(range(start, start + GOLD_LEN))

    filler = [i for i in range(u) if i not in covered]
    tries = 0
    while stray_gold(tokens, spans, gold_index):
        # only redraw filler; span sites are fixed
        fresh = rng.integers(lo, hi, size=len(filler))
        for pos, tok in zip(filler, fresh):
            tokens[pos] = int(tok)
        tries += 1
        if tries > 1000:
            raise RuntimeError("could not scrub stray gold matches")
    return Utterance(uid, tuple(tokens), 0.25 * u, tuple(spans))


def _gold_variants(rng, golds, vocab: Vocabulary, lo, hi):
    """Partner-swap variants of every gold, plus one-token extensions."""
    out = []
    for g in golds:
        partner = [vocab.confusable[t] for t in g]
        singles = []
        for p in range(GOLD_LEN):
            m = list(g)
            m[p] = partner[p]
            singles.append(tuple(m))
        doubles = []
        for p in range(GOLD_LEN):
            m = list(partner)
            m[p] = g[p]
            doubles.append(tuple(m))
        exts = []
        for s in singles:
            exts.append((int(rng.integers(lo, hi)), *s))
            exts.append((*s, int(rng.integers(lo, hi))))
        out.extend(singles)
        out.extend(doubles)
        out.append(tuple(partner))
        out.extend(exts)
    return out


def generate_corpus(config: ExperimentConfig) -> Corpus:
    rng = np.random.default_rng(int(rng_mod.stream_key(config.seed, "corpus")))
    chars = [chr(0x4E00 + i) for i in range(config.n_chars)]
    vocab = Vocabulary.build(chars, seed=int(rng_mod.stream_key(config.seed, "vocab") >> 32))
    lo, hi = 2, 2 + config.n_chars

    golds = _draw_golds(rng, vocab, lo, hi)
    gold_index = {g: i for i, g in enumerate(golds, start=1)}
    utterances = tuple(
        _draw_utterance(rng, config, golds, gold_index, lo, hi, f"utt{i:04d}")
        for i in range(config.n_utterances)
    )

    # windows of every reference text, by length, for rejection sampling:
    # randoms have 2..MAX_RANDOM_LEN tokens and variants GOLD_LEN or one more
    text_windows: dict[int, set] = {
        n: set() for n in range(2, MAX_RANDOM_LEN + 1)
    }
    for utt in utterances:
        for n in text_windows:
            text_windows[n].update(_windows(utt.tokens, n))

    seen = set(golds)

    def acceptable(cand: tuple[int, ...]) -> bool:
        if cand in seen:
            return False
        if len(cand) >= GOLD_LEN and any(w in gold_index for w in _windows(cand, GOLD_LEN)):
            return False
        return cand not in text_windows[len(cand)]

    def draw_random() -> tuple[int, ...]:
        top = min(MAX_RANDOM_LEN, config.u_min)
        while True:
            n = int(rng.integers(2, top + 1))
            cand = tuple(int(t) for t in rng.integers(lo, hi, size=n))
            if acceptable(cand):
                seen.add(cand)
                return cand

    pool_size = max(config.list_lengths) - 1
    phrases = list(golds)
    for _ in range(min(RANDOM_ZONE, pool_size - len(phrases))):
        phrases.append(draw_random())

    room = pool_size - len(phrases)
    variants = []
    for cand in _gold_variants(rng, golds, vocab, lo, hi):
        if len(variants) == room:
            break
        if acceptable(cand):
            seen.add(cand)
            variants.append(cand)
    mix = variants + [draw_random() for _ in range(room - len(variants))]
    order = rng.permutation(len(mix))
    phrases.extend(mix[i] for i in order)

    pool = make_biasing_list(phrases, vocab)
    lists = {m: pool.sublist(tuple(range(m))) for m in config.list_lengths}
    span_total = sum(1 for u in utterances if u.spans)
    return Corpus(
        vocabulary=vocab,
        pool=pool,
        lists=lists,
        utterances=utterances,
        span_total=span_total,
    )
