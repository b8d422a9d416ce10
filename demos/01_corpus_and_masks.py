#!/usr/bin/env python3
"""Walk through the data objects the pipeline decodes against.

Builds a toy vocabulary and biasing list by hand so every print is
readable, then generates the full synthetic corpus and reports how the
phrase pool is zoned. Nothing here touches scoring yet; this is only
the vocabulary, list, span, and containment-mask layer.
"""

import numpy as np

from ctxbias import BiasingList, Span, Utterance, Vocabulary, build_phi, scan_occurrences
from ctxbias.corpus import make_biasing_list
from ctxbias.harness.config import ExperimentConfig
from ctxbias.harness.corpusgen import GOLD_COUNT, RANDOM_ZONE, generate_corpus


def toy_walkthrough() -> None:
    vocab = Vocabulary.build("abcdefghijklmnop", seed=7)
    print(f"vocabulary size {vocab.size} "
          f"(unknown={vocab.unknown_index}, no-bias={vocab.no_bias_index})")
    # each real token has a distinct confusable partner
    for ch in "abc":
        (i,) = vocab.encode(ch)
        print(f"  token {ch!r} -> partner {vocab.tokens[vocab.confusable[i]]!r}")

    words = ["cab", "dig", "hop", "fade"]
    blist = make_biasing_list([vocab.encode(w) for w in words], vocab)
    print(f"\nbiasing list: M={blist.size} "
          f"(index 0 is the reserved no-bias entry)")
    for m, phrase in enumerate(blist.phrases):
        print(f"  [{m}] {vocab.decode(phrase)!r}")

    text = "echo cab on dig pad"
    tokens = vocab.encode(text.replace(" ", ""))
    hits = scan_occurrences(tokens, blist)
    print(f"\nreference {text!r} contains phrases at: {hits}")

    spans = tuple(Span(start=s, end=s + len(blist.phrases[m]), phrase=m) for s, m in hits)
    utt = Utterance(uid="toy0", tokens=tokens, duration_seconds=2.0, spans=spans)
    print(f"utterance {utt.uid}: U={utt.n_steps} steps, {len(utt.spans)} gold spans")

    phi = build_phi(blist, vocab)
    print(f"\ncontainment mask phi: shape {phi.matrix.shape}, "
          f"{int(phi.matrix.sum())} ones")
    print("row 1 marks the tokens of phrase 1:",
          [vocab.tokens[v] for v in np.flatnonzero(phi.matrix[1])])


def corpus_summary() -> None:
    config = ExperimentConfig(n_utterances=60, seed=3)
    corpus = generate_corpus(config)
    pool = corpus.pool
    print(f"\nsynthetic corpus: {len(corpus.utterances)} utterances, "
          f"pool of {pool.size - 1} phrases + no-bias")
    print(f"  zone [0,{GOLD_COUNT}): gold phrases (the only ones spoken)")
    print(f"  zone [{GOLD_COUNT},{GOLD_COUNT + RANDOM_ZONE}): unrelated phrases")
    print(f"  zone [{GOLD_COUNT + RANDOM_ZONE},{pool.size - 1}): "
          f"near-miss variants mixed with more randoms")
    print(f"  swept prefix lists: {sorted(corpus.lists)}")
    with_spans = sum(1 for u in corpus.utterances if u.spans)
    print(f"  {with_spans}/{len(corpus.utterances)} utterances carry a span")

    # the scrubbing guarantee: a reference never matches a non-gold phrase
    biggest = corpus.lists[max(corpus.lists)]
    for utt in corpus.utterances[:20]:
        hits = scan_occurrences(utt.tokens, biggest)
        assert sorted(m for _, m in hits) == sorted(s.phrase for s in utt.spans)
    print("  spot check: scanning 20 references finds exactly the gold spans")


if __name__ == "__main__":
    toy_walkthrough()
    corpus_summary()
