#!/usr/bin/env python3
"""Show the three correlation channels and how noise degrades them.

The scorer bank fabricates, for one utterance against one list, the
per-step list correlation q_list, the per-step per-phrase correlation
q_phr, and the row-stochastic token posterior q_tok, plus a backbone
p_bb. All four are deterministic in (seed, uid), so a cell can be
recomputed anywhere. The second half derives phrase correlations the
long way, from embeddings through attention weights, and checks the
two roads agree on where the span is.
"""

import numpy as np

from ctxbias import NoiseSpec
from ctxbias.harness.config import ExperimentConfig
from ctxbias.harness.corpusgen import generate_corpus
from ctxbias.reference.attention import corr_scores, cross_attention, phrase_corr_from_heads
from ctxbias.reference.embeddings import synth_embeddings
from ctxbias.simulate import SyntheticScorer


def pick_spanned(corpus):
    for utt in corpus.utterances:
        if len(utt.spans) == 1:
            return utt
    raise RuntimeError("no single-span utterance in corpus")


def main() -> None:
    config = ExperimentConfig(n_utterances=40, seed=5)
    corpus = generate_corpus(config)
    blist = corpus.lists[51]
    utt = pick_spanned(corpus)
    span = utt.spans[0]
    print(f"utterance {utt.uid}: U={utt.n_steps}, gold phrase {span.phrase} "
          f"at steps [{span.start},{span.end})")

    for sigma in (0.0, 0.1, 0.5):
        spec = NoiseSpec(seed=11, score_jitter_sigma=sigma)
        b = SyntheticScorer(utt, blist, corpus.vocabulary, spec).bundle()
        inside = b.q_list[span.start : span.end]
        outside = np.delete(b.q_list, np.arange(span.start, span.end))
        gold_col = b.q_phr[span.start : span.end, span.phrase]
        print(f"sigma={sigma:>3}: q_list in-span {inside.mean():.3f} "
              f"vs out {outside.mean():.3f}; "
              f"gold q_phr in-span {gold_col.mean():.3f}")

    # confusion noise makes the backbone mishear a span step; the token
    # scorer softens there but keeps the reference on top, which is the
    # disagreement the intersection later exploits
    spec = NoiseSpec(seed=11, confusion_rate=1.0)
    b = SyntheticScorer(utt, blist, corpus.vocabulary, spec).bundle()
    step = span.start
    ref = utt.tokens[step]
    partner = corpus.vocabulary.confusable[ref]
    print(f"\nconfusion_rate=1.0 at step {step} (ref={ref}, partner={partner}):")
    print(f"  backbone p_bb: ref {b.p_bb[step, ref]:.3f} vs "
          f"partner {b.p_bb[step, partner]:.3f} -> argmax {int(np.argmax(b.p_bb[step]))}")
    print(f"  scorer q_tok:  ref {b.q_tok[step, ref]:.3f} vs "
          f"partner {b.q_tok[step, partner]:.3f} -> argmax {int(np.argmax(b.q_tok[step]))}")
    assert int(np.argmax(b.p_bb[step])) == partner
    assert int(np.argmax(b.q_tok[step])) == ref

    # same story through the embedding road
    emb = synth_embeddings(utt, blist, NoiseSpec(seed=11), d=16)
    raw = corr_scores(emb.acoustic, emb.phrase)
    att = cross_attention(emb.acoustic, emb.phrase, n_heads=2)
    q_phr_att = phrase_corr_from_heads(att.weights)
    print(f"\nembedding road: raw score matrix {raw.shape}, "
          f"attention weights {att.weights.shape}")
    for name, mat in (("raw", raw), ("attention", q_phr_att)):
        best = int(np.argmax(mat[span.start]))
        print(f"  argmax over phrases at step {span.start} via {name}: "
              f"{best} (gold is {span.phrase})")


if __name__ == "__main__":
    main()
