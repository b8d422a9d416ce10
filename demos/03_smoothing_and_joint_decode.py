#!/usr/bin/env python3
"""One noisy utterance, decoded end to end.

Shows the triangular smoothing of the list channel, the window the
phrase pooling locks onto, and the joint intersection fixing a step
the backbone misheard. Ends with the count guard deciding which
hypothesis to keep.
"""

import numpy as np

from ctxbias import (
    NoiseSpec,
    SmoothingParams,
    build_phi,
    cer,
    count_phrases,
    decode_utterance,
    estimate_phrase_length,
    locate_window,
)
from ctxbias.harness.config import ExperimentConfig
from ctxbias.harness.corpusgen import generate_corpus
from ctxbias.simulate import SyntheticScorer


def fmt(vals) -> str:
    return " ".join(f"{v:.2f}" for v in vals)


def main() -> None:
    config = ExperimentConfig(n_utterances=40, seed=5)
    corpus = generate_corpus(config)
    blist = corpus.lists[51]
    vocab = corpus.vocabulary
    phi = build_phi(blist, vocab)

    # jitter roughs up the list channel, confusion breaks backbone steps
    noise = NoiseSpec(seed=2, score_jitter_sigma=0.15, confusion_rate=0.6)
    utt = next(u for u in corpus.utterances if len(u.spans) == 1)
    span = utt.spans[0]
    bundle = SyntheticScorer(utt, blist, vocab, noise).bundle()
    print(f"{utt.uid}: U={utt.n_steps}, gold phrase {span.phrase} at "
          f"[{span.start},{span.end})")

    res = decode_utterance(bundle, blist, phi, SmoothingParams(omega=0.6))
    print("\nraw q_list:      ", fmt(bundle.q_list))
    print("smoothed q_slist:", fmt(res.weight))

    length = estimate_phrase_length(res.weight)
    start = locate_window(bundle.q_list, length, span.start)
    print(f"\nestimated window length {length} "
          f"(true span is {span.end - span.start} long)")
    print(f"window located from step {span.start}: starts at {start}")

    # find a span step the backbone got wrong and the biased path fixed
    fixed = [
        t for t in range(span.start, span.end)
        if res.hyp_bb[t] != utt.tokens[t] and res.hyp_casr[t] == utt.tokens[t]
    ]
    print(f"\nspan steps misheard by the backbone and repaired: {fixed}")
    for t in fixed[:1]:
        ref = utt.tokens[t]
        print(f"  step {t}: p_bb argmax {res.hyp_bb[t]}, "
              f"q_bias[ref]={res.q_bias[t, ref]:.3f}, "
              f"q_casr argmax {res.hyp_casr[t]} == ref {ref}")

    n_bb = count_phrases(res.hyp_bb, blist)
    n_casr = count_phrases(res.hyp_casr, blist)
    kept = "biased" if res.hyp_final == res.hyp_casr else "backbone"
    print(f"\nphrase counts: backbone {n_bb}, biased {n_casr} -> guard keeps {kept}")
    for name, hyp in (("backbone", res.hyp_bb), ("biased", res.hyp_casr),
                      ("final", res.hyp_final)):
        rate = cer(hyp, utt.tokens)[0]
        print(f"  {name:8} CER {rate:.3f}")

    # crank the jitter and the repair stays partial: no full phrase
    # surfaces, so the guard falls back to the backbone
    rough = NoiseSpec(seed=2, score_jitter_sigma=0.3, confusion_rate=0.6)
    bundle2 = SyntheticScorer(utt, blist, vocab, rough).bundle()
    res2 = decode_utterance(bundle2, blist, phi, SmoothingParams(omega=0.6))
    n2_bb = count_phrases(res2.hyp_bb, blist)
    n2_casr = count_phrases(res2.hyp_casr, blist)
    kept2 = "biased" if res2.hyp_final == res2.hyp_casr else "backbone"
    print(f"\nsame utterance at sigma=0.3: counts {n2_bb} vs {n2_casr} "
          f"-> guard keeps {kept2}")


if __name__ == "__main__":
    main()
