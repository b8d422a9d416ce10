#!/usr/bin/env python3
"""Shrink a 1196-entry biasing list before decoding.

Group competitive purification (gcp) splits the list into shuffled
groups of 75, keeps each group's top scorers at confident steps, and
repeats on the survivors. The once variant (ocp) runs a single global
round instead. Under heavy score jitter the global tournament lets a
crowd of lucky floor scores push the gold phrase out of the top slots,
while a 75-member group rarely holds enough rivals to do that. The
last section times a full-list decode against a purified one, which
decodes through the full list's indexes, and checks it against the
sublist it stands for.
"""

import time

from ctxbias import (
    KeptSet,
    NoiseSpec,
    PurifyParams,
    SmoothingParams,
    build_phi,
    decode_utterance,
    gcp,
    ocp,
    restrict_phi,
)
from ctxbias.harness.config import ExperimentConfig
from ctxbias.harness.corpusgen import generate_corpus
from ctxbias.simulate import SyntheticScorer


def main() -> None:
    config = ExperimentConfig(seed=4)
    corpus = generate_corpus(config)
    blist = corpus.lists[1196]
    vocab = corpus.vocabulary
    noise = NoiseSpec(seed=19, score_jitter_sigma=0.5)
    params = PurifyParams(group_size=75, n_r=2, thres_list=0.5, n_top=10)

    utt = next(u for u in corpus.utterances if u.spans)
    golds = sorted({s.phrase for s in utt.spans})
    scorer = SyntheticScorer(utt, blist, vocab, noise)
    print(f"{utt.uid}: gold phrase indices {golds} in a list of {blist.size}")

    res = gcp(blist, scorer, params)
    for i, rnd in enumerate(res.rounds, start=1):
        print(f"  gcp round {i}: {rnd.groups} groups -> {rnd.survivors} survivors")
    print(f"  gcp kept {res.m_pur} entries; golds kept: "
          f"{[g for g in golds if g in res.kept]}")

    res_o = ocp(blist, scorer, params)
    print(f"  ocp kept {res_o.m_pur} entries; golds kept: "
          f"{[g for g in golds if g in res_o.kept]}")

    # count how often the single global round drops a gold
    dropped = 0
    eligible = 0
    for u in corpus.utterances[:50]:
        if not u.spans:
            continue
        eligible += 1
        sc = SyntheticScorer(u, blist, vocab, noise)
        kept_o = set(ocp(blist, sc, params).kept)
        if any(s.phrase not in kept_o for s in u.spans):
            dropped += 1
    print(f"\nocp dropped a gold from {dropped}/{eligible} spanned utterances "
          f"at sigma={noise.score_jitter_sigma}")

    # what purification buys at decode time
    phi = build_phi(blist, vocab)
    bundle = scorer.bundle()

    t0 = time.perf_counter()
    full = decode_utterance(bundle, blist, phi, SmoothingParams())
    t_full = time.perf_counter() - t0

    # the purified decode reads the full list's scan table and the full
    # mask's nonzeros through the kept set, checked once
    t0 = time.perf_counter()
    pres = gcp(blist, scorer, params)
    kept = KeptSet.of(pres.indices, blist.size)
    small = decode_utterance(scorer.bundle(kept), blist, phi, SmoothingParams(), kept)
    t_small = time.perf_counter() - t0

    same = full.hyp_final == small.hyp_final
    print(f"\ndecode wall time: full list {t_full * 1e3:.1f} ms, "
          f"purify+decode {t_small * 1e3:.1f} ms, same final hypothesis: {same}")

    # the oracle: build the sublist and copy the kept mask rows
    oracle = decode_utterance(scorer.bundle(pres.kept), blist.sublist(pres.kept),
                              restrict_phi(phi, pres.kept), SmoothingParams())
    same_bits = all(getattr(small, f) == getattr(oracle, f)
                    for f in ("hyp_bb", "hyp_casr", "hyp_final", "count_bb", "count_casr"))
    same_bits &= all(getattr(small, a).tobytes() == getattr(oracle, a).tobytes()
                     for a in ("q_bias", "weight", "q_sphr", "q_casr"))
    print(f"decoded as the sublist with its copied mask rows, every field bit for bit "
          f"the same: {same_bits}")


if __name__ == "__main__":
    main()
