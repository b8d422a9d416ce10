"""Sweep runner: decode the corpus under every (method, list length, seed)
cell and aggregate metrics.

The unit of work is one utterance under one sweep seed. Every swept list
is a prefix of the longest one, and the scorer's noise is counter-based,
so one ``SyntheticScorer`` built against the longest list serves every
list length: a cell of length m slices the scorer's first m columns. The
scorer is built once per utterance and seed, and only when some method
needs it; then every (list length, method) cell is decoded from it.
Before anything is decoded, ``run_sweep`` checks the corpus: each swept
list holds its length and is a prefix of the longest, utterance ids are
unique, and every span names a phrase of the shortest list. With
several workers one process pool serves the whole sweep, and outcomes are
reduced in utterance-id order, so the metrics are identical to a serial
run. Workers are spawned, not forked: they start from a fresh import and
get the sweep's lists, masks and config through the pool initializer.

Timing covers the per-utterance decode path only: purification when the
method asks for it, score slicing for the surviving sublist, and decoding.
Producing the correlation scores themselves is the scorer's forward pass,
i.e. model inference, so it stays outside the clock, as do corpus
generation, the outcome's tuple of kept indices, metric computation, and
I/O. With several workers the recorded decode time is the sum of
per-utterance walls rather than elapsed wall clock.
"""

from __future__ import annotations

import functools
import multiprocessing
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..corpus import BiasingList, PhiMask, Utterance, Vocabulary, build_phi, validate_spans
from ..jointdecode import attention_decode, count_phrases, decode_utterance, greedy_decode
from ..metrics import MetricsReport, cer, phrase_prf, retention_rate, rtf
# purified cells decode through the full list's indexes; restrict_phi stays
# importable here only because perfbench's tracer wraps it
from ..purify import gcp, ocp, restrict_phi  # noqa: F401
from ..simulate import SyntheticScorer, synth_backbone
from .config import ExperimentConfig
from .corpusgen import Corpus, generate_corpus

PURIFY_METHODS = {"joint_ocp", "joint_ocp_pp", "joint_gcp", "joint_gcp_pp"}


@dataclass(frozen=True)
class UttOutcome:
    uid: str
    hyp: tuple[int, ...]
    kept: tuple[int, ...] | None  # purified list indices, None without purify
    wall_seconds: float
    edits: tuple[int, int, int]  # substitutions, insertions, deletions of hyp
    count_bb: int
    count_final: int
    cer_bb: float
    cer_final: float


@dataclass(frozen=True, eq=False)
class CellResult:
    method: str
    list_length: int
    seed: int
    report: MetricsReport
    decode_seconds: float
    audio_seconds: float
    n_utterances: int
    m_pur_mean: float | None
    outcomes: tuple[UttOutcome, ...] | None


def decode_one(
    utt: Utterance,
    lists: dict[int, BiasingList],
    phis: dict[int, PhiMask],
    vocab: Vocabulary,
    config: ExperimentConfig,
    sweep_seed: int,
) -> dict[tuple[int, str], UttOutcome]:
    """Decode one utterance under one sweep seed, for every (list length,
    method) cell of the sweep. ``run_sweep`` checks that each list holds its
    swept length, that the lists nest and that the spans fit the shortest."""
    noise = config.noise_for(sweep_seed)
    params = config.purify_for(sweep_seed)
    scorer = p_bb = None
    if any(method != "baseline" for method in config.methods):
        longest = max(lists)
        scorer = SyntheticScorer(utt, lists[longest], vocab, noise, phis[longest])
    if "baseline" in config.methods:
        p_bb = synth_backbone(utt, noise, vocab)

    # many cells decode to the same hypothesis: align each one against the
    # reference once, and count its phrases once per list
    score = functools.cache(lambda hyp: cer(hyp, utt.tokens))

    outcomes = {}
    for m, biasing_list in lists.items():
        phi = phis[m]
        # phrases count against the cell list, purified or not
        count = functools.cache(functools.partial(count_phrases, biasing_list=biasing_list))
        for method in config.methods:
            kept = None
            t0 = time.perf_counter()
            if method == "baseline":
                hyp_bb = hyp_casr = hyp_final = greedy_decode(p_bb)
            else:
                if method in PURIFY_METHODS:
                    pick = gcp if "gcp" in method else ocp
                    kept = pick(biasing_list, scorer, params).kept
                bundle = scorer.bundle(np.arange(m) if kept is None else kept)
                if method.startswith("attn"):
                    res = attention_decode(bundle, biasing_list, phi)
                else:
                    res = decode_utterance(bundle, biasing_list, phi, config.smoothing, kept)
                hyp_bb, hyp_casr, hyp_final = res.hyp_bb, res.hyp_casr, res.hyp_final
            wall = time.perf_counter() - t0

            hyp = hyp_final if method.endswith("_pp") else hyp_casr
            outcomes[(m, method)] = UttOutcome(
                uid=utt.uid,
                hyp=hyp,
                kept=None if kept is None else tuple(kept.indices.tolist()),
                wall_seconds=wall,
                edits=score(hyp)[1:],
                count_bb=count(hyp_bb),
                count_final=count(hyp_final),
                cer_bb=score(hyp_bb)[0],
                cer_final=score(hyp_final)[0],
            )
    return outcomes


_SWEEP = {}


def _init_sweep(lists, phis, vocab, config):
    _SWEEP.update(lists=lists, phis=phis, vocab=vocab, config=config)


def _sweep_worker(task: tuple[Utterance, int]) -> dict[tuple[int, str], UttOutcome]:
    utt, sweep_seed = task
    return decode_one(utt, _SWEEP["lists"], _SWEEP["phis"], _SWEEP["vocab"],
                      _SWEEP["config"], sweep_seed)


def _aggregate(
    outcomes,
    utterances,
    biasing_list: BiasingList,
    method: str,
    list_length: int,
    seed: int,
    keep_outcomes: bool,
) -> CellResult:
    outcomes = sorted(outcomes, key=lambda o: o.uid)
    by_uid = {u.uid: u for u in utterances}
    total_err = np.zeros(3, dtype=int)
    ref_len = 0
    hyps, refs, spans = [], [], []
    decode_seconds = 0.0
    audio_seconds = 0.0
    for out in outcomes:
        utt = by_uid[out.uid]
        total_err += out.edits
        ref_len += utt.n_steps
        hyps.append(out.hyp)
        refs.append(utt.tokens)
        spans.append(utt.spans)
        decode_seconds += out.wall_seconds
        audio_seconds += utt.duration_seconds
    p, r, f1, tp, fp, fn = phrase_prf(hyps, refs, spans, biasing_list)
    # every span names a phrase of the cell list (run_sweep checks this), so
    # an unpurified cell keeps every gold phrase
    kept = [out.kept for out in outcomes if out.kept is not None]
    report = MetricsReport(
        cer=float(total_err.sum()) / ref_len,
        precision=p,
        recall=r,
        f1=f1,
        retention=retention_rate(kept, spans) if kept else 1.0,
        rtf=rtf(decode_seconds, audio_seconds),
        substitutions=int(total_err[0]),
        insertions=int(total_err[1]),
        deletions=int(total_err[2]),
        ref_length=ref_len,
        tp=tp,
        fp=fp,
        fn=fn,
    )
    return CellResult(
        method=method,
        list_length=list_length,
        seed=seed,
        report=report,
        decode_seconds=decode_seconds,
        audio_seconds=audio_seconds,
        n_utterances=len(outcomes),
        m_pur_mean=float(np.mean([len(k) for k in kept])) if kept else None,
        outcomes=tuple(outcomes) if keep_outcomes else None,
    )


def run_sweep(
    config: ExperimentConfig,
    corpus: Corpus | None = None,
    workers: int = 1,
    keep_outcomes: bool = False,
) -> dict[tuple[str, int, int], CellResult]:
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if corpus is None:
        corpus = generate_corpus(config)
    missing = sorted(set(config.list_lengths) - set(corpus.lists))
    if missing:
        raise ValueError(f"the corpus lacks swept length {missing}; it has {sorted(corpus.lists)}")
    lists = {m: corpus.lists[m] for m in config.list_lengths}
    longest = lists[max(lists)]
    for m, biasing_list in lists.items():
        if biasing_list.size != m:
            raise ValueError(f"swept list M={m} holds {biasing_list.size} entries, not {m}")
        if longest.phrases[:m] != biasing_list.phrases:
            raise ValueError(f"swept list M={m} is not a prefix of the longest list")
    if not corpus.utterances:
        raise ValueError("the corpus has no utterances")
    uids = Counter(utt.uid for utt in corpus.utterances)
    repeated = sorted(uid for uid, n in uids.items() if n > 1)
    if repeated:
        raise ValueError(f"the corpus repeats utterance id {repeated}")
    # spans that fit the shortest list fit every list (_aggregate relies on it)
    for utt in corpus.utterances:
        validate_spans(utt, lists[min(lists)])
    phis = {m: build_phi(bl, corpus.vocabulary) for m, bl in lists.items()}
    tasks = [(utt, s) for s in config.sweep_seeds for utt in corpus.utterances]
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_init_sweep,
            initargs=(lists, phis, corpus.vocabulary, config),
        ) as pool:
            per_task = list(pool.map(_sweep_worker, tasks, chunksize=4))
    else:
        per_task = [
            decode_one(utt, lists, phis, corpus.vocabulary, config, s)
            for utt, s in tasks
        ]
    n = len(corpus.utterances)
    results: dict[tuple[str, int, int], CellResult] = {}
    for m, biasing_list in lists.items():
        for i, sweep_seed in enumerate(config.sweep_seeds):
            for method in config.methods:
                outcomes = [cells[(m, method)] for cells in per_task[i * n : (i + 1) * n]]
                results[(method, m, sweep_seed)] = _aggregate(
                    outcomes, corpus.utterances, biasing_list,
                    method, m, sweep_seed, keep_outcomes,
                )
    return results
