"""Command line interface.

Verbs:
  gen     write the synthetic corpus (utterances, biasing lists) to disk
  decode  decode one utterance (synthetic scores or a stored bundle) and dump
          every intermediate array
  sweep   run the full method x list-length x seed matrix and report
  report  rebuild the aggregate table and CSV from existing cell JSONs

Failures print a machine-readable error record to stderr and exit
nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from ..bundle import load_bundle
from ..corpus import build_phi, save_biasing_list, save_utterances
from ..jointdecode import decode_utterance
from ..metrics import cer
from ..simulate import SyntheticScorer
from .config import ExperimentConfig, ensure_outdir, load_config, save_config
from .corpusgen import generate_corpus
from .report import emit_report, read_cells, write_rtf_csv, write_table
from .runner import run_sweep


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "outdir", None) is not None:
        overrides["outdir"] = args.outdir
    if overrides:
        from dataclasses import replace

        cfg = replace(cfg, **overrides)
    return cfg


def _cmd_gen(args) -> int:
    cfg = _load(args)
    corpus = generate_corpus(cfg)
    out = ensure_outdir(cfg) / "corpus"
    out.mkdir(parents=True, exist_ok=True)
    save_utterances(corpus.utterances, corpus.vocabulary, out / "utterances.tsv")
    for m, biasing_list in corpus.lists.items():
        save_biasing_list(biasing_list, corpus.vocabulary, out / f"list_M{m}.txt")
    save_config(cfg, out / "config.ini")
    meta = {
        "n_utterances": len(corpus.utterances),
        "span_total": corpus.span_total,
        "pool_size": corpus.pool.size,
        "list_lengths": list(cfg.list_lengths),
        "vocab_size": corpus.vocabulary.size,
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"outdir": str(out), **meta}))
    return 0


def _cmd_decode(args) -> int:
    cfg = _load(args)
    corpus = generate_corpus(cfg)
    matches = [u for u in corpus.utterances if u.uid == args.utt]
    if not matches:
        raise ValueError(f"no utterance named {args.utt!r}")
    utt = matches[0]
    m = max(cfg.list_lengths) if args.list_length is None else args.list_length
    if m not in corpus.lists:
        raise ValueError(f"list length {m} not in {sorted(corpus.lists)}")
    biasing_list = corpus.lists[m]
    phi = build_phi(biasing_list, corpus.vocabulary)
    if args.bundle is None:
        noise = cfg.noise_for(cfg.seed)
        bundle = SyntheticScorer(utt, biasing_list, corpus.vocabulary, noise, phi).bundle()
    else:
        # a stored bundle, as a real model would hand it over: the contract is
        # checked on loading, its phrase and vocabulary axes by the decoder
        bundle = load_bundle(args.bundle)
        if bundle.n_steps != utt.n_steps:
            raise ValueError(f"q_list has {bundle.n_steps} steps, utterance {utt.uid} "
                             f"has {utt.n_steps}")
    res = decode_utterance(bundle, biasing_list, phi, cfg.smoothing)
    out = Path(args.out) if args.out else ensure_outdir(cfg) / f"{utt.uid}_M{m}.npz"
    # through an open file, so the arrays land at exactly the reported path
    # (given a name, np.savez appends ".npz" to it)
    with open(out, "wb") as f:
        np.savez(
            f,
            q_list=np.asarray(bundle.q_list, dtype=float),
            q_slist=res.weight,
            q_sphr=res.q_sphr,
            q_bias=res.q_bias,
            q_casr=res.q_casr,
            window_start=res.window_start,
            phrase_length=np.asarray(res.phrase_length),
            p_bb=bundle.p_bb,
            hyp_bb=np.asarray(res.hyp_bb),
            hyp_casr=np.asarray(res.hyp_casr),
            hyp_final=np.asarray(res.hyp_final),
            ref=np.asarray(utt.tokens),
        )
    summary = {
        "uid": utt.uid,
        "list_length": m,
        "cer_bb": cer(res.hyp_bb, utt.tokens)[0],
        "cer_final": cer(res.hyp_final, utt.tokens)[0],
        "ref_text": corpus.vocabulary.decode(utt.tokens),
        "hyp_text": corpus.vocabulary.decode(res.hyp_final),
        "arrays": str(out),
    }
    print(json.dumps(summary, ensure_ascii=False))
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    corpus = generate_corpus(cfg)
    results = run_sweep(cfg, corpus=corpus, workers=args.workers)
    out = ensure_outdir(cfg)
    written = emit_report(results, out)
    print(json.dumps({"outdir": str(out), "cells": len(results),
                      "files": len(written)}))
    return 0


def _cmd_report(args) -> int:
    records = read_cells(args.runs)
    outdir = Path(args.outdir) if args.outdir else Path(args.runs)
    outdir.mkdir(parents=True, exist_ok=True)
    table = write_table(records, outdir)
    write_rtf_csv(records, outdir)
    print(table.read_text(encoding="utf-8"), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxbias",
        description="Contextual-biasing inference pipeline on a synthetic scorer bank.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file (defaults used when omitted)")
    common.add_argument("--seed", type=int, help="override the global seed")
    common.add_argument("--outdir", help="override the output directory")

    gen = sub.add_parser("gen", parents=[common], help="generate and save the corpus")
    gen.set_defaults(fn=_cmd_gen)

    dec = sub.add_parser("decode", parents=[common],
                         help="decode one utterance, dumping intermediates")
    dec.add_argument("--utt", required=True, help="utterance id, e.g. utt0007")
    dec.add_argument("--list-length", type=int, help="which swept list to use")
    dec.add_argument("--out", help="npz path for the intermediate arrays")
    dec.add_argument("--bundle", metavar="FILE.npz",
                     help="decode this stored bundle (save_bundle's format) instead of "
                          "the synthetic scorer's")
    dec.set_defaults(fn=_cmd_decode)

    swp = sub.add_parser("sweep", parents=[common], help="run the full sweep")
    swp.add_argument("--workers", type=int, default=1,
                     help="worker processes, at least 1")
    swp.set_defaults(fn=_cmd_sweep)

    rep = sub.add_parser("report", help="rebuild reports from cell JSONs")
    rep.add_argument("--runs", required=True, help="directory holding cell_*.json")
    rep.add_argument("--outdir", help="where to write the table and CSV")
    rep.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not hides
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
