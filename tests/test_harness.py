import dataclasses
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from ctxbias import corpus as corpus_mod
from ctxbias import purify, rng, simulate
from ctxbias.bundle import save_bundle
from ctxbias.harness import cli, config, corpusgen, report, runner
from ctxbias.jointdecode import attention_decode, count_phrases, decode_utterance, greedy_decode
from ctxbias.metrics import MetricsReport, cer, phrase_prf, retention_rate
from ctxbias.simulate import SyntheticScorer, synth_backbone
from ctxbias.smoothing import (
    estimate_phrase_length,
    guided_phrase_smooth,
    locate_window,
    triangular_smooth,
)


def _small_config(**kw):
    base = dict(
        n_utterances=12,
        u_min=12,
        u_max=16,
        n_chars=30,
        span_rate=0.9,
        two_span_rate=0.1,
        list_lengths=(51,),
        methods=("joint_pp",),
        n_seeds=1,
        seed=0,
    )
    base.update(kw)
    return config.ExperimentConfig(**base)


# ---------------------------------------------------------------- config


def test_config_round_trip(tmp_path):
    cfg = _small_config(
        span_rate=0.85,
        list_lengths=(51, 101),
        methods=("baseline", "joint"),
        n_seeds=3,
        outdir=str(tmp_path / "deep" / "runs"),
        score_jitter_sigma=0.1,
    )
    path = tmp_path / "exp.ini"
    config.save_config(cfg, path)
    loaded = config.load_config(path)
    assert loaded == cfg


def test_config_validation():
    with pytest.raises(ValueError):
        _small_config(span_rate=1.5)
    with pytest.raises(ValueError):
        _small_config(methods=("nope",))
    with pytest.raises(ValueError):
        _small_config(u_min=5, u_max=5)
    with pytest.raises(ValueError):
        _small_config(list_lengths=(51, 51))
    with pytest.raises(ValueError):
        _small_config(list_lengths=(11,))
    with pytest.raises(ValueError):
        _small_config(n_seeds=0)
    with pytest.raises(ValueError):
        _small_config(methods=("joint", "joint"))
    for sigma in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="score_jitter_sigma"):
            _small_config(score_jitter_sigma=sigma)


@pytest.mark.parametrize(
    "name, value",
    [("n_utterances", 2.5), ("seed", 1.5), ("seed", True), ("n_seeds", 2.0), ("group_size", 75.0),
     ("n_top", np.float64(10)), ("u_min", False), ("list_lengths", (51, 201.0))],
)
def test_config_rejects_a_float_or_bool_integer_field(name, value):
    # a seed of 1.5 once ran seed 1, and 2.5 utterances passed for a count
    with pytest.raises(ValueError, match=f"{name}( item)? must be an integer"):
        _small_config(**{name: value})


@pytest.mark.parametrize(
    "name, value, named",
    [("score_jitter_sigma", True, "score_jitter_sigma must be a real number"),
     ("span_rate", np.False_, "span_rate must be a real number"),
     ("omega", True, "omega must be a real number"),
     ("thres_list", "0.5", "thres_list must be a real number"),
     ("list_lengths", [51, 201], "list_lengths must be a tuple"),
     ("methods", ["joint"], "methods must be a tuple"),
     ("outdir", " runs", "outdir must be a str without surrounding whitespace"),
     ("outdir", Path("runs"), "outdir must be a str")],
)
def test_config_rejects_a_value_it_could_not_save_and_load(name, value, named):
    # a bool ran as a rate of 1.0 and a list was saved as text that does not
    # load; neither is converted quietly
    with pytest.raises(ValueError, match=named):
        _small_config(**{name: value})


def _random_config(gen, case):
    """A valid config with every field drawn, numpy scalars and ints for
    floats among the values."""
    def real(hi=1.0):
        value = float(gen.random() * hi)
        return [value, np.float64(value), int(value), 0, -0.0, 5e-324][int(gen.integers(0, 6))]

    def integer(lo, hi):
        value = int(gen.integers(lo, hi))
        return np.int64(value) if gen.random() < 0.3 else value

    u_min = int(gen.integers(7, 30))
    lengths = sorted({int(m) for m in gen.integers(51, 3000, size=int(gen.integers(1, 5)))})
    methods = gen.permutation(config.KNOWN_METHODS)[: int(gen.integers(1, 10))]
    outdirs = ["runs", "a b/c d", "runs%1", "x;y#z", "", "deep/[x]=y", "multi\nline"]
    return config.ExperimentConfig(
        n_utterances=integer(1, 1000), u_min=u_min, u_max=u_min + int(gen.integers(0, 10)),
        n_chars=integer(20, 300), span_rate=real(), two_span_rate=real(),
        list_lengths=tuple(lengths), label_flip_rate=real(), score_jitter_sigma=real(5.0),
        confusion_rate=real(), distractor_boost=real(), omega=real(), group_size=integer(1, 200),
        n_r=integer(1, 5), thres_list=real(), n_top=integer(1, 30),
        methods=tuple(methods.tolist() if case % 2 else methods), n_seeds=integer(1, 5),
        seed=integer(0, 1 << 40), outdir=outdirs[case % len(outdirs)] + str(case))


def test_every_config_saves_and_loads_back_and_saves_the_same_bytes(tmp_path):
    gen = np.random.default_rng(41)
    for case in range(80):
        cfg = _random_config(gen, case)
        first, second = tmp_path / f"{case}a.ini", tmp_path / f"{case}b.ini"
        config.save_config(cfg, first)
        loaded = config.load_config(first)
        assert loaded == cfg, case
        config.save_config(loaded, second)
        assert second.read_bytes() == first.read_bytes(), case


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "exp.ini"
    config.save_config(_small_config(), path)
    path.write_text(path.read_text() + "\n[corpus]\nmystery = 3\n")
    with pytest.raises(Exception):
        config.load_config(path)


@pytest.mark.parametrize(
    "section, name, raw, reason",
    [
        ("corpus", "n_utterances", "1.5", "invalid literal for int"),
        ("decode", "omega", "high", "could not convert"),
        ("corpus", "list_lengths", "51,x", "invalid literal for int"),
        ("corpus", "list_lengths", "51,,201", "empty item"),
        ("corpus", "list_lengths", "51,201,", "empty item"),
        ("sweep", "methods", "joint,,attn", "empty item"),
        ("sweep", "methods", "", "empty item"),
    ],
)
def test_config_names_the_entry_it_cannot_parse(tmp_path, section, name, raw, reason):
    """A value is never cleaned up quietly: an empty list item, or text that
    is no value of the field's type, fails with the file, section and option."""
    path = tmp_path / "exp.ini"
    config.save_config(_small_config(), path)
    lines = [f"{name} = {raw}" if line.startswith(f"{name} = ") else line
             for line in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=reason) as err:
        config.load_config(path)
    assert f"[{section}] {name} = {raw!r}" in str(err.value)
    assert str(path) in str(err.value)


def test_cli_sweep_reports_the_unparsable_entry(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    config.save_config(_small_config(outdir=str(tmp_path / "runs")), path)
    path.write_text(path.read_text().replace("n_utterances = 12", "n_utterances = 1.5"))
    assert cli.main(["sweep", "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "[corpus] n_utterances = '1.5'" in err["message"]
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "saved, extra, named",
    [
        (False, "[DEFAULT]\nn_utterances = 5\n", r"\[DEFAULT\] entries .*'n_utterances'"),
        (True, "[DEFAULT]\nn_utterances = 5\n", r"\[DEFAULT\] entries .*'n_utterances'"),
        (True, "[extra]\n", r"unknown config sections \['extra'\]"),
        (False, "[Corpus]\nn_utterances = 5\n", r"unknown config sections \['Corpus'\]"),
    ],
)
def test_config_rejects_default_entries_and_unknown_sections(tmp_path, saved, extra, named):
    """A [DEFAULT] entry would be read through every known section present,
    or not at all; an unknown section, even an empty one, is a typo."""
    path = tmp_path / "exp.ini"
    if saved:
        config.save_config(_small_config(), path)
    path.write_text((path.read_text() if saved else "") + extra)
    with pytest.raises(ValueError, match=named) as err:
        config.load_config(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("key", ["alpha", "gamma"])
def test_config_rejects_removed_focal_keys(tmp_path, key):
    # alpha/gamma once sat under [decode] but changed nothing; old files fail
    path = tmp_path / "exp.ini"
    config.save_config(_small_config(), path)
    text = path.read_text().replace("[decode]\n", f"[decode]\n{key} = 0.5\n")
    path.write_text(text)
    with pytest.raises(ValueError, match="unknown config entries"):
        config.load_config(path)


# ---------------------------------------------------------------- corpus


def test_generate_span_rate_zero():
    cfg = _small_config(span_rate=0.0, n_utterances=10)
    corp = corpusgen.generate_corpus(cfg)
    assert corp.span_total == 0
    assert all(not u.spans for u in corp.utterances)


def test_generate_nested_lists_and_shape():
    cfg = _small_config(list_lengths=(51, 101), n_utterances=8)
    corp = corpusgen.generate_corpus(cfg)
    small, big = corp.lists[51], corp.lists[101]
    assert small.size == 51 and big.size == 101
    assert small.phrases == big.phrases[:51]
    assert big.phrases == corp.pool.sublist(tuple(range(101))).phrases
    assert len(set(corp.pool.phrases)) == corp.pool.size


def test_generate_spans_scan_cleanly():
    cfg = _small_config(list_lengths=(51, 101), n_utterances=30, two_span_rate=0.3)
    corp = corpusgen.generate_corpus(cfg)
    for biasing_list in corp.lists.values():
        for utt in corp.utterances:
            found = corpus_mod.scan_occurrences(utt.tokens, biasing_list)
            want = tuple(sorted((s.start, s.phrase) for s in utt.spans))
            assert found == want
    assert any(len(u.spans) == 2 for u in corp.utterances)


def test_generate_records_seeded_span_count():
    cfg = _small_config(n_utterances=200, n_chars=40, list_lengths=(51, 201))
    corp = corpusgen.generate_corpus(cfg)
    # binomial(200, 0.9): mean 180, sd 4.24; the exact draw is pinned
    assert 160 <= corp.span_total <= 198
    assert corp.span_total == sum(1 for u in corp.utterances if u.spans)
    again = corpusgen.generate_corpus(cfg)
    assert again.span_total == corp.span_total


def test_generate_pool_contains_confusable_variants():
    cfg = _small_config(list_lengths=(51, 601), n_utterances=8, n_chars=60)
    corp = corpusgen.generate_corpus(cfg)
    vocab = corp.vocabulary
    golds = list(corp.pool.phrases[:50])
    gold_set = set(golds)
    swaps = 0
    for t in corp.pool.phrases[200:]:
        if len(t) != corpusgen.GOLD_LEN:
            continue
        for g in golds:
            diff = [i for i in range(len(g)) if g[i] != t[i]]
            if len(diff) == 1 and t[diff[0]] == vocab.confusable[g[diff[0]]]:
                swaps += 1
                break
    assert swaps >= 40  # almost every gold contributes its single swaps
    assert not any(p in gold_set for p in corp.pool.phrases[50:])


def test_generate_is_deterministic():
    cfg = _small_config(n_utterances=10)
    a = corpusgen.generate_corpus(cfg)
    b = corpusgen.generate_corpus(cfg)
    assert [u.tokens for u in a.utterances] == [u.tokens for u in b.utterances]
    assert a.pool.phrases == b.pool.phrases
    c = corpusgen.generate_corpus(config.ExperimentConfig(**{**cfg.__dict__, "seed": 1}))
    assert [u.tokens for u in c.utterances] != [u.tokens for u in a.utterances]


def _corpus_digest(corp):
    h = hashlib.sha256()
    h.update(repr((corp.vocabulary.tokens, corp.vocabulary.confusable)).encode("utf-8"))
    h.update(repr(corp.pool.phrases).encode("utf-8"))
    for u in corp.utterances:
        spans = tuple((s.start, s.end, s.phrase) for s in u.spans)
        h.update(repr((u.uid, u.tokens, u.duration_seconds, spans)).encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("fields, digest", [
    ({}, "d89474cfe8bf7928a76afba5a61a7516df939d151c850293d71812edb97bcb27"),
    # purify_stress's corpus
    ({"n_utterances": 400, "list_lengths": (1196,)},
     "4f496dd782dc023e4be3ab76201fc423ab93607f15f53bcf43b99e731b8c7611"),
    # every utterance the tightest two-span layout, U = 7
    ({"n_utterances": 300, "u_min": 7, "u_max": 7, "span_rate": 1.0, "two_span_rate": 1.0},
     "1d71695f9c6bd38509c541324c6b1933aac5ad448c508fc1fb8650b30f29b6ad"),
    # the smallest alphabet: the scrub redraws filler 17 times in 200 utterances,
    # where the configs above never meet a stray gold
    ({"n_chars": 20}, "df2277249f6a5a87b38bc96688166774f5eada0b64e53d3969d1ad8623516bce"),
], ids=["default", "purify_stress", "two_spans_at_u7", "twenty_chars"])
def test_generate_corpus_is_pinned(fields, digest):
    # vocabulary, pool and utterances as the double-loop scrub check and the
    # full set of reference n-gram lengths generated them
    corp = corpusgen.generate_corpus(config.ExperimentConfig(**fields))
    assert _corpus_digest(corp) == digest
    if fields.get("two_span_rate") == 1.0:
        assert all(len(u.spans) == 2 for u in corp.utterances)


def _stray_gold_oracle(tokens, spans, golds):
    """The scrub check as a double loop: every gold at every window."""
    span_at = {(s.start, s.phrase) for s in spans}
    for g_idx, g in enumerate(golds):
        for w in range(len(tokens) - corpusgen.GOLD_LEN + 1):
            if tuple(tokens[w : w + corpusgen.GOLD_LEN]) == g and (w, g_idx + 1) not in span_at:
                return True
    return False


def test_stray_gold_equals_the_double_loop():
    gen = np.random.default_rng(3)
    glen = corpusgen.GOLD_LEN
    n_tok = 4  # a tiny alphabet, so stray golds are common
    draws = (tuple(int(t) for t in gen.integers(0, n_tok, size=glen)) for _ in range(40))
    golds = list(dict.fromkeys([(1,) * glen, *draws]))  # distinct, one of a single token
    index = {g: i for i, g in enumerate(golds, start=1)}

    def layout(tokens, starts):
        spans = []
        for start in starts:
            pick = int(gen.integers(len(golds)))
            tokens[start : start + glen] = golds[pick]
            spans.append(corpus_mod.Span(start, start + glen, pick + 1))
        return tokens, spans

    cases = []
    for _ in range(3000):
        u = int(gen.integers(glen, 12))
        tokens = [int(t) for t in gen.integers(0, n_tok, size=u)]
        n_spans = int(gen.integers(0, 3)) if u >= 2 * glen + 1 else int(gen.integers(0, 2))
        if n_spans == 2:
            s1 = int(gen.integers(0, u - 2 * glen))
            starts = [s1, int(gen.integers(s1 + glen + 1, u - glen + 1))]
        else:
            starts = [int(gen.integers(0, u - glen + 1))] * n_spans
        cases.append(layout(tokens, starts))
    # the tightest two-span layout the generator draws: U = 7, spans at 0 and 4
    for _ in range(200):
        cases.append(layout([int(t) for t in gen.integers(0, n_tok, size=7)], [0, 4]))
    # a gold window that overlaps a span without starting at it: stray,
    # whether it is another gold or the span's own gold one step late
    ga, gb = next((a, b) for a in golds for b in golds if a != b and b[:-1] == a[1:])
    overlap = ([9, *ga, gb[-1]], [corpus_mod.Span(1, 1 + glen, index[ga])])
    rep = golds[0]
    shifted = ([9, *rep, rep[0]], [corpus_mod.Span(1, 1 + glen, index[rep])])
    # a span labelled with another gold than the one at its site: stray
    mislabelled = ([*ga, 9], [corpus_mod.Span(0, glen, index[gb])])
    clean = ([9, *ga, 9], [corpus_mod.Span(1, 1 + glen, index[ga])])
    for tokens, spans in (overlap, shifted, mislabelled):
        assert _stray_gold_oracle(tokens, spans, golds)
        assert corpusgen.stray_gold(tokens, spans, index)
    assert not corpusgen.stray_gold(*clean, index)

    outcomes = set()
    for tokens, spans in cases:
        want = _stray_gold_oracle(tokens, spans, golds)
        assert corpusgen.stray_gold(tokens, spans, index) == want, (tokens, spans)
        outcomes.add(want)
    assert outcomes == {True, False}


# ---------------------------------------------------------------- runner


def test_sweep_zero_noise_is_exact():
    cfg = _small_config(
        methods=("baseline", "attn", "joint_pp", "joint_gcp_pp"), n_utterances=12
    )
    corp = corpusgen.generate_corpus(cfg)
    results = runner.run_sweep(cfg, corpus=corp)
    assert len(results) == len(cfg.methods) * len(cfg.list_lengths) * cfg.n_seeds
    for method in cfg.methods:
        cell = results[(method, 51, 0)]
        assert cell.report.cer == 0.0
        assert cell.report.f1 == 1.0
        assert cell.report.retention == 1.0
        assert cell.n_utterances == 12
        assert cell.report.rtf > 0.0
    purified = results[("joint_gcp_pp", 51, 0)]
    assert purified.m_pur_mean is not None and purified.m_pur_mean < 51
    assert results[("joint_pp", 51, 0)].m_pur_mean is None


def test_sweep_outcomes_are_per_utterance():
    cfg = _small_config(n_utterances=6)
    results = runner.run_sweep(cfg, keep_outcomes=True)
    cell = results[("joint_pp", 51, 0)]
    assert len(cell.outcomes) == 6
    assert [o.uid for o in cell.outcomes] == sorted(o.uid for o in cell.outcomes)
    for out in cell.outcomes:
        assert out.count_final >= out.count_bb


def test_sweep_workers_match_serial():
    cfg = _small_config(
        n_utterances=8,
        list_lengths=(51, 201),
        methods=("baseline", "attn", "joint", "joint_gcp_pp"),
        n_seeds=2,
        score_jitter_sigma=0.1,
        confusion_rate=0.3,
    )
    corp = corpusgen.generate_corpus(cfg)
    serial = runner.run_sweep(cfg, corpus=corp, workers=1, keep_outcomes=True)
    parallel = runner.run_sweep(cfg, corpus=corp, workers=2, keep_outcomes=True)
    assert list(serial) == list(parallel)
    assert len(serial) == 2 * 2 * 4
    for key in serial:
        a, b = serial[key].report.to_dict(), parallel[key].report.to_dict()
        a.pop("rtf"), b.pop("rtf")
        assert a == b
        assert serial[key].m_pur_mean == parallel[key].m_pur_mean
        assert [(o.uid, o.hyp, o.kept) for o in serial[key].outcomes] == [
            (o.uid, o.hyp, o.kept) for o in parallel[key].outcomes
        ]


def test_spawned_worker_attention_decode_matches_in_process_at_m1196():
    # at M=1196 the bits of attention_decode's weights @ phi can depend on
    # the BLAS thread count (on a 2-core host, for 2 of these 6 bundles),
    # which M=51/201 above do not show: workers started as run_sweep starts
    # them must give the in-process q_bias bit for bit
    cfg = config.ExperimentConfig(n_utterances=6, list_lengths=(1196,), confusion_rate=0.3,
                                  distractor_boost=0.3, score_jitter_sigma=0.1)
    corp = corpusgen.generate_corpus(cfg)
    biasing_list = corp.lists[1196]
    phi = corpus_mod.build_phi(biasing_list, corp.vocabulary)
    bundles = [SyntheticScorer(utt, biasing_list, corp.vocabulary, cfg.noise_for(0)).bundle()
               for utt in corp.utterances]
    here = [attention_decode(b, biasing_list, phi) for b in bundles]
    n = len(bundles)
    with ProcessPoolExecutor(
        max_workers=1,
        mp_context=multiprocessing.get_context("spawn"),
        initializer=runner._init_sweep,
        initargs=({1196: biasing_list}, {1196: phi}, corp.vocabulary, cfg),
    ) as pool:
        there = list(pool.map(attention_decode, bundles, [biasing_list] * n, [phi] * n))
    for a, b in zip(there, here):
        assert a.q_bias.tobytes() == b.q_bias.tobytes()
        assert a.q_casr.tobytes() == b.q_casr.tobytes()


def _direct_decode(utt, biasing_list, vocab, cfg, method, seed):
    """The obvious per-cell decode: a fresh scorer at this very list."""
    noise = cfg.noise_for(seed)
    if method == "baseline":
        hyp = greedy_decode(synth_backbone(utt, noise, vocab))
        return hyp, hyp, hyp, None
    scorer = SyntheticScorer(utt, biasing_list, vocab, noise)
    phi = corpus_mod.build_phi(biasing_list, vocab)
    kept = None
    if "cp" in method:
        pick = purify.gcp if "gcp" in method else purify.ocp
        kept = tuple(pick(biasing_list, scorer, cfg.purify_for(seed)).kept.indices.tolist())
        res = decode_utterance(scorer.bundle(kept), biasing_list.sublist(kept),
                               purify.restrict_phi(phi, kept), cfg.smoothing)
    elif method.startswith("attn"):
        res = attention_decode(scorer.bundle(), biasing_list, phi)
    else:
        res = decode_utterance(scorer.bundle(), biasing_list, phi, cfg.smoothing)
    return res.hyp_bb, res.hyp_casr, res.hyp_final, kept


def _sweep_matches_direct_recomputation(cfg):
    """Run the sweep and recompute every outcome and cell metric the obvious
    way; return the purified cells' retentions."""
    corp = corpusgen.generate_corpus(cfg)
    results = runner.run_sweep(cfg, corpus=corp, keep_outcomes=True)
    refs = {u.uid: u for u in corp.utterances}
    for (method, m, seed), cell in results.items():
        bl = corp.lists[m]
        edits = np.zeros(3, dtype=int)
        hyps = []
        for o in cell.outcomes:
            utt = refs[o.uid]
            hyp_bb, hyp_casr, hyp_final, kept = _direct_decode(
                utt, bl, corp.vocabulary, cfg, method, seed)
            hyps.append(hyp_final if method.endswith("_pp") else hyp_casr)
            assert o.hyp == hyps[-1]
            assert o.kept == kept
            assert o.edits == cer(o.hyp, utt.tokens)[1:]
            assert o.cer_bb == cer(hyp_bb, utt.tokens)[0]
            assert o.cer_final == cer(hyp_final, utt.tokens)[0]
            assert o.count_bb == count_phrases(hyp_bb, bl)
            assert o.count_final == count_phrases(hyp_final, bl)
            edits += cer(o.hyp, utt.tokens)[1:]
        r = cell.report
        assert (r.substitutions, r.insertions, r.deletions) == tuple(edits)
        assert r.cer == edits.sum() / r.ref_length
        utts = [refs[o.uid] for o in cell.outcomes]
        assert (r.precision, r.recall, r.f1, r.tp, r.fp, r.fn) == phrase_prf(
            hyps, [u.tokens for u in utts], [u.spans for u in utts], bl)
        # the slow form: an unpurified cell keeps the full list
        kept = [o.kept if o.kept is not None else tuple(range(bl.size)) for o in cell.outcomes]
        assert r.retention == retention_rate(kept, [refs[o.uid].spans for o in cell.outcomes])
    return [c.report.retention for (meth, _, _), c in results.items() if meth in runner.PURIFY_METHODS]


def test_sweep_metrics_match_direct_recomputation():
    cfg = _small_config(
        n_utterances=10,
        list_lengths=(51, 201),
        methods=("baseline", "attn", "attn_pp", "joint", "joint_pp", "joint_gcp", "joint_gcp_pp",
                 "joint_ocp"),
        confusion_rate=0.4,
        distractor_boost=0.3,
        score_jitter_sigma=0.2,
        label_flip_rate=0.05,
    )
    _sweep_matches_direct_recomputation(cfg)


def test_sweep_retention_matches_direct_recomputation_when_purification_drops_golds():
    # under the stress jitter both purifications drop a gold, so a runner
    # that reports a wrong retention for purified cells cannot pass
    cfg = _small_config(
        n_utterances=10,
        list_lengths=(51, 201),
        methods=("joint_gcp_pp", "joint_ocp_pp"),
        confusion_rate=0.4,
        distractor_boost=0.3,
        score_jitter_sigma=0.5,
        label_flip_rate=0.05,
    )
    retentions = _sweep_matches_direct_recomputation(cfg)
    assert len(retentions) == 4 and min(retentions) < 1.0


def test_sweep_builds_one_scorer_per_utterance_seed(monkeypatch):
    cfg = _small_config(
        n_utterances=4,
        list_lengths=(51, 201, 601, 1196),
        methods=("baseline", "attn", "joint", "joint_gcp_pp"),
        n_seeds=2,
        score_jitter_sigma=0.1,
        confusion_rate=0.3,
        distractor_boost=0.3,
    )
    corp = corpusgen.generate_corpus(cfg)
    counts = {"scorers": 0, "cer": 0, "pools": 0, "decodes": 0}
    scanned = []  # (decode_one call, list size, hypothesis) of every phrase count

    class CountingScorer(SyntheticScorer):
        def __init__(self, *args, **kwargs):
            counts["scorers"] += 1
            super().__init__(*args, **kwargs)

    class CountingPool(runner.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            counts["pools"] += 1
            super().__init__(*args, **kwargs)

    def counting_cer(hyp, ref):
        counts["cer"] += 1
        return cer(hyp, ref)

    def counting_count_phrases(hyp, biasing_list):
        scanned.append((counts["decodes"], biasing_list.size, hyp))
        return count_phrases(hyp, biasing_list)

    runner_decode_one = runner.decode_one

    def counting_decode_one(*args):
        counts["decodes"] += 1
        return runner_decode_one(*args)

    monkeypatch.setattr(runner, "SyntheticScorer", CountingScorer)
    monkeypatch.setattr(runner, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(runner, "cer", counting_cer)
    monkeypatch.setattr(runner, "count_phrases", counting_count_phrases)
    monkeypatch.setattr(runner, "decode_one", counting_decode_one)
    runner.run_sweep(cfg, corpus=corp)
    utt_seeds = 4 * 2
    assert counts["scorers"] == utt_seeds
    # at most two error-rate alignments per biased cell, one per baseline cell
    assert counts["cer"] <= utt_seeds * 4 * (3 * 2 + 1)
    # per list length, each distinct hypothesis is counted once: the backbone
    # hypothesis every method shares, and at most one final one per biased method
    assert counts["decodes"] == utt_seeds
    assert len(set(scanned)) == len(scanned)
    assert utt_seeds * 4 <= len(scanned) <= utt_seeds * 4 * (1 + 3)
    assert counts["pools"] == 0

    counts.update(scorers=0, cer=0)
    runner.run_sweep(cfg, corpus=corp, workers=2)
    assert counts["pools"] == 1

    counts.update(scorers=0, pools=0)
    baseline_only = config.ExperimentConfig(**{**cfg.__dict__, "methods": ("baseline",)})
    runner.run_sweep(baseline_only, corpus=corp)
    assert counts["scorers"] == 0


def _untimed(cell):
    """A cell's records without its clock."""
    report = cell.report.to_dict()
    del report["rtf"]
    outcomes = [dataclasses.replace(o, wall_seconds=0.0) for o in cell.outcomes]
    return report, cell.audio_seconds, cell.n_utterances, cell.m_pur_mean, outcomes


def test_sweep_decodes_each_base_method_once_per_list(monkeypatch):
    """A _pp cell reads the guard's choice from its base method's decode:
    each base method is purified and decoded once per utterance, seed and
    list, the twin cells share that decode's clock, and every cell equals,
    timing aside, the cell of its method swept alone."""
    cfg = _small_config(
        n_utterances=4,
        list_lengths=(51, 201),
        methods=config.KNOWN_METHODS,
        n_seeds=2,
        score_jitter_sigma=0.2,
        confusion_rate=0.4,
        distractor_boost=0.3,
    )
    corp = corpusgen.generate_corpus(cfg)
    calls = Counter()

    def counted(name):
        fn = getattr(runner, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in ("gcp", "ocp", "decode_utterance", "attention_decode", "greedy_decode"):
        monkeypatch.setattr(runner, name, counted(name))
    together = runner.run_sweep(cfg, corpus=corp, keep_outcomes=True)
    monkeypatch.undo()
    per_list = 4 * 2 * 2  # utterances x seeds x lists
    # joint, joint_ocp and joint_gcp each run decode_utterance
    assert calls == {"gcp": per_list, "ocp": per_list, "attention_decode": per_list,
                     "greedy_decode": per_list, "decode_utterance": 3 * per_list}
    twins = [(k, (k[0].removesuffix("_pp"), *k[1:])) for k in together if k[0].endswith("_pp")]
    assert len(twins) == 4 * 2 * 2
    for pp, base in twins:
        assert [o.wall_seconds for o in together[pp].outcomes] == [
            o.wall_seconds for o in together[base].outcomes]
        assert together[pp].decode_seconds == together[base].decode_seconds
    for method in cfg.methods:
        alone = runner.run_sweep(dataclasses.replace(cfg, methods=(method,)), corpus=corp,
                                 keep_outcomes=True)
        assert len(alone) == 2 * 2
        for key, cell in alone.items():
            assert _untimed(cell) == _untimed(together[key]), key


def test_the_decode_clock_leaves_the_scorer_draw_out(monkeypatch):
    """The scorer draws a phrase column when a query first reads it, inside
    decode_one's clock; the draw is the scorer's forward pass, so its seconds
    leave the clock. With every normal draw slowed by 10 ms, no cell's clock
    comes near the time slept, and every cell equals an unslowed run's."""
    cfg = _small_config(n_utterances=8, list_lengths=(51, 201), methods=("joint_gcp", "joint"),
                        score_jitter_sigma=0.1, confusion_rate=0.3, distractor_boost=0.3)
    corp = corpusgen.generate_corpus(cfg)
    plain = runner.run_sweep(cfg, corpus=corp, keep_outcomes=True)
    draw, slept = rng.normal_field, []

    def slow(*args, **kwargs):
        time.sleep(0.01)
        slept.append(0.01)
        return draw(*args, **kwargs)

    monkeypatch.setattr(simulate.rng, "normal_field", slow)
    slowed = runner.run_sweep(cfg, corpus=corp, keep_outcomes=True)
    monkeypatch.undo()
    # a list and a noise draw per build, and at least one phrase draw per
    # utterance inside the first cell's clock
    assert len(slept) >= 3 * 8
    for key, cell in slowed.items():
        assert cell.decode_seconds < 0.1 * sum(slept), key
        assert _untimed(cell) == _untimed(plain[key]), key


def test_sweep_rejects_lists_that_do_not_nest():
    cfg = _small_config(n_utterances=4, list_lengths=(51, 201), methods=("joint",))
    corp = corpusgen.generate_corpus(cfg)
    shifted = corp.pool.sublist((0, *range(2, 52)))  # drops phrase 1: no prefix
    bad = dataclasses.replace(corp, lists={51: shifted, 201: corp.lists[201]})
    with pytest.raises(ValueError, match="prefix"):
        runner.run_sweep(cfg, corpus=bad)


def test_sweep_rejects_a_corpus_without_a_swept_length():
    corp = corpusgen.generate_corpus(_small_config(n_utterances=4, list_lengths=(51, 201)))
    cfg = _small_config(n_utterances=4, list_lengths=(51, 300), methods=("joint",))
    with pytest.raises(ValueError, match=r"lacks swept length \[300\]; it has \[51, 201\]"):
        runner.run_sweep(cfg, corpus=corp)


def test_sweep_rejects_a_corpus_without_utterances():
    cfg = _small_config(n_utterances=4, methods=("baseline", "joint"))
    empty = dataclasses.replace(corpusgen.generate_corpus(cfg), utterances=())
    with pytest.raises(ValueError, match="no utterances"):
        runner.run_sweep(cfg, corpus=empty)


def test_sweep_rejects_a_repeated_utterance_id():
    # a repeated id would join an outcome to the wrong utterance's length
    # and duration when the cell is aggregated
    cfg = _small_config(n_utterances=4, methods=("baseline",))
    corp = corpusgen.generate_corpus(cfg)
    renamed = (corp.utterances[0], dataclasses.replace(corp.utterances[1], uid="utt0000"),
               *corp.utterances[2:])
    with pytest.raises(ValueError, match=r"repeats utterance id \['utt0000'\]"):
        runner.run_sweep(cfg, corpus=dataclasses.replace(corp, utterances=renamed))


def test_sweep_rejects_a_list_that_does_not_hold_its_swept_length():
    corp = corpusgen.generate_corpus(_small_config(n_utterances=4, list_lengths=(51, 201)))
    cfg = _small_config(n_utterances=4, list_lengths=(51,), methods=("joint",))
    mislabelled = dataclasses.replace(corp, lists={51: corp.lists[201]})
    with pytest.raises(ValueError, match="M=51 holds 201 entries, not 51"):
        runner.run_sweep(cfg, corpus=mislabelled)


def test_sweep_checks_spans_before_any_scorer_or_pool(monkeypatch):
    cfg = _small_config(n_utterances=4, list_lengths=(51, 201), methods=("joint",))
    corp = corpusgen.generate_corpus(cfg)
    i, utt = next((i, u) for i, u in enumerate(corp.utterances) if u.spans)
    # phrase 100 is in the longer list only
    far = dataclasses.replace(utt, spans=(dataclasses.replace(utt.spans[0], phrase=100),))
    bad = dataclasses.replace(corp, utterances=(*corp.utterances[:i], far,
                                                *corp.utterances[i + 1:]))
    started = []
    monkeypatch.setattr(runner, "SyntheticScorer", lambda *a: started.append("scorer"))
    monkeypatch.setattr(runner, "ProcessPoolExecutor", lambda **kw: started.append("pool"))
    with pytest.raises(ValueError, match=f"utterance {utt.uid}: span references phrase 100"):
        runner.run_sweep(cfg, corpus=bad, workers=2)
    assert started == []


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_rejects_workers_below_one(workers):
    cfg = _small_config(n_utterances=4)
    with pytest.raises(ValueError, match="workers"):
        runner.run_sweep(cfg, workers=workers)


# ---------------------------------------------------------------- report


def _fake_cell(method, m, seed, cer_v, f1_v, rtf_v):
    rep = MetricsReport(
        cer=cer_v,
        precision=f1_v,
        recall=f1_v,
        f1=f1_v,
        retention=1.0,
        rtf=rtf_v,
        substitutions=1,
        insertions=0,
        deletions=0,
        ref_length=100,
        tp=9,
        fp=1,
        fn=1,
    )
    return runner.CellResult(
        method=method,
        list_length=m,
        seed=seed,
        report=rep,
        decode_seconds=rtf_v * 50.0,
        audio_seconds=50.0,
        n_utterances=4,
        m_pur_mean=None,
        outcomes=None,
    )


def test_table_golden_layout():
    results = {
        ("baseline", 51, 0): _fake_cell("baseline", 51, 0, 0.05, 0.9, 0.01),
        ("baseline", 201, 0): _fake_cell("baseline", 201, 0, 0.06, 0.85, 0.02),
        ("joint", 51, 0): _fake_cell("joint", 51, 0, 0.01, 0.995, 0.03),
        ("joint", 201, 0): _fake_cell("joint", 201, 0, 0.02, 0.97, 0.04),
    }
    records = [report.cell_record(r) for r in results.values()]
    table = report.format_table(records)
    assert table == (
        "method    M=51                       M=201\n"
        "--------  -------------------------  -------------------------\n"
        "baseline  5.00 // 90.00|90.00|90.00  6.00 // 85.00|85.00|85.00\n"
        "joint     1.00 // 99.50|99.50|99.50  2.00 // 97.00|97.00|97.00\n"
    )


def test_table_averages_over_seeds():
    results = {
        ("joint", 51, 0): _fake_cell("joint", 51, 0, 0.02, 0.9, 0.01),
        ("joint", 51, 1): _fake_cell("joint", 51, 1, 0.04, 1.0, 0.03),
    }
    records = [report.cell_record(r) for r in results.values()]
    table = report.format_table(records)
    assert "3.00 // 95.00|95.00|95.00" in table


def test_emit_report_files_and_masking(tmp_path):
    results = {
        ("joint", 51, 0): _fake_cell("joint", 51, 0, 0.02, 0.9, 0.01),
    }
    written = report.emit_report(results, tmp_path)
    names = {p.name for p in written}
    assert names == {"cell_joint_M51_s0.json", "report.txt", "rtf.csv"}
    rec = json.loads((tmp_path / "cell_joint_M51_s0.json").read_text())
    assert set(rec["timing"]) == {"decode_seconds", "audio_seconds", "rtf"}
    assert "rtf" not in rec["metrics"]

    slower = {("joint", 51, 0): _fake_cell("joint", 51, 0, 0.02, 0.9, 0.07)}
    report.emit_report(slower, tmp_path / "again")
    rec2 = json.loads((tmp_path / "again" / "cell_joint_M51_s0.json").read_text())
    assert rec != rec2
    rec.pop("timing"), rec2.pop("timing")
    assert rec == rec2

    csv_lines = (tmp_path / "rtf.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "method,list_length,mean_rtf,total_decode_seconds,total_audio_seconds"
    assert csv_lines[1].startswith("joint,51,0.010000,")


def test_read_cells_round_trip(tmp_path):
    results = {
        ("joint", 51, 0): _fake_cell("joint", 51, 0, 0.02, 0.9, 0.01),
        ("attn", 51, 0): _fake_cell("attn", 51, 0, 0.08, 0.6, 0.01),
    }
    report.emit_report(results, tmp_path)
    records = report.read_cells(tmp_path)
    rebuilt = report.format_table(records)
    direct = report.format_table(
        [report.cell_record(r) for r in results.values()]
    )
    # files come back in name order, so compare rows irrespective of order
    assert sorted(rebuilt.splitlines()) == sorted(direct.splitlines())
    with pytest.raises(ValueError):
        report.read_cells(tmp_path / "empty")
    # a broken cell file is named, with what is wrong in it
    good = report.cell_record(results[("joint", 51, 0)])

    def edited(key, value):
        record = json.loads(json.dumps(good))
        outer, _, inner = key.partition(".")
        if inner:
            record[outer][inner] = value
        else:
            record[outer] = value
        return json.dumps(record)

    no_f1 = json.loads(json.dumps(good))
    del no_f1["metrics"]["f1"]
    for text, named in ((json.dumps({"method": "joint", "list_length": 51}), "key 'metrics'"),
                        (json.dumps(no_f1), "'metrics.f1'"),
                        (edited("metrics", [0.1]), "no key 'metrics.cer'"),
                        ("{not json", "is not JSON"),
                        ("[1, 2]", "holds a JSON list"),
                        # a value of the wrong type is named with its key
                        (edited("method", 7), "key 'method' holds 7, not a string"),
                        (edited("list_length", "51"), "key 'list_length' holds '51', not an"),
                        (edited("list_length", 51.0), "key 'list_length' holds 51.0, not an"),
                        (edited("list_length", True), "key 'list_length' holds True, not an"),
                        (edited("metrics.cer", "x"), "key 'metrics.cer' holds 'x', not a number"),
                        (edited("metrics.f1", None), "key 'metrics.f1' holds None, not a number"),
                        (edited("metrics.recall", False), "key 'metrics.recall' holds False"),
                        (edited("timing.rtf", [0.01]), r"key 'timing.rtf' holds \[0.01\]"),
                        (edited("timing.audio_seconds", {}), "key 'timing.audio_seconds'")):
        broken = tmp_path / "broken"
        broken.mkdir(exist_ok=True)
        (broken / "cell_x.json").write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=named) as caught:
            report.read_cells(broken)
        assert "cell_x.json" in str(caught.value)
    # ints count as numbers, and the record comes back as it was written
    (broken / "cell_x.json").write_text(edited("timing.decode_seconds", 1), encoding="utf-8")
    assert report.read_cells(broken)[0]["timing"]["decode_seconds"] == 1


# ------------------------------------------------------------------- cli


def test_cli_sweep_then_report(tmp_path, capsys):
    cfg = _small_config(n_utterances=6, outdir=str(tmp_path / "runs"))
    ini = tmp_path / "exp.ini"
    config.save_config(cfg, ini)
    assert cli.main(["sweep", "--config", str(ini)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cells"] == 1
    assert (tmp_path / "runs" / "report.txt").exists()
    assert cli.main(["report", "--runs", str(tmp_path / "runs")]) == 0
    assert "M=51" in capsys.readouterr().out
    # a fresh --outdir is made, parents too
    fresh = tmp_path / "fresh" / "sub"
    assert cli.main(["report", "--runs", str(tmp_path / "runs"), "--outdir", str(fresh)]) == 0
    assert "M=51" in capsys.readouterr().out
    assert (fresh / "report.txt").read_text(encoding="utf-8") == (
        tmp_path / "runs" / "report.txt").read_text(encoding="utf-8")
    assert (fresh / "rtf.csv").exists()


@pytest.mark.parametrize("key, value, named", [
    ("metrics.cer", "x", "key 'metrics.cer' holds 'x', not a number"),
    ("list_length", None, "no key 'list_length'"),
], ids=["mistyped", "missing"])
def test_cli_report_names_the_broken_cell_file_and_key(tmp_path, capsys, key, value, named):
    runs = tmp_path / "runs"
    report.write_cells({("joint", 51, 0): _fake_cell("joint", 51, 0, 0.02, 0.9, 0.01)}, runs)
    (cell,) = runs.glob("cell_*.json")
    record = json.loads(cell.read_text(encoding="utf-8"))
    outer, _, inner = key.partition(".")
    target = record[outer] if inner else record
    if value is None:
        del target[inner or outer]
    else:
        target[inner or outer] = value
    cell.write_text(json.dumps(record), encoding="utf-8")
    fresh = tmp_path / "fresh"
    assert cli.main(["report", "--runs", str(runs), "--outdir", str(fresh)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert cell.name in err["message"] and named in err["message"], err
    # nothing is written for a run that cannot be read
    assert not fresh.exists()


def test_cli_gen_and_decode(tmp_path, capsys):
    cfg = _small_config(n_utterances=6, outdir=str(tmp_path / "runs"),
                        confusion_rate=0.3, score_jitter_sigma=0.1)
    ini = tmp_path / "exp.ini"
    config.save_config(cfg, ini)
    assert cli.main(["gen", "--config", str(ini)]) == 0
    gen_out = json.loads(capsys.readouterr().out)
    assert gen_out["n_utterances"] == 6
    # gen's files are an export for people to read: the real phrases one per
    # line, in list order, and one row per utterance with its spans
    corp = corpusgen.generate_corpus(cfg)
    vocab, written = corp.vocabulary, tmp_path / "runs" / "corpus"
    assert (written / "list_M51.txt").read_text(encoding="utf-8").splitlines() == [
        vocab.decode(phrase) for phrase in corp.lists[51].phrases[1:]]
    rows = []
    for u in corp.utterances:
        spans = ";".join(f"{s.start}:{s.end}:{s.phrase}" for s in u.spans)
        rows.append("\t".join([u.uid, vocab.decode(u.tokens), str(u.duration_seconds)]
                              + ([spans] if spans else [])))
    assert any(u.spans for u in corp.utterances) and not all(u.spans for u in corp.utterances)
    assert (written / "utterances.tsv").read_text(encoding="utf-8").splitlines() == rows

    dump = tmp_path / "dump.npz"
    code = cli.main(
        ["decode", "--config", str(ini), "--utt", "utt0003", "--out", str(dump)]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["uid"] == "utt0003"
    arrays = np.load(dump)

    # the same decode, run directly
    utt = next(u for u in corp.utterances if u.uid == "utt0003")
    biasing_list = corp.lists[51]
    phi = corpus_mod.build_phi(biasing_list, corp.vocabulary)
    bundle = SyntheticScorer(utt, biasing_list, corp.vocabulary, cfg.noise_for(cfg.seed)).bundle()
    res = decode_utterance(bundle, biasing_list, phi, cfg.smoothing)
    q_slist = triangular_smooth(bundle.q_list, cfg.smoothing)
    length = estimate_phrase_length(q_slist)
    expected = {
        "q_list": bundle.q_list,
        "q_slist": q_slist,
        "q_sphr": guided_phrase_smooth(bundle.q_phr, bundle.q_list, q_slist),
        "q_bias": res.q_bias,
        "q_casr": res.q_casr,
        "window_start": [locate_window(bundle.q_list, length, u)
                         for u in range(utt.n_steps)],
        "phrase_length": length,
        "p_bb": bundle.p_bb,
        "hyp_bb": res.hyp_bb,
        "hyp_casr": res.hyp_casr,
        "hyp_final": res.hyp_final,
        "ref": utt.tokens,
    }
    assert set(arrays.files) == set(expected)
    for name, want in expected.items():
        assert np.array_equal(arrays[name], np.asarray(want)), name



def _stored_bundle_case(tmp_path):
    """A config on disk and the synthetic bundle of utt0003 against its list."""
    cfg = _small_config(n_utterances=6, outdir=str(tmp_path / "runs"),
                        confusion_rate=0.3, score_jitter_sigma=0.1, distractor_boost=0.3)
    ini = tmp_path / "exp.ini"
    config.save_config(cfg, ini)
    corp = corpusgen.generate_corpus(cfg)
    utt = next(u for u in corp.utterances if u.uid == "utt0003")
    biasing_list = corp.lists[51]
    phi = corpus_mod.build_phi(biasing_list, corp.vocabulary)
    bundle = SyntheticScorer(utt, biasing_list, corp.vocabulary, cfg.noise_for(cfg.seed)).bundle()
    return cfg, ini, biasing_list, phi, bundle


def test_cli_decode_of_a_stored_bundle_equals_the_in_process_decode(tmp_path, capsys):
    # file names without the .npz suffix are used exactly as given, both for
    # the stored bundle and for the dump
    cfg, ini, biasing_list, phi, bundle = _stored_bundle_case(tmp_path)
    stored = tmp_path / "utt0003_bundle"
    save_bundle(bundle, stored)
    dumps = {}
    for extra in ([], ["--bundle", str(stored)]):
        dump = tmp_path / f"dump{len(dumps)}"
        assert cli.main(["decode", "--config", str(ini), "--utt", "utt0003",
                         "--out", str(dump), *extra]) == 0
        assert json.loads(capsys.readouterr().out)["arrays"] == str(dump)
        with np.load(dump) as arrays:
            dumps[len(dumps)] = {name: arrays[name] for name in arrays.files}
    res = decode_utterance(bundle, biasing_list, phi, cfg.smoothing)
    expected = {"q_list": bundle.q_list, "q_slist": res.weight, "q_sphr": res.q_sphr,
                "q_bias": res.q_bias, "q_casr": res.q_casr, "p_bb": bundle.p_bb,
                "window_start": res.window_start, "phrase_length": res.phrase_length,
                "hyp_bb": res.hyp_bb, "hyp_casr": res.hyp_casr, "hyp_final": res.hyp_final}
    for name, want in expected.items():
        want = np.asarray(want)
        for dump in dumps.values():
            assert dump[name].dtype == want.dtype and dump[name].tobytes() == want.tobytes(), name


def test_cli_decode_rejects_a_malformed_bundle_file_naming_the_array(tmp_path, capsys):
    cfg, ini, biasing_list, phi, bundle = _stored_bundle_case(tmp_path)
    arrays = {name: np.array(getattr(bundle, name))
              for name in ("q_list", "q_phr", "q_tok", "p_bb")}
    nan_phr = arrays["q_phr"].copy()
    nan_phr[2, 1] = np.nan
    cases = {
        "q_phr": {**arrays, "q_phr": nan_phr},  # breaks the value contract
        "p_bb": {k: a for k, a in arrays.items() if k != "p_bb"},  # missing
        "q_tok": {**arrays, "q_tok": arrays["q_tok"][:, :-1], "p_bb": arrays["p_bb"][:, :-1]},
        "q_list": {k: a[:-1] for k, a in arrays.items()},  # not this utterance's steps
    }
    for name, bad in cases.items():
        path = tmp_path / f"bad_{name}.npz"
        np.savez(path, **bad)
        assert cli.main(["decode", "--config", str(ini), "--utt", "utt0003",
                         "--bundle", str(path), "--out", str(tmp_path / "dump.npz")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and name in err["message"], (name, err)

def test_cli_reports_errors_as_json(tmp_path, capsys):
    assert cli.main(["sweep", "--config", str(tmp_path / "missing.ini")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"error", "message"}

    cfg = _small_config(n_utterances=4, outdir=str(tmp_path / "r"))
    ini = tmp_path / "exp.ini"
    config.save_config(cfg, ini)
    assert cli.main(["decode", "--config", str(ini), "--utt", "nope"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    # only an absent flag means the longest list
    assert cli.main(["decode", "--config", str(ini), "--utt", "utt0001",
                     "--list-length", "0"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "list length 0" in err["message"]


def test_cli_sweep_rejects_workers_below_one(tmp_path, capsys):
    cfg = _small_config(n_utterances=4, outdir=str(tmp_path / "runs"))
    ini = tmp_path / "exp.ini"
    config.save_config(cfg, ini)
    assert cli.main(["sweep", "--config", str(ini), "--workers", "-3"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "workers" in err["message"]
    assert not (tmp_path / "runs").exists()


def test_cli_seed_override(tmp_path, capsys):
    cfg = _small_config(n_utterances=4, outdir=str(tmp_path / "a"))
    ini = tmp_path / "exp.ini"
    config.save_config(cfg, ini)
    assert cli.main(["gen", "--config", str(ini), "--seed", "3",
                     "--outdir", str(tmp_path / "b")]) == 0
    json.loads(capsys.readouterr().out)
    assert (tmp_path / "b" / "corpus" / "utterances.tsv").exists()
    saved = config.load_config(tmp_path / "b" / "corpus" / "config.ini")
    assert saved.seed == 3


def test_core_imports_load_no_reference_module():
    # the decode core and the harness never import ctxbias.reference
    src = Path(corpus_mod.__file__).resolve().parents[1]
    probe = (
        "import sys, ctxbias, ctxbias.harness.runner, ctxbias.harness.cli\n"
        "print([m for m in sys.modules if m.startswith('ctxbias') and"
        " any(w in m for w in ('reference', 'losses', 'attention', 'embedding'))])"
    )
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
