"""The benchmark's workloads, why each exists, and what each should show.

Every workload is a closed loop with one caller: the next unit of work
starts when the previous one has finished. Within a unit, the workload
calls ``mark`` (when given) every second or two, after each sweep cell or
chunk of the stream and at the end, with the number of decode clocks
recorded since the last mark; the runner times its reference kernel there,
and those pauses are left out of the unit's wall time. Inputs come from
the run's seed alone (``ExperimentConfig(seed=...)`` drives both the corpus
and the sweep's noise seed), and the package sees only the generated corpus. Unless a
workload says otherwise the scorer noise is the acceptance ``BASE`` noise:
confusion_rate=0.3, distractor_boost=0.3, score_jitter_sigma=0.1.

paper_grid
    Serial ``run_sweep`` plus ``emit_report`` over the paper table
    (M=51/201/601/1196 x baseline/attn/joint/joint_gcp_pp). This is how a
    user produces the paper's table, and every layer does work in it. It is
    where building the scorer once per utterance and computing each metric
    once show up. It sweeps 200 utterances: at 100 its pooled cer moved by
    0.22 of its median (IQR) from seed to seed, near the 0.25 bound.
long_list_stream
    Set-up precomputes ``SyntheticScorer(...).bundle()`` for every
    utterance at M=1196; the timed loop calls ``decode_utterance`` on one
    bundle after another. It isolates ``smoothing`` and ``jointdecode``: at
    M=1196 the dense ``joint_intersection`` is most of the decode. The
    scorer, purification, metrics and runner do nothing in the timed loop.
    It decodes 1000 utterances, not fewer: its f1 rests on one pass over the
    corpus, and at 400 utterances f1 alone moved by 0.16 of its median
    (IQR) from seed to seed.
purify_stress
    Serial ``run_sweep`` at M=1196 with joint_gcp_pp and joint_ocp_pp under
    score_jitter_sigma=0.5 (the acceptance stress noise). Group play
    (``gcp``/``ocp`` and ``select_winners``) dominates the decode clock, the
    intersection runs on short survivor lists, and ``retention`` is the
    quality at stake. It sweeps 400 utterances: at 200 its pooled cer moved
    by 0.22 of its median (IQR) from seed to seed.
parallel_grid
    The paper_grid sweep with ``workers=2``. It is the only workload that
    starts the runner's process pools (one per cell, sixteen per sweep), so
    without it ``harness.runner`` would go unmeasured. BLAS threads are not
    pinned, on purpose: two workers times the default BLAS thread count can
    oversubscribe the cores during attn's matmul, and the run records that
    thread count instead of hiding it. Its outputs must equal a serial
    sweep's, checked on every run. It is not listed in BENCHMARK.json: on a
    shared two-core machine its rtf and setup_s spread over a third of their
    median from run to run, beyond any bound the benchmark may set. Run it
    by name to measure the pools.

Per-layer predictions: which end-to-end metric a change to each layer
should move, and where it should not.

- corpusgen.generate_corpus.s, corpus.build_phi.s: setup_s on every
  workload.
- simulate.scorer_init.s/.calls, simulate.bundle.s, rng.normal_field.s,
  rng.uniform_field.s: utt_per_s on paper_grid and purify_stress; no change
  on long_list_stream (its bundles are built in set-up, so only setup_s
  moves there).
- jointdecode.joint_intersection.s/.bytes_computed,
  jointdecode.decode_utterance.self_s, .interpolate.s, .greedy_decode.s,
  .post_process.s, .attention_decode.s, smoothing.guided_phrase_smooth.s,
  smoothing.triangular_smooth.s: decode_ms_p50, decode_ms_p90 and rtf on
  long_list_stream, utt_per_s on paper_grid; about flat on purify_stress,
  whose intersections run on short survivor lists.
- purify.gcp.s, purify.ocp.s, purify.select_winners.s/.calls,
  purify.groups_scored, purify.groups_confident_ratio, purify.m_pur_mean,
  purify.restrict_phi.s: decode_ms_p50 and rtf on purify_stress; none on
  long_list_stream.
- metrics.cer.s/.calls_per_utt, metrics.phrase_prf.s,
  corpus.scan_occurrences.calls_per_utt: utt_per_s on paper_grid and
  purify_stress.
- runner.pools_started, runner.pool.s, runner.aggregate.s,
  report.emit_report.s, report.bytes_written: utt_per_s on parallel_grid
  (pools) and paper_grid (report).

cer, f1 and retention are deterministic for a seed; any change in them, or
in the output digest, is a correctness regression, not a performance one.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

from ctxbias import corpus, jointdecode, metrics
from ctxbias.harness import corpusgen, report, runner
from ctxbias.harness.config import ExperimentConfig
from ctxbias.simulate import SyntheticScorer

MARK_EVERY = 150  # stream decodes between marks, about a second
BASE_NOISE = {"confusion_rate": 0.3, "distractor_boost": 0.3, "score_jitter_sigma": 0.1}
PAPER_GRID = {
    "list_lengths": (51, 201, 601, 1196),
    "methods": ("baseline", "attn", "joint", "joint_gcp_pp"),
}

DECODE_CLOCK = (
    "decode clock per utterance: purification (gcp/ocp) when the method asks for it, "
    "scorer-bundle slicing for the surviving list, and the decode itself; scorer "
    "construction, metrics, pool start-up and report I/O sit outside it (the runner's "
    "clock, read from UttOutcome.wall_seconds). long_list_stream times decode_utterance "
    "alone on bundles built in set-up. rtf is the summed decode clock over the summed "
    "synthetic audio seconds."
)


@dataclass
class Rep:
    """One repetition of a workload's unit of work."""

    wall: float  # seconds for the whole unit, as a user waits for it
    decode_seconds: list[float]  # per-utterance decode clock
    audio_seconds: float
    ops: int  # utterance decodes attempted (utterance x cell for sweeps)
    failed: int
    output: object  # what digest, check and quality read


def _canon(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


@dataclass
class SweepState:
    config: ExperimentConfig
    corpus: corpusgen.Corpus
    outdir: Path


class SweepWorkload:
    """``run_sweep`` plus ``emit_report`` over one config, repeated."""

    def __init__(self, name: str, n_utterances: int, workers: int = 1, **config) -> None:
        self.name = name
        self.workers = workers
        self.config_fields = {"n_utterances": n_utterances, **BASE_NOISE, **config}

    def config(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(seed=seed, **self.config_fields)

    def ops_per_rep(self) -> int:
        c = self.config(0)
        return c.n_utterances * len(c.methods) * len(c.list_lengths) * c.n_seeds

    def setup(self, seed: int, outdir: Path) -> SweepState:
        config = self.config(seed)
        corp = corpusgen.generate_corpus(config)
        for m in config.list_lengths:
            corpus.build_phi(corp.lists[m], corp.vocabulary)
        return SweepState(config, corp, outdir)

    def rep(self, state: SweepState, tracer=None, workers: int | None = None,
            mark=None) -> Rep:
        """One ``run_sweep`` call per list length and method, then one
        report: the same cells as one call over the whole grid (the pinned
        digests hold for both), marked after each cell and at the end."""
        config = state.config
        results = {}
        paused = 0.0
        start = time.perf_counter()
        for m in config.list_lengths:
            for method in config.methods:
                cell = replace(config, list_lengths=(m,), methods=(method,))
                done = runner.run_sweep(
                    cell,
                    corpus=state.corpus,
                    workers=self.workers if workers is None else workers,
                    keep_outcomes=True,
                )
                results.update(done)
                if mark is not None:
                    paused += mark(sum(len(c.outcomes) for c in done.values()))
        report.emit_report(results, state.outdir)
        if mark is not None:
            paused += mark(0)
        wall = time.perf_counter() - start - paused
        cells = list(results.values())
        return Rep(
            wall=wall,
            decode_seconds=[o.wall_seconds for c in cells for o in c.outcomes],
            audio_seconds=sum(c.audio_seconds for c in cells),
            ops=sum(c.n_utterances for c in cells),
            failed=0,
            output=results,
        )

    def reference_digest(self, state: SweepState) -> str | None:
        """A parallel sweep must reproduce the serial one exactly."""
        if self.workers == 1:
            return None
        return self.digest(state, self.rep(state, workers=1))

    def digest(self, state: SweepState, rep: Rep) -> str:
        """What a user reads from a sweep: every hypothesis and kept set, each
        cell's metric record without its timing, and the report files as
        written (cell metrics and the table). Fields the runner adds later,
        and timings, do not enter, so only a changed output moves it."""
        h = hashlib.sha256()
        for key in sorted(rep.output):
            cell = rep.output[key]
            record = cell.report.to_dict()
            del record["rtf"]
            h.update(_canon([key, record, cell.m_pur_mean]))
            h.update(_canon([[o.uid, o.hyp, o.kept] for o in cell.outcomes]))
        for path in sorted(state.outdir.glob("cell_*.json")):
            record = json.loads(path.read_text(encoding="utf-8"))
            h.update(_canon([path.name, record["metrics"], record.get("m_pur_mean")]))
        h.update((state.outdir / "report.txt").read_bytes())
        return h.hexdigest()

    def check(self, state: SweepState, rep: Rep) -> list[str]:
        """Invariants any correct sweep satisfies, whatever the seed."""
        config, results = state.config, rep.output
        problems = []
        expected = {
            (meth, m, s)
            for meth in config.methods
            for m in config.list_lengths
            for s in config.sweep_seeds
        }
        if set(results) != expected:
            problems.append("sweep cells differ from the config's grid")
        steps = {u.uid: u.n_steps for u in state.corpus.utterances}
        for (method, m, _), cell in results.items():
            where = f"{method} M={m}"
            if [o.uid for o in cell.outcomes] != sorted(steps):
                problems.append(f"{where}: outcomes do not cover the corpus in uid order")
            if any(len(o.hyp) != steps[o.uid] for o in cell.outcomes):
                problems.append(f"{where}: a hypothesis has the wrong length")
            purified = method in runner.PURIFY_METHODS
            for o in cell.outcomes:
                if (o.kept is not None) != purified or (
                    purified
                    and (o.kept[0] != 0 or list(o.kept) != sorted(set(o.kept)) or o.kept[-1] >= m)
                ):
                    problems.append(f"{where}: bad kept set for {o.uid}")
                    break
            r = cell.report
            ratios = (r.precision, r.recall, r.f1, r.retention)
            if r.cer < 0 or not all(0 <= v <= 1 for v in ratios):
                problems.append(f"{where}: metric outside its range")
        names = {report.cell_filename(*key) for key in expected} | {"report.txt", "rtf.csv"}
        if not names <= {p.name for p in state.outdir.iterdir()}:
            problems.append("report files missing")
        return problems

    def quality(self, state: SweepState, rep: Rep) -> dict[str, float]:
        reports = [c.report for c in rep.output.values()]
        errors = sum(r.substitutions + r.insertions + r.deletions for r in reports)
        tp, fp, fn = (sum(getattr(r, k) for r in reports) for k in ("tp", "fp", "fn"))
        purified = [c.report.retention for c in rep.output.values() if c.m_pur_mean is not None]
        return {
            "cer": errors / sum(r.ref_length for r in reports),
            "f1": 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 1.0,
            "retention": sum(purified) / len(purified) if purified else 1.0,
        }


@dataclass
class StreamState:
    corpus: corpusgen.Corpus
    biasing_list: corpus.BiasingList
    phi: corpus.PhiMask
    bundles: list
    config: ExperimentConfig


class StreamWorkload:
    """``decode_utterance`` over bundles precomputed in set-up, one pass over
    the corpus per repetition."""

    workers = 1

    def __init__(self, name: str, n_utterances: int, list_length: int) -> None:
        self.name = name
        self.config_fields = {
            "n_utterances": n_utterances,
            "list_lengths": (list_length,),
            "methods": ("joint",),
            **BASE_NOISE,
        }

    def config(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(seed=seed, **self.config_fields)

    def ops_per_rep(self) -> int:
        return self.config_fields["n_utterances"]

    def setup(self, seed: int, outdir: Path) -> StreamState:
        config = self.config(seed)
        corp = corpusgen.generate_corpus(config)
        m = config.list_lengths[0]
        biasing_list = corp.lists[m]
        phi = corpus.build_phi(biasing_list, corp.vocabulary)
        noise = config.noise_for(seed)
        bundles = [
            SyntheticScorer(utt, biasing_list, corp.vocabulary, noise, phi).bundle()
            for utt in corp.utterances
        ]
        return StreamState(corp, biasing_list, phi, bundles, config)

    def rep(self, state: StreamState, tracer=None, mark=None) -> Rep:
        smooth = state.config.smoothing
        decode_seconds, hyps = [], []
        failed = 0
        paused = 0.0
        marked = 0  # decode clocks recorded up to the last mark
        start = time.perf_counter()
        for i, (utt, bundle) in enumerate(zip(state.corpus.utterances, state.bundles)):
            if mark is not None and i and i % MARK_EVERY == 0:
                paused += mark(len(decode_seconds) - marked)
                marked = len(decode_seconds)
            if tracer is not None:
                tracer.uid = utt.uid
            t0 = time.perf_counter()
            try:
                res = jointdecode.decode_utterance(bundle, state.biasing_list, state.phi, smooth)
            except Exception as exc:  # a failed decode counts, the stream goes on
                if not failed:
                    traceback.print_exc()
                failed += 1
                hyps.append((utt.uid, repr(exc)))
                continue
            decode_seconds.append(time.perf_counter() - t0)
            hyps.append((utt.uid, res.hyp_bb, res.hyp_casr, res.hyp_final))
        if mark is not None:
            paused += mark(len(decode_seconds) - marked)
        wall = time.perf_counter() - start - paused
        if tracer is not None:
            tracer.uid = None
        return Rep(
            wall=wall,
            decode_seconds=decode_seconds,
            audio_seconds=sum(u.duration_seconds for u in state.corpus.utterances),
            ops=len(state.bundles),
            failed=failed,
            output=hyps,
        )

    def reference_digest(self, state: StreamState) -> None:
        return None

    def digest(self, state: StreamState, rep: Rep) -> str:
        return hashlib.sha256(_canon(rep.output)).hexdigest()

    def check(self, state: StreamState, rep: Rep) -> list[str]:
        steps = {u.uid: u.n_steps for u in state.corpus.utterances}
        bad = [
            h[0] for h in rep.output
            if len(h) != 4 or any(len(hyp) != steps[h[0]] for hyp in h[1:])
        ]
        return [f"bad hypotheses for {', '.join(bad[:5])}"] if bad else []

    def quality(self, state: StreamState, rep: Rep) -> dict[str, float]:
        utts = state.corpus.utterances
        finals = [h[3] for h in rep.output]
        errors = sum(sum(metrics.cer(hyp, u.tokens)[1:]) for hyp, u in zip(finals, utts))
        _, _, f1, _, _, _ = metrics.phrase_prf(
            finals, [u.tokens for u in utts], [u.spans for u in utts], state.biasing_list
        )
        # nothing is purified, so every gold phrase stays in the list
        kept = [tuple(range(state.biasing_list.size))] * len(utts)
        return {
            "cer": errors / sum(u.n_steps for u in utts),
            "f1": f1,
            "retention": metrics.retention_rate(kept, [u.spans for u in utts]),
        }


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload("paper_grid", n_utterances=200, **PAPER_GRID),
        StreamWorkload("long_list_stream", n_utterances=1000, list_length=1196),
        SweepWorkload(
            "purify_stress",
            n_utterances=400,
            list_lengths=(1196,),
            methods=("joint_gcp_pp", "joint_ocp_pp"),
            score_jitter_sigma=0.5,
        ),
        SweepWorkload("parallel_grid", n_utterances=200, workers=2, **PAPER_GRID),
    )
}
