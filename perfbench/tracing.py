"""Outside-in tracing: spans recorded around the package's public calls.

A ``Tracer`` replaces module and class attributes with timing wrappers for
the duration of a ``with tracer.installed():`` block and puts every original
object back afterwards, so untraced runs execute exactly the package code.
Each wrapper is installed where its caller looks the name up: ``runner``
imports ``gcp``, ``cer``, ``decode_utterance`` and friends into its own
namespace, ``decode_utterance`` resolves ``joint_intersection`` in
``jointdecode``'s globals, and ``simulate`` calls ``rng.normal_field``
through the module attribute.

Spans live in memory and are reduced to the per-layer metrics after the
run. A span's self time is its duration minus the time its direct children
cover; the traced code is single-threaded, so children never overlap.
Worker processes of a parallel sweep record into their own memory, which is
discarded: a traced parallel run sees the runner, not the decode layers.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass

from ctxbias import corpus, jointdecode, metrics, purify, rng, simulate
from ctxbias.harness import corpusgen, report, runner


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    uid: str | None  # utterance being decoded, None outside a decode

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.uid: str | None = None
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.uid))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        if self._open.pop() != idx:
            raise RuntimeError("spans must close in the order they opened")

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def take(self) -> tuple[list[Span], dict[str, float]]:
        """Hand over everything recorded so far and start afresh."""
        if self._open:
            raise RuntimeError("cannot take spans while some are open")
        spans, counters = self.spans, self.counters
        self.spans, self.counters = [], {}
        return spans, counters

    def wrap(self, fn, name: str, after=None, uid_of=None):
        """Time every call of ``fn`` as a span named ``name``.

        ``after(tracer, args, result)`` records counters once the span has
        closed; ``uid_of(args)`` names the utterance the call works on.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            saved = tracer.uid
            if uid_of is not None:
                tracer.uid = uid_of(args)
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
                tracer.uid = saved
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def targets(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, replacement) for every traced name."""
        w = self.wrap
        scorer = simulate.SyntheticScorer
        decode = w(jointdecode.decode_utterance, "jointdecode.decode_utterance")
        greedy = w(jointdecode.greedy_decode, "jointdecode.greedy_decode")
        scan = w(corpus.scan_occurrences, "corpus.scan_occurrences")
        build_phi = w(corpus.build_phi, "corpus.build_phi")
        return [
            (corpusgen, "generate_corpus",
             w(corpusgen.generate_corpus, "corpusgen.generate_corpus")),
            (corpus, "build_phi", build_phi),
            (runner, "build_phi", build_phi),
            (runner, "decode_one",
             w(runner.decode_one, "runner.decode_one", uid_of=lambda a: a[0].uid)),
            (runner, "_aggregate", w(runner._aggregate, "runner.aggregate")),
            (runner, "ProcessPoolExecutor", self._pool_class(runner.ProcessPoolExecutor)),
            (scorer, "__init__", w(scorer.__init__, "simulate.scorer_init")),
            (scorer, "bundle", w(scorer.bundle, "simulate.bundle")),
            (scorer, "q_list_for", w(scorer.q_list_for, "simulate.q_list_for")),
            (scorer, "q_phr_for", w(scorer.q_phr_for, "simulate.q_phr_for")),
            (rng, "normal_field", w(rng.normal_field, "rng.normal_field")),
            (rng, "uniform_field", w(rng.uniform_field, "rng.uniform_field")),
            (runner, "gcp", w(runner.gcp, "purify.gcp", after=_count_m_pur)),
            (runner, "ocp", w(runner.ocp, "purify.ocp", after=_count_m_pur)),
            (purify, "select_winners", w(purify.select_winners, "purify.select_winners")),
            (runner, "restrict_phi", w(runner.restrict_phi, "purify.restrict_phi")),
            (runner, "decode_utterance", decode),
            (jointdecode, "decode_utterance", decode),
            (runner, "attention_decode",
             w(runner.attention_decode, "jointdecode.attention_decode")),
            (runner, "greedy_decode", greedy),
            (jointdecode, "greedy_decode", greedy),
            (jointdecode, "triangular_smooth",
             w(jointdecode.triangular_smooth, "smoothing.triangular_smooth")),
            (jointdecode, "guided_phrase_smooth",
             w(jointdecode.guided_phrase_smooth, "smoothing.guided_phrase_smooth")),
            (jointdecode, "joint_intersection",
             w(jointdecode.joint_intersection, "jointdecode.joint_intersection",
               after=_count_intersection_bytes)),
            (jointdecode, "interpolate", w(jointdecode.interpolate, "jointdecode.interpolate")),
            (jointdecode, "post_process",
             w(jointdecode.post_process, "jointdecode.post_process")),
            (jointdecode, "scan_occurrences", scan),
            (metrics, "scan_occurrences", scan),
            (runner, "cer", w(runner.cer, "metrics.cer")),
            (runner, "phrase_prf", w(runner.phrase_prf, "metrics.phrase_prf")),
            (report, "emit_report",
             w(report.emit_report, "report.emit_report", after=_count_report_bytes)),
        ]

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def __enter__(self):
                tracer.count("runner.pools_started")
                self._trace_span = tracer.begin("runner.pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.end(self._trace_span)

        return TracedPool

    @contextmanager
    def installed(self):
        """Swap the wrappers in; restore every original attribute on exit."""
        saved = []
        try:
            for owner, attr, replacement in self.targets():
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _count_m_pur(tracer: Tracer, args, result) -> None:
    tracer.count("purify.calls")
    tracer.count("purify.m_pur_total", result.m_pur)


def _count_intersection_bytes(tracer: Tracer, args, result) -> None:
    q_sphr, q_tok = args[1], args[2]
    # size of the dense (U, M, V) float64 product the intersection forms
    tracer.count("jointdecode.joint_intersection.bytes_computed",
                 q_sphr.shape[0] * q_sphr.shape[1] * q_tok.shape[1] * 8)


def _count_report_bytes(tracer: Tracer, args, result) -> None:
    tracer.count("report.bytes_written", sum(p.stat().st_size for p in result))


# Per-layer metrics and their units. Every metric except the ratios is
# additive: it reports one set-up plus the mean of one repetition of the
# workload's unit of work. Ratios are taken over the timed loop alone.
TIMED_SPANS = (
    "corpusgen.generate_corpus", "corpus.build_phi", "simulate.scorer_init",
    "simulate.bundle", "rng.normal_field", "jointdecode.joint_intersection",
    "jointdecode.interpolate", "jointdecode.greedy_decode", "jointdecode.post_process",
    "jointdecode.attention_decode", "smoothing.triangular_smooth",
    "smoothing.guided_phrase_smooth", "purify.gcp", "purify.ocp",
    "purify.select_winners", "purify.restrict_phi", "metrics.cer", "metrics.phrase_prf",
    "runner.pool", "runner.aggregate", "report.emit_report",
)
RATIOS = {
    "purify.groups_confident_ratio": "ratio",
    "purify.m_pur_mean": "count",
    "metrics.cer.calls_per_utt": "1/utt",
    "corpus.scan_occurrences.calls_per_utt": "1/utt",
}
ADDITIVE = {
    **{name + ".s": "s" for name in TIMED_SPANS},
    "rng.uniform_field.s": "s",
    "jointdecode.decode_utterance.self_s": "s",
    "simulate.scorer_init.calls": "count",
    "jointdecode.joint_intersection.bytes_computed": "B",
    "purify.select_winners.calls": "count",
    "purify.groups_scored": "count",
    "runner.pools_started": "count",
    "report.bytes_written": "B",
}
# traced utt_per_s over untraced, from repetitions that alternate in one run
TRACE_RATIO = "trace.utt_per_s_ratio"
LAYER_UNITS = {**ADDITIVE, **RATIOS, TRACE_RATIO: "ratio"}


def _layer_values(spans: list[Span], counters: dict[str, float], n_utts: int) -> dict:
    """Per-layer values over one batch of spans covering n_utts decodes."""
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    in_purify: dict[str, int] = {}
    child_seconds = [0.0] * len(spans)
    direct_uniform = 0.0
    for s in spans:
        seconds[s.name] = seconds.get(s.name, 0.0) + s.seconds
        calls[s.name] = calls.get(s.name, 0) + 1
        parent = spans[s.parent].name if s.parent >= 0 else None
        if s.parent >= 0:
            child_seconds[s.parent] += s.seconds
        if parent in ("purify.gcp", "purify.ocp"):
            in_purify[s.name] = in_purify.get(s.name, 0) + 1
        # normal_field draws its uniforms through the same traced name;
        # count direct calls only, so the two rng layers do not overlap
        if s.name == "rng.uniform_field" and parent != "rng.normal_field":
            direct_uniform += s.seconds
    groups = in_purify.get("simulate.q_list_for", 0)
    n_purify = counters.get("purify.calls", 0)
    values = {name + ".s": seconds.get(name, 0.0) for name in TIMED_SPANS}
    values.update({
        "rng.uniform_field.s": direct_uniform,
        "jointdecode.decode_utterance.self_s": sum(
            s.seconds - child_seconds[i]
            for i, s in enumerate(spans)
            if s.name == "jointdecode.decode_utterance"
        ),
        "simulate.scorer_init.calls": calls.get("simulate.scorer_init", 0),
        "jointdecode.joint_intersection.bytes_computed":
            counters.get("jointdecode.joint_intersection.bytes_computed", 0),
        "purify.select_winners.calls": calls.get("purify.select_winners", 0),
        "purify.groups_scored": groups,
        "runner.pools_started": counters.get("runner.pools_started", 0),
        "report.bytes_written": counters.get("report.bytes_written", 0),
        "purify.groups_confident_ratio":
            in_purify.get("simulate.q_phr_for", 0) / groups if groups else 0.0,
        "purify.m_pur_mean":
            counters.get("purify.m_pur_total", 0) / n_purify if n_purify else 0.0,
        "metrics.cer.calls_per_utt": calls.get("metrics.cer", 0) / max(n_utts, 1),
        "corpus.scan_occurrences.calls_per_utt":
            calls.get("corpus.scan_occurrences", 0) / max(n_utts, 1),
    })
    return values


def layer_metrics(setup, loop, n_reps: int, utts_per_rep: int) -> dict[str, float]:
    """Per-layer metrics from the (spans, counters) of one traced set-up and
    of a traced loop of n_reps repetitions."""
    first = _layer_values(*setup, n_utts=0)
    timed = _layer_values(*loop, n_utts=n_reps * utts_per_rep)
    out = {name: first[name] + timed[name] / n_reps for name in ADDITIVE}
    out.update({name: timed[name] for name in RATIOS})
    return out
