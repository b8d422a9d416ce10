"""Tests for the benchmark itself: metric names, the percentile helper, the
scaling of timings to nominal machine speed, the trace wrappers, and the
output digests.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PINS = json.loads(run.PINS.read_text(encoding="utf-8"))

TINY = dict(n_utterances=4, list_lengths=(51, 201),
            methods=("baseline", "attn", "joint", "joint_gcp_pp", "joint_ocp_pp"))


def test_metric_names_and_units_are_well_formed():
    for names_units in (run.END_TO_END_UNITS, tracing.LAYER_UNITS):
        for name, unit in names_units.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit


def test_spec_matches_the_code():
    listed = [w["name"] for w in SPEC["workloads"]]
    assert listed == [name for name in workloads.WORKLOADS if name != "parallel_grid"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.LAYER_UNITS


@pytest.mark.parametrize("n", [1, 2, 7, 100, 1001])
def test_percentile_matches_numpy_and_counts_samples(n):
    values = [random.Random(n).uniform(0, 10) for _ in range(n)]
    for q in (0, 10, 50, 90, 99, 100):
        value, count = run.percentile(values, q)
        assert value == pytest.approx(np.percentile(values, q), rel=1e-12, abs=1e-12)
        assert count == n


def test_percentile_hand_values_and_bad_input():
    assert run.percentile([3.0, 1.0, 2.0, 4.0], 50) == (2.5, 4)
    assert run.percentile([5.0], 90) == (5.0, 1)
    assert run.percentile(list(range(11)), 90) == (9.0, 11)
    with pytest.raises(ValueError):
        run.percentile([], 50)
    with pytest.raises(ValueError):
        run.percentile([1.0], 101)


def test_timings_scale_to_nominal_speed_and_quality_does_not():
    loop = run.Loop()
    loop.reps = [workloads.Rep(wall=2.0, decode_seconds=[0.01, 0.03], audio_seconds=4.0,
                               ops=2, failed=0, output=None)]
    # two segments: the first at half the nominal speed, the second at nominal
    loop.segments = [(1, 1.5, run.REF_SECONDS * 2), (1, 0.5, run.REF_SECONDS)]
    loop.setup_ref_seconds = [run.REF_SECONDS * 4] * 2  # set-ups at a quarter of it
    wl = workloads.WORKLOADS["paper_grid"]
    quality = {"cer": 0.1, "f1": 0.5, "retention": 1.0}
    values, raw, _ = run.end_to_end(wl, loop, [3.0, 1.0, 2.0], quality)
    assert run.machine_scale(loop.ref_seconds()) == pytest.approx(2 / 3)
    assert raw == pytest.approx({"utt_per_s": 1.0, "decode_ms_p50": 20.0, "decode_ms_p90": 28.0,
                                 "rtf": 0.01, "setup_s": 2.0})
    assert values["utt_per_s"] == pytest.approx(2 / (0.75 + 0.5))
    assert values["decode_ms_p50"] == pytest.approx(17.5)  # of 5 and 30 ms
    assert values["decode_ms_p90"] == pytest.approx(27.5)
    assert values["rtf"] == pytest.approx(0.035 / 4)
    assert values["setup_s"] == pytest.approx(raw["setup_s"] / 4)
    loop.segments.pop()
    with pytest.raises(RuntimeError):
        run.end_to_end(wl, loop, [3.0], quality)
    assert {k: values[k] for k in quality} == quality
    assert run.reference_seconds() > 0


def _attributes(tracer):
    return {(id(owner), attr): vars(owner)[attr] for owner, attr, _ in tracer.targets()}


def test_trace_wrappers_restore_every_attribute(tmp_path):
    wl = workloads.SweepWorkload("tiny", **TINY)
    tracer = tracing.Tracer()
    before = _attributes(tracer)
    with tracer.installed():
        during = _attributes(tracer)
        state = wl.setup(0, tmp_path)
        wl.rep(state, tracer)
    after = _attributes(tracer)
    assert all(during[k] is not before[k] for k in before)
    assert all(after[k] is before[k] for k in before)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("boom")
    assert all(_attributes(tracer)[k] is before[k] for k in before)


def test_traced_run_matches_untraced_and_records_layers(tmp_path):
    wl = workloads.SweepWorkload("tiny", **TINY)
    state = wl.setup(0, tmp_path)
    plain = wl.digest(state, wl.rep(state))
    tracer = tracing.Tracer()
    with tracer.installed():
        traced_state = wl.setup(0, tmp_path)
        setup = tracer.take()
        rep = wl.rep(traced_state, tracer)
        loop = tracer.take()
    assert wl.digest(traced_state, rep) == plain

    spans = loop[0]
    by_name = {s.name for s in spans}
    for name in ("runner.decode_one", "jointdecode.joint_intersection", "purify.gcp",
                 "purify.ocp", "purify.select_winners", "metrics.cer", "report.emit_report",
                 "simulate.scorer_init", "rng.normal_field", "runner.aggregate"):
        assert name in by_name, name
    for s in spans:
        assert s.end >= s.start
        if s.name == "jointdecode.joint_intersection":
            assert spans[s.parent].name == "jointdecode.decode_utterance"
            assert s.uid is not None
    metrics = tracing.layer_metrics(setup, loop, n_reps=1, utts_per_rep=wl.ops_per_rep())
    assert set(metrics) | {tracing.TRACE_RATIO} == set(tracing.LAYER_UNITS)
    assert metrics["simulate.scorer_init.calls"] == 4 * 2 * 4  # utts x lengths x scored methods
    assert metrics["corpusgen.generate_corpus.s"] > 0
    assert 0 < metrics["jointdecode.decode_utterance.self_s"]


def test_self_time_subtracts_direct_children():
    spans = [
        tracing.Span("jointdecode.decode_utterance", 0.0, 10.0, -1, "u"),
        tracing.Span("jointdecode.joint_intersection", 1.0, 4.0, 0, "u"),
        tracing.Span("jointdecode.interpolate", 5.0, 6.0, 0, "u"),
        tracing.Span("rng.normal_field", 6.0, 9.0, 0, "u"),
        tracing.Span("rng.uniform_field", 7.0, 8.0, 3, "u"),
        tracing.Span("rng.uniform_field", 11.0, 13.0, -1, None),
    ]
    values = tracing._layer_values(spans, {}, n_utts=1)
    assert values["jointdecode.decode_utterance.self_s"] == pytest.approx(3.0)
    assert values["rng.uniform_field.s"] == pytest.approx(2.0)  # direct calls only
    assert values["rng.normal_field.s"] == pytest.approx(3.0)


def test_digest_sees_changed_outputs(tmp_path):
    wl = workloads.SweepWorkload("tiny", **TINY)
    state = wl.setup(0, tmp_path)
    rep = wl.rep(state)
    digest = wl.digest(state, rep)
    assert wl.check(state, rep) == []
    key = next(iter(rep.output))
    cell = rep.output[key]
    bad = dataclasses.replace(cell.outcomes[0], hyp=cell.outcomes[0].hyp[:-1])
    rep.output[key] = dataclasses.replace(cell, outcomes=(bad, *cell.outcomes[1:]))
    assert wl.digest(state, rep) != digest
    assert wl.check(state, rep)


def test_pinned_digests_hold_and_repeat(tmp_path):
    assert set(PINS["digests"]) == set(workloads.WORKLOADS)
    assert PINS["digests"]["parallel_grid"] == PINS["digests"]["paper_grid"]
    for name, wl in workloads.WORKLOADS.items():
        if name == "parallel_grid":
            continue  # equal to paper_grid's pin; every run compares it to serial
        state = wl.setup(PINS["seed"], tmp_path / name)
        first = wl.digest(state, wl.rep(state))
        assert first == PINS["digests"][name], name
        if name == "long_list_stream":
            assert wl.digest(state, wl.rep(state)) == first


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "paper_grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
