"""The parser of ``scripts/acceptance8_pairs.py`` on criterion 8's three
outputs: the PASS line, and the monotone and purified failure messages as
pytest prints them (the message line, the source lines around it, and the
truncated summary line); and the order its runs take."""

import contextlib
import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "acceptance8_pairs.py"
_SPEC = importlib.util.spec_from_file_location("acceptance8_pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = pairs  # the dataclass decorator looks its module up
_SPEC.loader.exec_module(pairs)

_PASS = """\
........
.ACCEPTANCE 8: PASS — joint decode time monotone in M (M=51: 0.47s  M=201: 0.59s  \
M=601: 0.71s  M=1196: 0.90s); purified decode at M=1196 0.85s < 0.90s
.ACCEPTANCE 9: PASS — 16 metric records byte-identical across two sweeps (timing masked)
278 passed in 36.47s
"""

_PURIFIED = """\
        assert gcp_total < totals[1196], (
            f"ACCEPTANCE 8 purified clause: purified decode at M=1196 {gcp_total:.3f}s "
            f"is not below joint's {totals[1196]:.3f}s (joint {joint})"
        )
E       AssertionError: ACCEPTANCE 8 purified clause: purified decode at M=1196 0.763s is \
not below joint's 0.719s (joint M=51: 0.370s, M=201: 0.475s, M=601: 0.566s, M=1196: 0.719s)
E       assert 0.763 < 0.719
FAILED tests/test_acceptance.py::test_criterion_8_decode_time_scaling - AssertionError: ACCEPT...
1 failed, 277 passed in 35.02s
"""

_MONOTONE = """\
            f"ACCEPTANCE 8 monotone clause: joint decode time not increasing in M "
E       AssertionError: ACCEPTANCE 8 monotone clause: joint decode time not increasing in M \
(M=51: 0.500s, M=201: 0.480s, M=601: 0.566s, M=1196: 0.719s); purified at M=1196 0.600s
FAILED tests/test_acceptance.py::test_criterion_8_decode_time_scaling - AssertionError: ACCEPT...
2 failed, 276 passed in 35.02s
"""


def test_parses_the_pass_line():
    run = pairs.parse_run(_PASS)
    assert run.outcome == "pass"
    assert run.joint == {51: 0.47, 201: 0.59, 601: 0.71, 1196: 0.90}
    assert run.purified == 0.85
    assert (run.passed, run.failed) == (278, 0)
    assert run.ratio == pytest.approx(0.85 / 0.90)
    assert run.gap == pytest.approx(0.12)


def test_parses_the_purified_clause_failure():
    run = pairs.parse_run(_PURIFIED)
    assert run.outcome == "purified"
    assert run.joint == {51: 0.370, 201: 0.475, 601: 0.566, 1196: 0.719}
    assert run.purified == 0.763
    assert (run.passed, run.failed) == (277, 1)
    assert run.ratio == pytest.approx(0.763 / 0.719)


def test_parses_the_monotone_clause_failure():
    run = pairs.parse_run(_MONOTONE)
    assert run.outcome == "monotone"
    assert run.joint == {51: 0.500, 201: 0.480, 601: 0.566, 1196: 0.719}
    assert run.purified == 0.600
    assert run.gap == pytest.approx(-0.02)
    assert (run.passed, run.failed) == (276, 2)


def test_output_without_criterion_8_is_missing():
    run = pairs.parse_run("ERROR collecting tests/test_acceptance.py\n1 error in 0.50s\n")
    assert run.outcome == "missing" and run.joint == {} and run.purified is None
    assert run.ratio is None and run.gap is None


def test_summary_counts_passes_and_takes_medians():
    runs = [pairs.parse_run(text) for text in (_PASS, _PURIFIED, _PASS)]
    line = pairs.summarize("change abc", runs)
    assert "criterion 8 passed 2/3" in line and "tier-1 all passed 2/3" in line
    assert f"ratio median {0.85 / 0.90:.3f}" in line
    assert "gap median 0.120 s" in line
    assert "n/a" in pairs.summarize("none", [pairs.parse_run("")])


def test_the_side_that_runs_first_alternates(monkeypatch, capsys):
    assert [pairs.run_order(i) for i in (1, 2, 3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]

    @contextlib.contextmanager
    def fake_worktrees(revisions, prefix):
        yield {name: (f"{name}-commit", Path(name)) for name in revisions}

    ran = []
    monkeypatch.setattr(pairs, "worktrees", fake_worktrees)
    monkeypatch.setattr(pairs, "_tier1", lambda tree, one_thread: ran.append(tree.name) or _PASS)
    assert pairs.main(["p", "c", "--runs", "3"]) == 0
    assert ran == ["parent", "change", "change", "parent", "parent", "change"]
    assert "parent parent-com: criterion 8 passed 3/3" in capsys.readouterr().out
