"""The result parser and the pair summary of ``scripts/bench_pairs.py``."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(_SCRIPTS))  # the script imports its worktree helper by name
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _SCRIPTS / "bench_pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def _output(utt_per_s, p50, correct=True):
    metrics = {"utt_per_s": {"value": utt_per_s, "unit": "1/s"},
               "decode_ms_p50": {"value": p50, "unit": "ms"}}
    return ("perfbench workload=purify_stress seed=0 seconds=1 trace=0\n"
            "digest 2d14506768\nfailed_ratio 0/400\n"
            f"utt_per_s        {utt_per_s}\n"
            + json.dumps({"correct": correct, "attempted": 400, "failed": 0, "metrics": metrics})
            + "\n\n")


def test_parses_the_last_json_line_and_the_digest():
    result, digest = pairs.parse_result(_output(410.5, 0.55))
    assert digest == "2d14506768"
    assert result["correct"] is True
    assert result["metrics"]["utt_per_s"]["value"] == 410.5


@pytest.mark.parametrize("stdout", ["", "Traceback (most recent call last):\n  boom\n",
                                    "perfbench ...\n[1, 2]\n"])
def test_output_without_a_result_object_parses_to_none(stdout):
    assert pairs.parse_result(stdout) == (None, None)


def _runs(parent, change):
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change), start=1):
        for side, (rate, p50) in (("parent", p), ("change", c)):
            runs.append({"pair": pair, "side": side,
                         "result": pairs.parse_result(_output(rate, p50))[0]})
    return runs


def test_summary_takes_medians_quartiles_and_pairs_won_in_each_direction():
    parent = [(100.0, 0.50), (110.0, 0.40), (90.0, 0.60), (105.0, 0.45), (95.0, 0.55)]
    change = [(101.0, 0.40), (109.0, 0.30), (99.0, 0.70), (120.0, 0.45), (96.0, 0.50)]
    summary = pairs.summarize(_runs(parent, change),
                              {"utt_per_s": "higher", "decode_ms_p50": "lower", "rtf": "lower"})
    assert set(summary) == {"utt_per_s", "decode_ms_p50"}  # no run reports rtf
    rate = summary["utt_per_s"]
    assert (rate["parent_q1"], rate["parent_median"], rate["parent_q3"]) == (95.0, 100.0, 105.0)
    assert (rate["change_q1"], rate["change_median"], rate["change_q3"]) == (99.0, 101.0, 109.0)
    assert rate["change_better_pairs"] == "4/5"  # pair 2 lost
    assert rate["delta_pct"] == pytest.approx(1.0)
    # lower is better; the tie in pair 4 is not a win
    assert summary["decode_ms_p50"]["change_better_pairs"] == "3/5"
    lines = pairs.format_summary(summary, {"utt_per_s": "1/s", "decode_ms_p50": "ms"})
    assert lines[0] == ("utt_per_s (1/s): parent 100 [95, 105], change 101 [99, 109], +1.00 %, "
                        "change better in 4/5 pairs")


def test_summary_counts_only_pairs_where_both_sides_have_a_result():
    runs = _runs([(100.0, 0.5), (100.0, 0.5)], [(110.0, 0.4), (120.0, 0.4)])
    runs[3]["result"] = None  # the change's second run printed no result
    summary = pairs.summarize(runs, {"utt_per_s": "higher"})
    assert summary["utt_per_s"]["change_better_pairs"] == "1/1"
    assert summary["utt_per_s"]["change_q1"] == summary["utt_per_s"]["change_q3"] == 110.0
