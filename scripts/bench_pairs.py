"""Benchmark runs alternating between two git revisions, pair by pair.

    python scripts/bench_pairs.py PARENT CHANGE --workload W [--pairs 10]
        [--seconds S] [--seed N] [--out FILE]

Each revision is checked out into its own temporary git worktree, as
``acceptance8_pairs.py`` does. Each pair then runs ``perfbench/run.py
--workload W --seed N --seconds S --trace 0`` once in each worktree; the
side that runs first alternates from pair to pair (``run_order``, shared
with ``acceptance8_pairs.py``), so that both sides see the same host load.
``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json. Only local git
is used.

The last line a run prints is its JSON result. Per end-to-end metric of
BENCHMARK.json the script prints each side's median and quartiles, the
change against the parent's median, and in how many pairs the change was
better. With ``--out`` every run and the summary are written to FILE, under
the key ``W@seedN``; other workloads already in FILE are kept, so one FILE
can hold every workload of one parent/change comparison. The exit code is 1
when a run did not end with a correct result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from acceptance8_pairs import run_order, worktrees

ROOT = Path(__file__).resolve().parent.parent


def parse_result(stdout: str) -> tuple[dict | None, str | None]:
    """The JSON result on the last nonblank line of one run's stdout, or None
    when that line is not a JSON object, and the output digest."""
    lines = stdout.strip().splitlines()
    digest = next((line.split()[1] for line in lines if line.startswith("digest ")), None)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return (result if isinstance(result, dict) else None), digest


def _quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs: list[dict], better: dict[str, str]) -> dict[str, dict]:
    """Per metric: each side's median and quartiles over its runs with a
    result, the change's median against the parent's in percent, and the
    pairs where the change was better (strictly, in the metric's direction)
    out of those where both sides have a result."""
    values: dict[tuple[str, int], dict] = {
        (run["side"], run["pair"]): run["result"]["metrics"] for run in runs if run["result"]}
    pairs = sorted({pair for _, pair in values})
    summary = {}
    for name, direction in better.items():
        side_values = {side: [v[name]["value"] for (s, _), v in values.items()
                              if s == side and name in v] for side in ("parent", "change")}
        if not all(side_values.values()):
            continue
        entry = {}
        for side, vals in side_values.items():
            q1, median, q3 = _quartiles(vals)
            entry.update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3})
        both = [(values[("parent", p)][name]["value"], values[("change", p)][name]["value"])
                for p in pairs if ("parent", p) in values and ("change", p) in values]
        won = sum(c > p if direction == "higher" else c < p for p, c in both)
        entry["change_better_pairs"] = f"{won}/{len(both)}"
        parent = entry["parent_median"]
        entry["delta_pct"] = 100.0 * (entry["change_median"] - parent) / parent if parent else 0.0
        summary[name] = entry
    return summary


def format_summary(summary: dict[str, dict], units: dict[str, str]) -> list[str]:
    return [f"{name} ({units[name]}): parent {e['parent_median']:.6g} "
            f"[{e['parent_q1']:.6g}, {e['parent_q3']:.6g}], change {e['change_median']:.6g} "
            f"[{e['change_q1']:.6g}, {e['change_q3']:.6g}], {e['delta_pct']:+.2f} %, change "
            f"better in {e['change_better_pairs']} pairs" for name, e in summary.items()]


def _run(tree: Path, workload: str, seed: int, seconds: float):
    """One perfbench run in ``tree``: the finished process and its wall time."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                           str(seed), "--seconds", f"{seconds:g}", "--trace", "0"], cwd=tree,
                          capture_output=True, text=True)
    return done, time.perf_counter() - start


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision of the parent side")
    parser.add_argument("change", help="git revision of the changed side")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs")
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]),
                        help="--seconds of each perfbench run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, help="JSON file to write the runs to")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    runs = []
    with worktrees({"parent": args.parent, "change": args.change}, "bench-pairs-") as sides:
        for pair in range(1, args.pairs + 1):
            order = run_order(pair)
            for side in order:
                done, wall = _run(sides[side][1], args.workload, args.seed, args.seconds)
                result, digest = parse_result(done.stdout)
                runs.append({"pair": pair, "side": side, "first_in_pair": side == order[0],
                             "returncode": done.returncode, "wall": wall, "digest": digest,
                             "result": result})
                if result is None:
                    print(f"pair {pair} {side}: exit {done.returncode}, no result\n"
                          + done.stdout[-2000:] + done.stderr[-2000:], file=sys.stderr)
                    continue
                shown = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
                print(f"pair {pair} {side}: exit {done.returncode}, correct "
                      f"{result.get('correct')}, {shown}", flush=True)
    summary = summarize(runs, better)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs at {args.seconds:g} s; "
          f"parent {sides['parent'][0][:10]}, change {sides['change'][0][:10]}; median "
          f"[quartiles]")
    print("\n".join(format_summary(summary, units)))
    all_correct = all(r["returncode"] == 0 and (r["result"] or {}).get("correct") is True
                      for r in runs)
    if args.out:
        record = json.loads(args.out.read_text()) if args.out.exists() else {}
        commits = {"parent": sides["parent"][0], "change": sides["change"][0]}
        if record and {k: record.get(k) for k in commits} != commits:
            print(f"{args.out} holds runs of other revisions; not written", file=sys.stderr)
            return 1
        record.update(commits)
        record["command"] = ("python3 perfbench/run.py --workload <w> --seed <s> --seconds "
                             "<seconds> --trace 0")
        record.setdefault("workloads", {})[f"{args.workload}@seed{args.seed}"] = {
            "pairs": args.pairs, "seconds": args.seconds, "all_correct": all_correct,
            "summary": summary, "runs": runs}
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
