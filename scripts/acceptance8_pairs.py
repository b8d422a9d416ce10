"""Acceptance 8 over whole tier-1 runs, alternating between two git revisions.

    python scripts/acceptance8_pairs.py PARENT CHANGE [--runs 10] [--one-blas-thread]

Each revision is checked out into its own temporary git worktree. Whole
tier-1 (``python -m pytest -q --continue-on-collection-errors`` with the
worktree's ``src`` on ``PYTHONPATH``) then runs there ``--runs`` times,
alternating PARENT, CHANGE, PARENT, ... so that both sides see the same
host load. The worktrees are removed afterwards. Only local git is used.

From each run the script reads the ``ACCEPTANCE 8: PASS`` line, or one of
criterion 8's two failure messages (monotone clause, purified clause), and
the pytest tally. It prints one line per run, then per revision: how many
runs criterion 8 passed, how many runs all of tier-1 passed, the median of
the purified/joint ratio (purified total over the joint total at M=1196)
and the median M=51 -> M=201 gap of the joint totals.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

_TOTALS = re.compile(r"M=(\d+): ([0-9.]+)s")
_PASS = re.compile(r"ACCEPTANCE 8: PASS — joint decode time monotone in M \(([^)]*)\); "
                   r"purified decode at M=1196 ([0-9.]+)s")
_PURIFIED = re.compile(r"ACCEPTANCE 8 purified clause: purified decode at M=1196 ([0-9.]+)s "
                       r"is not below joint's [0-9.]+s \(joint ([^)]*)\)")
_MONOTONE = re.compile(r"ACCEPTANCE 8 monotone clause: joint decode time not increasing in M "
                       r"\(([^)]*)\); purified at M=1196 ([0-9.]+)s")


@dataclass(frozen=True)
class Acceptance8:
    """What one tier-1 run says about criterion 8. ``outcome`` is "pass",
    "monotone" or "purified" (the failing clause), or "missing" when the
    output holds neither line; the totals are then empty."""

    outcome: str
    joint: dict[int, float]
    purified: float | None
    passed: int
    failed: int

    @property
    def ratio(self) -> float | None:
        if self.purified is None or 1196 not in self.joint:
            return None
        return self.purified / self.joint[1196]

    @property
    def gap(self) -> float | None:
        if not {51, 201} <= set(self.joint):
            return None
        return self.joint[201] - self.joint[51]


def _count(pattern: str, text: str) -> int:
    found = re.search(pattern, text)
    return int(found.group(1)) if found else 0


def parse_run(text: str) -> Acceptance8:
    """Criterion 8's result and totals, and the pytest tally, from the
    output of one tier-1 run."""
    passed, failed = _count(r"(\d+) passed", text), _count(r"(\d+) failed", text)
    for outcome, pattern, joint_at, purified_at in (("pass", _PASS, 1, 2),
                                                    ("purified", _PURIFIED, 2, 1),
                                                    ("monotone", _MONOTONE, 1, 2)):
        found = pattern.search(text)
        if found:
            joint = {int(m): float(s) for m, s in _TOTALS.findall(found.group(joint_at))}
            return Acceptance8(outcome, joint, float(found.group(purified_at)), passed, failed)
    return Acceptance8("missing", {}, None, passed, failed)


def _median(values) -> str:
    values = [v for v in values if v is not None]
    return f"{statistics.median(values):.3f}" if values else "n/a"


def summarize(label: str, runs: list[Acceptance8]) -> str:
    passes = sum(r.outcome == "pass" for r in runs)
    clean = sum(r.failed == 0 and r.passed > 0 for r in runs)
    return (f"{label}: criterion 8 passed {passes}/{len(runs)}, tier-1 all passed "
            f"{clean}/{len(runs)}; purified/joint ratio median {_median(r.ratio for r in runs)}, "
            f"M=51->201 gap median {_median(r.gap for r in runs)} s")


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


@contextlib.contextmanager
def worktrees(revisions: dict[str, str], prefix: str):
    """Check each named revision of the repository the working directory is
    in out into its own temporary git worktree. Yields ``{name: (commit,
    path)}``; the worktrees are removed on exit."""
    repo = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel"))
    commits = {name: _git(repo, "rev-parse", "--verify", rev + "^{commit}")
               for name, rev in revisions.items()}
    with tempfile.TemporaryDirectory(prefix=prefix) as tmp:
        trees = {name: Path(tmp) / name for name in revisions}
        try:
            for name, commit in commits.items():
                _git(repo, "worktree", "add", "--detach", str(trees[name]), commit)
            yield {name: (commits[name], trees[name]) for name in revisions}
        finally:
            for tree in trees.values():
                if tree.exists():
                    _git(repo, "worktree", "remove", "--force", str(tree))
            _git(repo, "worktree", "prune")


def _tier1(tree: Path, one_thread: bool) -> str:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    if one_thread:
        env["OPENBLAS_NUM_THREADS"] = "1"
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                           "-p", "no:cacheprovider"], cwd=tree, env=env, capture_output=True,
                          text=True)
    return done.stdout + done.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision of the parent side")
    parser.add_argument("change", help="git revision of the changed side")
    parser.add_argument("--runs", type=int, default=10, help="tier-1 runs per revision")
    parser.add_argument("--one-blas-thread", action="store_true",
                        help="run tier-1 with OPENBLAS_NUM_THREADS=1")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    results: dict[str, list[Acceptance8]] = {"parent": [], "change": []}
    with worktrees({"parent": args.parent, "change": args.change}, "acceptance8-") as sides:
        for i in range(args.runs):
            for side, (_, tree) in sides.items():
                run = parse_run(_tier1(tree, args.one_blas_thread))
                results[side].append(run)
                totals = "  ".join(f"M={m}: {s:.3f}" for m, s in sorted(run.joint.items()))
                print(f"run {i + 1} {side}: criterion 8 {run.outcome}; {totals}; purified "
                      f"{run.purified}; tier-1 {run.passed} passed, {run.failed} failed",
                      flush=True)
    for side, (commit, _) in sides.items():
        print(summarize(f"{side} {commit[:10]}", results[side]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
