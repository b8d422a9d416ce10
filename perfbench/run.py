"""Benchmark for the ctxbias decoder: one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload paper_grid --seed 0 --seconds 10 --trace 0

The package is pure Python and is imported from ``src/`` of the checkout the
script sits in; without it the script exits with code 2 and prints no
result. A run repeats the workload's unit of work for about ``--seconds``,
re-times the set-up between repetitions (``setup_s`` is the median), and
checks every output. Every second or two within a repetition it also times
a fixed reference kernel that does not touch the package, leaves that time
out, and reports every timing scaled to the reference kernel's nominal
speed (see ``machine_scale``); the raw timings are printed beside them.
With ``--trace 1`` traced repetitions, with every layer wrapped in spans,
alternate with the untraced ones, and the run reports the per-layer
metrics instead of the end-to-end ones.

Human-readable lines come first: machine facts, the decode-clock boundary,
the output digest, failures over attempts, and every end-to-end metric with
its unit and sample count. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from functools import cache
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
MIN_REPS = 3
MIN_TRACED_ROUNDS = 2  # of one untraced and one traced repetition
SETUP_SHARE = 0.1  # of the measured time spent re-timing set-up
MIN_SETUPS = 3  # set-ups timed per run, whatever their share
PINS = HERE / "digests.json"
REF_SECONDS = 0.05  # the kernel's nominal time: a typical reading on the host of machine_scale

END_TO_END_UNITS = {
    "utt_per_s": "1/s",
    "decode_ms_p50": "ms",
    "decode_ms_p90": "ms",
    "rtf": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cer": "ratio",
    "f1": "ratio",
    "retention": "ratio",
}


def percentile(values, q: float) -> tuple[float, int]:
    """The q-th percentile (0..100) by linear interpolation between closest
    ranks, as numpy's default method, and the number of samples."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError("percentile outside [0, 100]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), len(ordered)


@cache
def _reference_arrays():
    rng = np.random.default_rng(0)
    # the shape of the dense joint intersection at M=1196: 20 frames x list x vocabulary
    return rng.random((20, 1196, 82)), rng.random((20, 1196, 1))


def reference_seconds() -> float:
    """One timing of the reference kernel: an interpreter-bound Python loop
    (about a third of it) and a memory-bound numpy broadcast (the rest).

    Those shares follow a regression of the repetitions' time per decode on
    the two parts timed apart, on all three listed workloads: the numpy part
    tracked the slowdowns about twice as closely as the Python loop."""
    a, b = _reference_arrays()
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    for _ in range(4):
        np.multiply(a, b).max(axis=1)
    return time.perf_counter() - t0


def machine_scale(ref_seconds) -> float:
    """Factor that turns raw timings into ones at nominal machine speed,
    from the reference-kernel timings taken alongside them.

    The benchmark was built on a 2-vCPU KVM guest on a shared Xeon host
    (Sapphire Rapids), where the same code ran up to 1.5x slower, for
    seconds to minutes at a time, in both interpreter-bound and
    memory-bound work, as neighbours loaded the host. The reference kernel,
    timed every second or two of a run, slows with it; multiplying timings
    by REF_SECONDS over the kernel's mean time alongside them removes most
    of that drift. The kernel does not call the package, so a faster
    program still reads faster.
    """
    return REF_SECONDS / statistics.fmean(ref_seconds)


def blas_threads() -> int | None:
    """Default thread count of the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus, when workers ran, workers times the
    largest finished child's peak (an upper estimate: forked children share
    pages with the parent)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * child) / 1024  # ru_maxrss is in KiB on Linux


class Loop:
    """Repetitions of a workload's unit of work, their output digests, and
    what went wrong."""

    def __init__(self) -> None:
        self.reps = []
        self.digests: list[str] = []
        self.failed = 0
        self.attempted = 0
        self.problems: list[str] = []
        self.setup_trace = None  # (spans, counters) of a traced set-up
        # (decode clocks, wall seconds, reference-kernel seconds after it) of
        # each marked segment of the repetitions, in order
        self.segments: list[tuple[int, float, float]] = []
        self.setup_ref_seconds: list[float] = []  # one after each timed set-up
        self._segment_start = 0.0

    def mark(self, decodes: int) -> float:
        """End a segment of the running repetition: record its decode clocks
        and wall time, time the reference kernel once, and return the
        seconds that took, which the repetition leaves out of its wall."""
        t0 = time.perf_counter()
        ref = reference_seconds()
        self.segments.append((decodes, t0 - self._segment_start, ref))
        self._segment_start = time.perf_counter()
        return self._segment_start - t0

    def ref_seconds(self) -> list[float]:
        return [ref for _, _, ref in self.segments]

    def utt_per_s(self) -> float:
        return sum(r.ops for r in self.reps) / sum(r.wall for r in self.reps)

    def run_once(self, wl, state, tracer=None) -> bool:
        """One repetition, digested (and the first one checked) before the
        next overwrites its report files. False when it raised. Untraced
        repetitions are marked into segments; traced ones are not."""
        try:
            if tracer is None:
                self._segment_start = time.perf_counter()
                rep = wl.rep(state, mark=self.mark)
            else:
                with tracer.installed():
                    rep = wl.rep(state, tracer)
        except Exception:
            # a unit that raises fails all of its decodes
            traceback.print_exc()
            self.attempted += wl.ops_per_rep()
            self.failed += wl.ops_per_rep()
            self.problems.append("a repetition raised")
            return False
        self.attempted += rep.ops
        self.failed += rep.failed
        self.digests.append(wl.digest(state, rep))
        if not self.reps:
            self.problems += wl.check(state, rep)
        else:
            rep.output = None  # only the first repetition's outputs are read
        self.reps.append(rep)
        return True


def timed(make):
    t0 = time.perf_counter()
    made = make()
    return made, time.perf_counter() - t0


def measure(wl, setup, seconds: float, tracer=None):
    """Set up, then repeat the unit of work for about ``seconds``: at least
    MIN_REPS rounds, and no new round unless half of one still fits.

    After every round the set-up is timed again until set-ups have taken
    SETUP_SHARE of the elapsed time, and at least once more in each of the
    first rounds until MIN_SETUPS set-ups are timed, so the set-up times
    sample the whole run rather than one moment of a machine whose speed
    drifts; the reference kernel is timed after each set-up, since set-ups
    come in bursts that need not share the machine speed of the
    repetitions. With a tracer, each round adds a traced repetition on a
    state set up under tracing; traced and untraced repetitions alternate,
    so their rates compare on the same machine.
    """
    state, first = timed(setup)
    setup_times = [first]
    plain = Loop()
    plain.setup_ref_seconds.append(reference_seconds())
    traced = traced_state = None
    if tracer is not None:
        traced = Loop()
        with tracer.installed():
            traced_state = setup()
        traced.setup_trace = tracer.take()
    min_rounds = MIN_REPS if traced is None else MIN_TRACED_ROUNDS
    start = time.perf_counter()
    rounds = 0
    while True:
        if not plain.run_once(wl, state):
            break
        if traced is not None and not traced.run_once(wl, traced_state, tracer):
            break
        rounds += 1
        elapsed = time.perf_counter() - start
        while (sum(setup_times) < SETUP_SHARE * elapsed
               or len(setup_times) < min(MIN_SETUPS, rounds + 1)):
            gc.collect()  # the last repetition's garbage is not set-up's cost
            setup_times.append(timed(setup)[1])
            plain.setup_ref_seconds.append(reference_seconds())
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed + 0.5 * elapsed / rounds > seconds:
            break
    return state, setup_times, plain, traced


def check_outputs(wl, state, loops, seed: int) -> tuple[str | None, list[str]]:
    """All repetitions must agree, match the pinned digest for the pinned
    seed, and (parallel runs) match a serial run."""
    problems = [p for loop in loops for p in loop.problems]
    digests = [d for loop in loops for d in loop.digests]
    if not digests:
        return None, problems
    if any(d != digests[0] for d in digests):
        problems.append("repetitions produced different outputs")
    reference = wl.reference_digest(state)
    if reference is not None and reference != digests[0]:
        problems.append("parallel outputs differ from a serial run")
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    pinned = pins["digests"].get(wl.name) if seed == pins["seed"] else None
    if pinned is not None and pinned != digests[0]:
        problems.append(f"digest {digests[0]} differs from the pinned {pinned}")
    return digests[0], problems


def _timings(loop: Loop, decode_seconds, wall: float) -> dict:
    decode_ms = [s * 1000 for s in decode_seconds]
    audio = sum(r.audio_seconds for r in loop.reps)
    return {
        "utt_per_s": sum(r.ops for r in loop.reps) / wall,
        "decode_ms_p50": percentile(decode_ms, 50)[0],
        "decode_ms_p90": percentile(decode_ms, 90)[0],
        "rtf": sum(decode_seconds) / audio,
    }


def end_to_end(wl, loop: Loop, setup_times, quality) -> tuple[dict, dict, dict]:
    """Metric values at nominal machine speed, the raw values of the timings,
    and a note on each metric's samples.

    Each marked segment of a repetition, its decode clocks and its wall
    time, is scaled by the machine speed read right after it: REF_SECONDS
    over the reference kernel's time there. Set-up is scaled by the
    readings after the set-ups."""
    decode_seconds = [s for r in loop.reps for s in r.decode_seconds]
    factors = [REF_SECONDS / ref for n, _, ref in loop.segments for _ in range(n)]
    if len(factors) != len(decode_seconds):
        raise RuntimeError("marked segments do not cover the decode clocks")
    raw = {
        **_timings(loop, decode_seconds, sum(r.wall for r in loop.reps)),
        "setup_s": statistics.median(setup_times),
    }
    values = {
        **_timings(
            loop,
            [s * f for s, f in zip(decode_seconds, factors)],
            sum(wall * REF_SECONDS / ref for _, wall, ref in loop.segments),
        ),
        "setup_s": raw["setup_s"] * machine_scale(loop.setup_ref_seconds),
        "peak_rss_mb": peak_rss_mb(wl.workers),
        **quality,
    }
    n = len(decode_seconds)
    notes = {
        "utt_per_s": f"{len(loop.reps)} reps of {loop.reps[0].ops} decodes, walls "
        + " ".join(f"{r.wall:.3f}" for r in loop.reps),
        "decode_ms_p50": f"n={n}",
        "decode_ms_p90": f"n={n}",
        "rtf": f"over {len(loop.reps)} reps",
        "setup_s": f"median of {len(setup_times)} set-ups",
        "peak_rss_mb": "self" + (f" + {wl.workers} x largest child" if wl.workers > 1 else ""),
        "cer": "pooled over one repetition",
        "f1": "pooled over one repetition",
        "retention": "mean over purified cells (1 when nothing is purified)",
    }
    return values, raw, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    if not (SRC / "ctxbias" / "__init__.py").is_file():
        print(f"perfbench: no ctxbias package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ctxbias
    import tracing
    import workloads

    if SRC not in Path(ctxbias.__file__).resolve().parents:
        print(f"perfbench: ctxbias imported from outside {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]

    outdir = ROOT / ".perfbench_out" / f"{wl.name}-{os.getpid()}"
    outdir.mkdir(parents=True)
    try:
        tracer = tracing.Tracer() if args.trace else None
        state, setup_times, untraced, traced = measure(
            wl, lambda: wl.setup(args.seed, outdir), args.seconds, tracer
        )
        loops = [untraced] + ([traced] if traced else [])
        digest, problems = check_outputs(wl, state, loops, args.seed)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            outdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    correct = not problems and failed == 0
    if not correct:
        failed = attempted  # a wrong output fails the whole run

    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    print(workloads.DECODE_CLOCK)
    print(f"digest {digest}")
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"failed_ratio {failed}/{attempted}")

    if untraced.reps:
        quality = (
            wl.quality(state, untraced.reps[0])
            if correct
            else dict.fromkeys(("cer", "f1", "retention"), 0.0)
        )
        values, raw, notes = end_to_end(wl, untraced, setup_times, quality)
        ref = untraced.ref_seconds()
        print(f"machine speed: reference kernel mean {statistics.fmean(ref) * 1000:.2f} ms "
              f"over {len(ref)} timings, nominal {REF_SECONDS * 1000:.2f} ms; timings below "
              f"are scaled segment by segment (per-layer seconds by {machine_scale(ref):.4f}), "
              f"setup_s by {machine_scale(untraced.setup_ref_seconds):.4f}")
        for name, value in values.items():
            print(f"{name:<16} {value:<14.6g} {END_TO_END_UNITS[name]:<6} ({notes[name]}"
                  + (f"; raw {raw[name]:.6g}" if name in raw else "") + ")")
    else:
        values = dict.fromkeys(END_TO_END_UNITS, 0.0)
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    if args.trace:
        if traced.reps and untraced.reps:
            layers = tracing.layer_metrics(
                traced.setup_trace, tracer.take(), len(traced.reps), wl.ops_per_rep()
            )
            scale = machine_scale(untraced.ref_seconds())
            layers = {k: v * scale if tracing.LAYER_UNITS[k] == "s" else v
                      for k, v in layers.items()}
            layers[tracing.TRACE_RATIO] = traced.utt_per_s() / untraced.utt_per_s()
        else:
            layers = dict.fromkeys(tracing.LAYER_UNITS, 0.0)
        print(f"trace overhead: traced utt_per_s is {layers[tracing.TRACE_RATIO]:.4f} of untraced "
              f"({len(traced.reps)} traced reps alternating with {len(untraced.reps)} untraced)")
        for name, value in layers.items():
            print(f"{name:<46} {value:<14.6g} {tracing.LAYER_UNITS[name]}")
        metrics = {k: {"value": v, "unit": tracing.LAYER_UNITS[k]} for k, v in layers.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
