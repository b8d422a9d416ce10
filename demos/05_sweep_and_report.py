#!/usr/bin/env python3
"""Run a small method-by-list-length sweep and write its report.

Same machinery the CLI uses: one corpus, every (method, M, seed) cell
decoded, then cell JSONs plus an aggregate table and an RTF CSV. The
directory layout is flat and the JSON canonical, so reruns are easy to
diff.
"""

import tempfile
from pathlib import Path

from ctxbias.harness.config import ExperimentConfig
from ctxbias.harness.report import emit_report, read_cells
from ctxbias.harness.runner import run_sweep


def main() -> None:
    config = ExperimentConfig(
        n_utterances=40,
        list_lengths=(51, 201),
        methods=("baseline", "attn", "joint", "joint_gcp_pp"),
        confusion_rate=0.3,
        distractor_boost=0.3,
        score_jitter_sigma=0.1,
        n_seeds=2,
        seed=9,
    )
    cells = run_sweep(config)
    print(f"swept {len(cells)} cells "
          f"({len(config.methods)} methods x {len(config.list_lengths)} lengths "
          f"x {config.n_seeds} seeds)")

    with tempfile.TemporaryDirectory(prefix="ctxbias_demo_") as tmp:
        outdir = Path(tmp)
        written = emit_report(cells, outdir)
        print(f"wrote {len(written)} files under {outdir}")

        print("\n" + (outdir / "report.txt").read_text(encoding="utf-8"))

        # cells round-trip: the table can be rebuilt without rerunning
        records = read_cells(outdir)
    first = records[0]
    print(f"reloaded {len(records)} cell records; first: "
          f"method={first['method']} M={first['list_length']} "
          f"cer={first['metrics']['cer']:.4f} "
          f"rtf={first['timing']['rtf']:.4f}")


if __name__ == "__main__":
    main()
