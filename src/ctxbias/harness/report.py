"""Report emission: one JSON per sweep cell, a plain-text aggregate table,
and a CSV of decode-time figures.

Cell JSON keeps every timing-derived number inside a "timing" subobject,
so byte-level determinism checks can drop that one key and compare the
rest verbatim.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path


def cell_filename(method: str, list_length: int, seed: int) -> str:
    return f"cell_{method}_M{list_length}_s{seed}.json"


def cell_record(result) -> dict:
    metrics = result.report.to_dict()
    rtf_value = metrics.pop("rtf")
    record = {
        "method": result.method,
        "list_length": result.list_length,
        "seed": result.seed,
        "n_utterances": result.n_utterances,
        "metrics": metrics,
        "timing": {
            "decode_seconds": result.decode_seconds,
            "audio_seconds": result.audio_seconds,
            "rtf": rtf_value,
        },
    }
    if result.m_pur_mean is not None:
        record["m_pur_mean"] = result.m_pur_mean
    return record


def write_cells(results: dict, outdir) -> list[Path]:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for (method, m, seed), result in results.items():
        path = out / cell_filename(method, m, seed)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cell_record(result), fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    return written


def _mean(values):
    return sum(values) / len(values)


def _collect(records):
    """records: iterable of cell dicts. Returns (methods, lengths, cells)
    where cells[(method, M)] averages metrics over seeds."""
    methods: list[str] = []
    lengths: list[int] = []
    grouped: dict[tuple[str, int], list[dict]] = {}
    for rec in records:
        key = (rec["method"], rec["list_length"])
        grouped.setdefault(key, []).append(rec)
        if rec["method"] not in methods:
            methods.append(rec["method"])
        if rec["list_length"] not in lengths:
            lengths.append(rec["list_length"])
    lengths.sort()
    cells = {}
    for key, recs in grouped.items():
        cells[key] = {
            "cer": _mean([r["metrics"]["cer"] for r in recs]),
            "recall": _mean([r["metrics"]["recall"] for r in recs]),
            "precision": _mean([r["metrics"]["precision"] for r in recs]),
            "f1": _mean([r["metrics"]["f1"] for r in recs]),
            "rtf": _mean([r["timing"]["rtf"] for r in recs]),
            "decode_seconds": sum(r["timing"]["decode_seconds"] for r in recs),
            "audio_seconds": sum(r["timing"]["audio_seconds"] for r in recs),
        }
    return methods, lengths, cells


def format_table(records) -> str:
    """Aggregate table: rows are methods, columns list lengths, each cell
    'CER // R|P|F1' in percent, averaged over seeds."""
    methods, lengths, cells = _collect(records)

    def cell_text(method, m):
        c = cells.get((method, m))
        if c is None:
            return "-"
        return (
            f"{100 * c['cer']:.2f} // "
            f"{100 * c['recall']:.2f}|{100 * c['precision']:.2f}|{100 * c['f1']:.2f}"
        )

    headers = ["method"] + [f"M={m}" for m in lengths]
    rows = [[meth] + [cell_text(meth, m) for m in lengths] for meth in methods]
    widths = [
        max(len(headers[j]), *(len(row[j]) for row in rows)) if rows else len(headers[j])
        for j in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def write_table(records, outdir) -> Path:
    path = Path(outdir) / "report.txt"
    path.write_text(format_table(records), encoding="utf-8")
    return path


def write_rtf_csv(records, outdir) -> Path:
    methods, lengths, cells = _collect(records)
    path = Path(outdir) / "rtf.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["method", "list_length", "mean_rtf", "total_decode_seconds", "total_audio_seconds"]
        )
        for method in methods:
            for m in lengths:
                c = cells.get((method, m))
                if c is None:
                    continue
                writer.writerow(
                    [
                        method,
                        m,
                        f"{c['rtf']:.6f}",
                        f"{c['decode_seconds']:.6f}",
                        f"{c['audio_seconds']:.6f}",
                    ]
                )
    return path


def emit_report(results: dict, outdir) -> list[Path]:
    """Write everything: cell JSONs, aggregate table, RTF CSV."""
    if not results:
        raise ValueError("no results to report")
    written = write_cells(results, outdir)
    records = [cell_record(r) for r in results.values()]
    written.append(write_table(records, outdir))
    written.append(write_rtf_csv(records, outdir))
    return written


# what the table and the CSV read from a cell record: each key (a nested one
# as "outer.inner") and what it must hold; a bool is never a number here
_KINDS = {"a string": (str,), "an integer": (int,), "a number": (int, float)}
_CELL_KEYS = {"method": "a string", "list_length": "an integer",
              **dict.fromkeys(("metrics.cer", "metrics.recall", "metrics.precision",
                               "metrics.f1", "timing.rtf", "timing.decode_seconds",
                               "timing.audio_seconds"), "a number")}


def read_cells(rundir) -> list[dict]:
    """Load cell JSONs back, e.g. to rebuild the table without rerunning.
    A file that is not JSON, not an object, lacks a key the table reads or
    holds a value of the wrong type there raises ``ValueError`` naming the
    file (and the key)."""
    paths = sorted(Path(rundir).glob("cell_*.json"))
    if not paths:
        raise ValueError(f"no cell files under {rundir}")
    records = []
    for path in paths:
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"cell file {path} is not JSON: {exc}") from None
        if not isinstance(record, dict):
            raise ValueError(f"cell file {path} holds a JSON {type(record).__name__}, "
                             f"not an object")
        for key, kind in _CELL_KEYS.items():
            value, parts = record, key.split(".")
            for depth, part in enumerate(parts, start=1):
                if not isinstance(value, dict) or part not in value:
                    raise ValueError(f"cell file {path} has no key '{'.'.join(parts[:depth])}'")
                value = value[part]
            if isinstance(value, bool) or not isinstance(value, _KINDS[kind]):
                raise ValueError(f"cell file {path}: key '{key}' holds {value!r}, not {kind}")
        records.append(record)
    return records
