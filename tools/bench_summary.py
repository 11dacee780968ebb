"""Medians and quartiles of benchmark runs, parent against change, as one BENCH file.

    python3 tools/bench_summary.py --workload battery --label 11 \
        --parent runs/battery_parent_*.json --change runs/battery_change_*.json \
        --out BENCH_11.json

Each input file holds the output of one ``perfbench/run.py`` run; its last
non-empty line is the run's JSON object
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``,
and its ``rounds = N`` line the number of rounds the run fit, kept beside the
metrics: a faster change fits more rounds, and a run's peak RSS grows with
them.  Its ``reference task s = T`` line is kept too, with its median and
quartiles per side (``reference_task_s``): ``wall_s`` is rescaled by that
task, which runs in the workload's process and shares its allocator, so a
program change that moves the task moves ``wall_s`` with it.
List the parent and change files in the order they ran, so that the i-th
files of both lists are one pair.  For every metric the output gives the
parent's and the change's values, median and quartiles, the relative change
of the medians, and on how many pairs the change was better (the direction
comes from BENCHMARK.json).  ``rss_per_round`` shows how much of a peak
RSS move is rounds: the least-squares line of ``peak_rss_mb`` against the
round count over all runs given, and the change's median RSS moved along
it to the parent's median round count.  An existing ``--out`` file keeps
its other workloads, so that one file can collect all of them.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def last_json(path: Path) -> dict:
    """The run's JSON object, with its round count under ``rounds`` and its
    mean reference task time under ``reference_s`` (each None when the
    output has no such line)."""
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    if not lines:
        raise SystemExit(f"{path}: no output, so no run to read")
    run = json.loads(lines[-1])
    rounds, reference = info(lines, "rounds"), info(lines, "reference task s")
    run["rounds"] = None if rounds is None else int(rounds)
    run["reference_s"] = None if reference is None else float(reference)
    return run


def info(lines: list[str], name: str) -> str | None:
    """The value of the first ``name = value`` line, or None."""
    for line in lines:
        key, _, value = line.partition("=")
        if key.strip() == name:
            return value
    return None


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarize(parent: list[dict], change: list[dict]) -> dict:
    better = {}
    for section in ("end_to_end", "per_layer"):
        for spec in json.loads((ROOT / "BENCHMARK.json").read_text())[section]:
            better[spec["name"]] = spec["better"]
    out = {}
    for name, entry in parent[0]["metrics"].items():
        before = [run["metrics"][name]["value"] for run in parent]
        after = [run["metrics"][name]["value"] for run in change]
        sign = -1 if better.get(name, "lower") == "lower" else 1
        out[name] = {
            "unit": entry["unit"],
            "better": better.get(name, "lower"),
            "parent": spread(before),
            "change": spread(after),
            "median_change": statistics.median(after) / statistics.median(before) - 1
            if statistics.median(before)
            else None,
            "pairs_better": sum(sign * (a - b) > 0 for b, a in zip(before, after)),
        }
    return out


def rss_per_round(parent: list[dict], change: list[dict]) -> dict | None:
    """The least-squares slope (KB per round) and intercept (MB) of
    ``peak_rss_mb`` against the round count over every run, and the
    change's median ``peak_rss_mb`` moved along that slope from its median
    round count to the parent's.  None where the runs fit one round count
    only (or do not say how many), so that no line can be fit."""
    runs = [(run["rounds"], run["metrics"]["peak_rss_mb"]["value"]) for run in parent + change]
    if any(rounds is None for rounds, _ in runs) or len({rounds for rounds, _ in runs}) < 2:
        return None
    slope, intercept = statistics.linear_regression(*zip(*runs))
    parent_rounds = statistics.median(run["rounds"] for run in parent)
    change_rounds = statistics.median(run["rounds"] for run in change)
    change_rss = statistics.median(run["metrics"]["peak_rss_mb"]["value"] for run in change)
    return {
        "slope_kb_per_round": slope * 1024.0,
        "intercept_mb": intercept,
        "parent_median_rounds": parent_rounds,
        "change_median_rounds": change_rounds,
        "change_mb_at_parent_rounds": change_rss + slope * (parent_rounds - change_rounds),
    }


def reference_task(parent: list[dict], change: list[dict]) -> dict | None:
    """Each side's ``reference task s`` values, median and quartiles; None
    where a run does not say (a ``--trace 1`` run runs no task)."""
    if any(run["reference_s"] is None for run in parent + change):
        return None
    return {side: spread([run["reference_s"] for run in runs]) for side, runs in (("parent", parent), ("change", change))}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--label", required=True, help="the change the numbers belong to")
    ap.add_argument("--parent", nargs="+", type=Path, required=True)
    ap.add_argument("--change", nargs="+", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--note", default="", help="the machine and how the runs were made")
    args = ap.parse_args(argv)
    if len(args.parent) != len(args.change) or len(args.parent) < 2:
        ap.error("give the same number (at least 2) of parent and change runs")
    parent = [last_json(p) for p in args.parent]
    change = [last_json(p) for p in args.change]
    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report["label"] = args.label
    if args.note:
        report["note"] = args.note
    report.setdefault("workloads", {})[args.workload] = {
        "pairs": len(parent),
        "correct": [run["correct"] for run in parent + change],
        "rounds": {
            "parent": [run["rounds"] for run in parent],
            "change": [run["rounds"] for run in change],
        },
        "failed": {
            "parent": [run["failed"] for run in parent],
            "change": [run["failed"] for run in change],
        },
        "metrics": summarize(parent, change),
        "rss_per_round": rss_per_round(parent, change),
        "reference_task_s": reference_task(parent, change),
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
