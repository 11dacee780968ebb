"""``tools/bench_summary.py`` on synthetic run files: the round counts and
reference task times kept beside the metrics, and the fit of peak RSS
against the round counts."""

import importlib.util
import json
from pathlib import Path

import pytest

SUMMARY = Path(__file__).resolve().parents[1] / "tools" / "bench_summary.py"


@pytest.fixture(scope="module")
def summary():
    spec = importlib.util.spec_from_file_location("bench_summary", SUMMARY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(tmp_path, side, rows):
    """One run file per (rounds, peak_rss_mb, wall_s[, reference task s]),
    as ``perfbench/run.py`` prints a run: its round count, its reference
    task time where given, then its JSON object last."""
    paths = []
    for i, (rounds, rss, wall, *reference) in enumerate(rows):
        metrics = {"peak_rss_mb": {"value": rss, "unit": "MB"}, "wall_s": {"value": wall, "unit": "s"}}
        run = {"correct": True, "attempted": rounds, "failed": 0, "metrics": metrics}
        info = [f"  rounds = {rounds}", *(f"  reference task s = {t}" for t in reference)]
        path = tmp_path / f"{side}_{i}.json"
        path.write_text("\n".join(["levels seed=1 trace=0: attempted 1, failed 0", *info, json.dumps(run)]) + "\n")
        paths.append(path)
    return paths


def _summarize(summary, tmp_path, parent, change):
    out = tmp_path / "BENCH.json"
    summary.main([
        "--workload", "levels", "--label", "test", "--out", str(out),
        "--parent", *map(str, _runs(tmp_path, "parent", parent)),
        "--change", *map(str, _runs(tmp_path, "change", change)),
    ])
    return json.loads(out.read_text())["workloads"]["levels"]


def test_rss_per_round_fits_rss_against_rounds(summary, tmp_path):
    # Every run on the line 40 MB + 0.0625 MB (64 KB) per round: the fit
    # recovers the line, and the change's median RSS, at 300 rounds, moves
    # to the line's value at the parent's median of 200 rounds.
    line = lambda rounds: 40.0 + 0.0625 * rounds
    parent = [(r, line(r), 0.15) for r in (190, 200, 210)]
    change = [(r, line(r), 0.12) for r in (290, 300, 310)]
    fit = _summarize(summary, tmp_path, parent, change)["rss_per_round"]
    assert fit["slope_kb_per_round"] == pytest.approx(64.0)
    assert fit["intercept_mb"] == pytest.approx(40.0)
    assert (fit["parent_median_rounds"], fit["change_median_rounds"]) == (200, 300)
    assert fit["change_mb_at_parent_rounds"] == pytest.approx(line(200))


def test_rss_per_round_is_null_at_one_round_count(summary, tmp_path):
    parent = [(200, 50.0, 0.15), (200, 51.0, 0.16)]
    change = [(200, 50.5, 0.12), (200, 52.0, 0.13)]
    report = _summarize(summary, tmp_path, parent, change)
    assert report["rss_per_round"] is None
    assert report["rounds"] == {"parent": [200, 200], "change": [200, 200]}


def test_reference_task_times_are_kept_per_side(summary, tmp_path):
    # Each run's reference task time, in run order, with its side's median
    # and quartiles: the task rescales wall_s, so a move of the task shows.
    parent = [(200, 50.0, 0.15, t) for t in (0.0169, 0.0119, 0.0142)]
    change = [(200, 50.0, 0.15, t) for t in (0.0117, 0.0108, 0.0116)]
    got = _summarize(summary, tmp_path, parent, change)["reference_task_s"]
    assert got["parent"]["values"] == [0.0169, 0.0119, 0.0142]
    assert got["change"]["values"] == [0.0117, 0.0108, 0.0116]
    assert got["parent"]["median"] == 0.0142 and got["change"]["median"] == 0.0116
    assert (got["parent"]["q1"], got["parent"]["q3"]) == pytest.approx((0.01305, 0.01555))
    assert (got["change"]["q1"], got["change"]["q3"]) == pytest.approx((0.0112, 0.01165))


def test_reference_task_is_null_where_a_run_has_none(summary, tmp_path):
    # A --trace 1 run prints no reference task time.
    parent = [(200, 50.0, 0.15, 0.0169), (200, 50.0, 0.15)]
    change = [(200, 50.5, 0.12, 0.0117), (200, 52.0, 0.13, 0.0108)]
    report = _summarize(summary, tmp_path, parent, change)
    assert report["reference_task_s"] is None
    assert report["rounds"] == {"parent": [200, 200], "change": [200, 200]}
