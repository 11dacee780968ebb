"""Benchmark of the ellu2 verification engine.

    python3 perfbench/run.py --workload battery --seed 20240 --seconds 30 --trace 0

Runs one workload (battery, levels or kernels) in this process, or all three
one after another in child processes with ``--workload all``.  With
``--trace 0`` it times rounds of the workload for about ``--seconds`` seconds
and reports the end-to-end metrics; with ``--trace 1`` it runs a fixed number
of rounds untraced, then the same rounds traced, and reports the per-layer
metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Metric names and units come from BENCHMARK.json at the repository root.
The package is imported from ``src/`` without installing it.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = Path(__file__).resolve().parent / ".state"
WORKLOAD_NAMES = ("battery", "levels", "kernels")
TRACE_ROUNDS = {"battery": 1, "levels": 1, "kernels": 10}
SETUP_REPEATS = 7
SETUP_CODE = (
    "import ellu2\n"
    "ctx = ellu2.ThetaContext(0.2, 0.7)\n"
    "ellu2.theta(0.3 + 0.4j, ctx)\n"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=20240)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def metric_specs(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports ellu2 and evaluates once."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_rounds(workload, indices, seconds=None, tracer=None):
    """Rounds in order; with ``seconds``, stop before a round would overrun it."""
    rounds = []
    start = time.perf_counter()
    for i in indices:
        if tracer is None:
            inputs = workload.inputs(i)
        else:
            with tracer.paused():
                inputs = workload.inputs(i)
        rounds.append(workload.round(i, inputs))
        if seconds is not None:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(rounds) > seconds:
                break
    return rounds


def medians(rounds, names) -> dict[str, float]:
    return {name: statistics.median(r.parts[name] for r in rounds) for name in names}


def check_battery_bytes(seed: int, rounds, errors: list[str]) -> None:
    """Report bytes must repeat across rounds and across runs at one seed."""
    if len({r.fingerprint for r in rounds}) > 1:
        errors.append(f"battery report bytes differ between rounds at seed {seed}")
    digest = hashlib.sha256(rounds[0].fingerprint.encode()).hexdigest()
    path = STATE / f"battery-{seed}.sha256"
    if path.exists():
        if path.read_text().strip() != digest:
            errors.append(f"battery report bytes differ from an earlier run at seed {seed}")
        return
    STATE.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(digest + "\n")
    os.replace(tmp, path)


def run_workload(args) -> int:
    # Byte-compile the package, as an installed package is, so that neither
    # this process nor the set-up probes compile it where
    # PYTHONDONTWRITEBYTECODE is set; a child process keeps the compiler's
    # memory out of peak_rss_mb.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "ellu2")], check=True,
        stdout=subprocess.DEVNULL,
    )
    sys.path.insert(0, str(SRC))
    from calibrate import REFERENCE_S, Clock
    from tracer import DrawCounter, Tracer
    from workloads import WORKLOADS

    import ellu2  # noqa: F401  (imported before the timed parts)

    units = metric_specs(args.trace)
    make = WORKLOADS[args.workload]
    errors: list[str] = []
    metrics: dict[str, float] = {}
    info: dict[str, float] = {}

    if args.trace == 0:
        ref = Clock()
        setup_s = measure_setup()
        draws = DrawCounter(on_draw=ref.tick).install()
        rounds = run_rounds(make(args.seed, draws, ref), itertools.count(), args.seconds)
        draws.close()
        # Start-up tracks the machine's speed only loosely, so it is rescaled
        # by the mean of all the run's reference samples, not by the nearest.
        metrics = {
            "setup_s": setup_s * REFERENCE_S / statistics.fmean(ref.samples),
            "wall_s": statistics.median(r.nominal_s for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        info = {
            "rounds": len(rounds),
            "measured setup_s": setup_s,
            "measured wall_s": statistics.median(r.wall_s for r in rounds),
            "reference task s": statistics.fmean(ref.samples),
            **medians(rounds, rounds[0].parts),
            **draws.metrics(),
        }
        if args.workload == "battery":
            check_battery_bytes(args.seed, rounds, errors)
    else:
        n = TRACE_ROUNDS[args.workload]
        draws = DrawCounter().install()
        plain = run_rounds(make(args.seed, draws, Clock(rescale=False)), range(n))
        draws.close()
        draws = DrawCounter().install()
        tracer = Tracer().install()
        try:
            traced = run_rounds(make(args.seed, draws, Clock(rescale=False)), range(n), tracer=tracer)
        finally:
            tracer.close()
            draws.close()
        metrics = {name: 0.0 for name in units}
        metrics.update(medians(plain, plain[0].parts))
        metrics.update(tracer.metrics())
        metrics.update(draws.metrics())
        metrics["trace.overhead_s"] = sum(r.wall_s for r in traced) - sum(r.wall_s for r in plain)
        info = {"rounds": n, "untraced_wall_s": sum(r.wall_s for r in plain)}
        for a, b in zip(plain, traced):
            if a.fingerprint != b.fingerprint:
                errors.append(f"{args.workload}: traced report differs from the untraced one")
        if args.workload == "battery":
            check_battery_bytes(args.seed, plain + traced, errors)
        rounds = plain + traced

    for r in rounds:
        errors.extend(r.errors)
    for msg in dict.fromkeys(errors):
        print(f"check failed: {msg}", file=sys.stderr)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: attempted {attempted}, failed {failed}")
    for name, value in info.items():
        print(f"  {name} = {value}")
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]} {unit}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ellu2" / "__init__.py").is_file():
        print(f"perfbench: no ellu2 package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
