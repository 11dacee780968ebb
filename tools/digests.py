"""A sha256 prefix of each byte-stable report, to compare two trees.

    PYTHONPATH=src python3 tools/digests.py

Prints one line per report, ``<first 16 hex digits of sha256>  <report>``,
all computed in one process:

- ``ellu2 run --suite all`` at seeds 20240, 7 and 123456;
- the battery digest: the canonical JSON of ``run_report`` at seed 20240
  over the benchmark battery's suites (``REGISTERED`` in
  ``perfbench/workloads.py``);
- ``ellu2 check relations``, ``bailey`` and ``qdybe`` with ``--samples 5``;
- ``ellu2 check biorth --N 6 --M 1``, direct and ``--dual``;
- ``ellu2 check corep --N 5`` and ``--N 6``;
- the benchmark's twelve levels biorth tables (N = 6-8, M = 1, 2 samples,
  direct and dual, at seeds 20240 and 3164770343), their canonical JSON
  joined by newlines, in the benchmark's order.

Each ``ellu2`` command's digest is of what it writes to stdout.  Run it on
two checkouts and compare the lines: equal lines mean equal report bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

from ellu2.cli import main
from ellu2.suites import RunConfig, biorth_table, canonical_json, run_report

BATTERY = ["theta", "series", "relations", "unitarity", "biorth", "dual-biorth"]
LEVEL_TABLE_SEEDS = (20240, 3164770343)


def stdout_of(argv: list[str]) -> str:
    """What ``ellu2 argv`` writes to stdout; its stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    return out.getvalue()


def reports():
    """(label, report text) of each report, in the order printed."""
    for seed in (20240, 7, 123456):
        yield f"run --suite all --seed {seed}", stdout_of(["run", "--suite", "all", "--seed", str(seed)])
    yield "battery digest", canonical_json(run_report(RunConfig(seed=20240), BATTERY))
    commands = [["check", name, "--samples", "5"] for name in ("relations", "bailey", "qdybe")]
    commands += [["check", "biorth", "--N", "6", "--M", "1", *dual] for dual in ([], ["--dual"])]
    commands += [["check", "corep", "--N", str(n)] for n in (5, 6)]
    for argv in commands:
        yield " ".join(argv), stdout_of(argv)
    tables = (
        canonical_json(biorth_table(RunConfig(seed=seed), n, 1, 2, dual))
        for seed in LEVEL_TABLE_SEEDS
        for n in (6, 7, 8)
        for dual in (False, True)
    )
    yield "the 12 levels tables", "\n".join(tables)


if __name__ == "__main__":
    for label, text in reports():
        print(hashlib.sha256(text.encode()).hexdigest()[:16], label)
