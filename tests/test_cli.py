"""Command-line interface: eval outputs, suite runs, reports, exit codes."""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ellu2.cli import fmt, main, parse_complex
from ellu2.suites import BAILEY_MAX_CONDITION, RunConfig, canonical_json, corep_table, run_report

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_complex_forms():
    assert parse_complex("1.5") == 1.5 + 0.0j
    assert parse_complex("0.3+0.1i") == 0.3 + 0.1j
    assert parse_complex("-2i") == -2.0j
    assert parse_complex("0.3 + 0.1I") == 0.3 + 0.1j
    with pytest.raises(argparse.ArgumentTypeError):
        parse_complex("spam")


def test_fmt_hides_negative_zero():
    assert fmt(complex(-0.0, 0.0)) == "0"
    assert fmt(complex(0.0, -0.0)) == "0"
    assert fmt(1.25 - 0.5j) == "1.25-0.5i"
    assert fmt(0.0 + 2.0j) == "2i"


def test_eval_theta_at_one(capsys):
    code, out = run_cli(capsys, "eval", "theta", "--z", "1", "--p", "0.1")
    assert code == 0
    assert out.strip() == "0"


def test_eval_pochhammer_at_an_untracked_one(capsys):
    # theta(1) is exactly 0 whether its argument is written 1 or q^:0.
    for a in ("1", "q^:0"):
        argv = ["eval", "pochhammer", "--a", a, "--n", "1", "--p", "0.2", "--q", "0.7"]
        code, out = run_cli(capsys, *argv)
        assert (code, out.strip()) == (0, "0"), a


def test_eval_r_entries_at_unit_argument(capsys):
    code, out = run_cli(
        capsys, "eval", "r-entries", "--z", "1", "--lambda", "0.3+0.1i"
    )
    assert code == 0
    assert out.splitlines() == ["a = 0", "b = 1", "c = 1", "d = 0"]


def test_eval_tau_prints_oracle_deltas(capsys):
    code, out = run_cli(
        capsys,
        "eval", "tau", "--N", "1", "--k", "1", "--j", "1", "--m", "2",
        "--omega", "0.4-0.2i", "--lambda", "0.7+0.3i", "--z", "1.3+0.4i",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("tau = ")
    deltas = [float(line.split("= ")[1]) for line in lines[1:]]
    assert max(deltas) <= 1e-10


def test_eval_omega_termwise_agreement(capsys):
    code, out = run_cli(
        capsys,
        "eval", "omega", "--a1", "q^:1",
        "--upper", "0.9+0.2i,1.1,0.8-0.1i,1.2+0.3i,0.7,q^:9,q^:-2",
        "--slot", "6",
    )
    assert code == 0
    assert "omega = " in out and "terms = 3" in out


def test_run_single_suite_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out = run_cli(
        capsys,
        "run", "--suite", "series", "--samples", "3", "--seed", "9",
        "--json", str(path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["wall_time_ms"] is None
    assert [s["suite"] for s in report["suites"]] == ["series"]
    assert path.read_text() == out


def test_run_reports_are_byte_deterministic(capsys):
    _, first = run_cli(capsys, "run", "--suite", "series", "--samples", "3", "--seed", "4")
    _, second = run_cli(capsys, "run", "--suite", "series", "--samples", "3", "--seed", "4")
    assert first == second
    _, third = run_cli(capsys, "run", "--suite", "series", "--samples", "3", "--seed", "5")
    assert third != first


def test_run_times_each_suite_on_stderr(capsys):
    code = main(["run", "--suite", "series", "--suite", "theta", "--samples", "2", "--seed", "9"])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert [line.split(":")[0] for line in lines] == ["suite series", "suite theta", "wall time"]
    assert all(re.fullmatch(r"[a-z -]+: \d+ ms", line) for line in lines)
    cfg = RunConfig(seed=9, samples=2)
    assert captured.out == canonical_json(run_report(cfg, ["series", "theta"]))
    assert code == 0


def test_run_fails_on_impossible_tolerance(capsys):
    code, out = run_cli(
        capsys, "run", "--suite", "series", "--samples", "2", "--seed", "9",
        "--tol", "1e-30",
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_run_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", "--suite", "nope"])
    assert err.value.code == 2


def test_check_bailey_table(capsys):
    code, out = run_cli(capsys, "check", "bailey", "--n", "2", "--samples", "3", "--seed", "6")
    assert code == 0
    report = json.loads(out)
    assert report["check"] == "bailey"
    assert report["n"] == 2
    assert len(report["entries"]) + report["rejected"] == 3
    assert all(e["n"] == 2 for e in report["entries"])
    # The two factors of the redraw gate are reported apart.
    for e in report["entries"]:
        assert e["condition"] >= 1.0 and e["theta_condition"] >= 1.0
        assert e["condition"] * e["theta_condition"] <= BAILEY_MAX_CONDITION


def test_check_qdybe_table(capsys):
    code, out = run_cli(capsys, "check", "qdybe", "--samples", "3", "--seed", "6")
    assert code == 0
    report = json.loads(out)
    assert report["check"] == "qdybe"
    assert all(e["residual"] <= report["tol"] for e in report["entries"])


def test_check_relations_pinned_weights(capsys):
    code, out = run_cli(
        capsys,
        "check", "relations", "--omega", "0.4-0.2i", "--lambda", "0.7+0.3i",
        "--samples", "1", "--seed", "6",
    )
    assert code == 0
    report = json.loads(out)
    assert report["omega"] == [0.4, -0.2]
    assert report["lambda"] == [0.7, 0.3]
    names = [e["relation"] for e in report["entries"]]
    assert len(names) == len(set(names)) and len(names) >= 20


def test_check_corep_table(capsys):
    code, out = run_cli(capsys, "check", "corep", "--N", "2", "--samples", "1", "--seed", "6")
    assert code == 0
    report = json.loads(out)
    assert report["N"] == 2
    assert len(report["entries"]) == 9


def test_check_biorth_table(capsys):
    code, out = run_cli(
        capsys,
        "check", "biorth", "--N", "1", "--M", "1", "--samples", "1",
        "--seed", "6", "--dual",
    )
    assert code == 0
    report = json.loads(out)
    assert report["check"] == "dual-biorth"
    assert len(report["entries"]) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "corep", "--N", "-1"],
        ["check", "biorth", "--N", "0", "--samples", "1"],
        ["check", "biorth", "--N", "2", "--M", "-1"],
        ["check", "bailey", "--n", "-1"],
        ["check", "qdybe", "--samples", "0"],
        ["run", "--suite", "theta", "--p", "1.5"],
        ["run", "--suite", "theta", "--max-redraws", "-1"],
        ["run", "--suite", "theta", "--tol", "nan"],
        ["eval", "theta", "--z", "0"],
        ["eval", "theta", "--z", "1", "--p", "1.5"],
        ["eval", "theta", "--z", "1", "--q", "0"],
        ["eval", "pochhammer", "--a", "q^:x", "--n", "2"],
        ["eval", "pochhammer", "--a", "z*q^:1", "--n", "2"],
        ["eval", "omega", "--a1", "q^:1", "--upper", "0.9,q^:-2", "--slot", "5"],
        ["eval", "omega", "--a1", "q^:1", "--upper", "0.9,q^:-2", "--slot", "0"],
        [
            "eval", "tau", "--N", "1", "--k", "3", "--j", "0", "--m", "0",
            "--omega", "0.4", "--lambda", "0.7", "--z", "1.3",
        ],
        ["eval", "r-entries", "--z", "0.4", "--lambda", "-1"],
        ["eval", "r-entries", "--z", "0", "--lambda", "0.3"],
        ["eval", "theta", "--z", "nan"],
        ["eval", "pochhammer", "--a", "0", "--n", "2"],
        ["eval", "pochhammer", "--a", "nan", "--n", "2"],
        ["eval", "pochhammer", "--a", "0.5", "--n", "2", "--z", "0"],
        ["eval", "omega", "--a1", "0", "--upper", "0.9,1.1,q^:-2", "--slot", "2"],
        ["eval", "omega", "--a1", "q^:1", "--upper", "0,1.1,q^:-2", "--slot", "2"],
        [
            "eval", "tau", "--N", "1", "--k", "1", "--j", "1", "--m", "2",
            "--omega", "0.4", "--lambda", "0.7", "--z", "0",
        ],
        ["check", "relations", "--omega", "nan", "--samples", "1"],
        ["run", "--suite", "theta", "--seed", "-1"],
        # A theta value beyond the double range.
        ["eval", "theta", "--z", "1e-40", "--p", "0.05", "--q", "0.3"],
        # A nome whose theta product would be cut short of its floor.
        ["eval", "theta", "--z", "0.9+0.3i", "--p", "0.99"],
        ["run", "--suite", "theta", "--p", "0.99"],
        ["check", "qdybe", "--samples", "1", "--p", "0.995"],
        # Subnormal points, and a parameter product, beyond the double range.
        ["eval", "theta", "--z", "1e-320", "--p", "0.1"],
        ["eval", "theta", "--z", "1e-310", "--p", "0.5"],
        ["eval", "r-entries", "--z", "1e-320", "--lambda", "0.3"],
        ["eval", "omega", "--a1", "0.3", "--upper", "1e200,1e200,q^:-2", "--slot", "2"],
        # A leading parameter whose power in the balancing check is beyond it.
        ["eval", "omega", "--a1", "1e200", "--upper", "2,3,q^:-3", "--slot", "2"],
    ],
)
def test_domain_errors_exit_2_with_one_line(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ellu2: error: ")


def test_range_error_writes_no_numpy_warning():
    # In a fresh interpreter, as a user sees it: pytest would collect numpy's
    # RuntimeWarnings apart from the captured stderr.  The relations check's
    # one sample is rejected: every draw's records leave the double range.
    # At p = 0.9 and q = 0.01 the bailey check's series reach theta
    # arguments whose annulus reduction leaves the double range; those
    # draws are redrawn, and the check passes.
    cases = [
        (["eval", "pochhammer", "--a", "1e-320", "--n", "2"], 2, r"ellu2: error: .*"),
        (["check", "relations", "--omega", "1e300", "--samples", "1"], 1, r"wall time: \d+ ms"),
        (["check", "bailey", "--p", "0.9", "--q", "0.01", "--samples", "3"], 0, r"wall time: \d+ ms"),
    ]
    for argv, code, line in cases:
        done = subprocess.run(
            [sys.executable, "-m", "ellu2", *argv],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC)},
        )
        assert done.returncode == code and "RuntimeWarning" not in done.stderr
        assert (done.stdout == "") == (code == 2)
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and re.fullmatch(line, lines[0]), argv


@pytest.mark.parametrize(
    "argv,code,last",
    [
        # A power of q beyond the double range.
        (
            ["eval", "tau", "--N", "2", "--k", "1", "--j", "1", "--m", "2",
             "--omega", "1e300", "--lambda", "0.7", "--z", "1.3"],
            2,
            "ellu2: error: power of q exceeds double precision range",
        ),
        (
            ["eval", "r-entries", "--z", "1.3", "--lambda", "1e300"],
            2,
            "ellu2: error: power of q exceeds double precision range",
        ),
        # Theta arguments that underflow to 0: a pole at the command line,
        # redrawn in a check, whose every draw here sits on one.
        (
            ["eval", "pochhammer", "--a", "0.5", "--n", "100000"],
            2,
            "ellu2: error: theta value exceeds double precision range",
        ),
        (["check", "corep", "--N", "1", "--samples", "1", "--q", "1e-300"], 1, r"wall time: \d+ ms"),
        (["check", "relations", "--omega", "1e300", "--samples", "1"], 1, r"wall time: \d+ ms"),
    ],
    ids=["eval-tau", "eval-r-entries", "eval-pochhammer", "check-corep", "check-relations"],
)
def test_values_beyond_the_double_range_are_poles(capsys, argv, code, last):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert re.fullmatch(last, captured.err.splitlines()[-1])
    if code == 2:
        assert captured.out == "" and len(captured.err.splitlines()) == 1
    else:
        report = json.loads(captured.out)
        assert (report["samples"], report["rejected"], report["pass"]) == (0, 1, False)


def test_table_without_entries_never_passes():
    report = corep_table(RunConfig(seed=6), -1, 2)
    assert report["entries"] == []
    assert report["pass"] is False
