"""End-to-end acceptance battery with pinned tolerances.

Runs the default verification battery once per module and checks every
headline and subsidiary residual class against its contracted tolerance,
plus byte-determinism of the JSON report and the overall runtime budget.
"""

import dataclasses
import importlib
import json
import re
import time

import numpy as np
import pytest

from ellu2.corep import _unitarity_rows, tau_plan, tau_tilde_plan
from ellu2.sampling import draw_z
from ellu2.series import check_bailey
from ellu2.suites import (
    RunConfig,
    assemble_report,
    biorth_table,
    canonical_json,
    corep_table,
    qdybe_table,
    relations_table,
    run_report,
    run_suite,
)
from ellu2.theta import PoleError, ThetaContext, theta_vec
import per_draw
from per_draw import theta_identity_residual

CFG = RunConfig(seed=20240)
suites_mod = importlib.import_module("ellu2.suites")
rep_mod = importlib.import_module("ellu2.rep")

NOTE = re.compile(r"^(?P<name>.+): max residual (?P<res>[0-9.e+-]+) \(tol (?P<tol>[0-9.e+-]+)\)$")


@pytest.fixture(scope="module")
def battery():
    t0 = time.monotonic()
    report = run_report(CFG, None)
    return report, time.monotonic() - t0


def suite_record(report, name):
    for rec in report["suites"]:
        if rec["suite"] == name:
            return rec
    raise AssertionError(f"missing suite record {name}")


def note_classes(rec):
    out = {}
    for note in rec["notes"]:
        m = NOTE.match(note)
        if m:
            out[m.group("name")] = (float(m.group("res")), float(m.group("tol")))
    return out


def test_theta_identities_two_hundred_draws(battery):
    rec = suite_record(battery[0], "theta")
    assert rec["samples"] + rec["rejected"] == 200
    assert rec["max_rel_residual"] <= 1e-10
    assert rec["pass"]


def test_theta_three_term_gate_rejects_a_wrong_identity():
    # Each term is scaled by its own theta condition; that must not absorb a
    # wrong identity.  Without the z / y factor of its third term, the
    # three-term relation fails the suite's 1e-10 gate on every draw.
    rng = np.random.default_rng(5)
    for _ in range(100):
        ctx = CFG.context(rng)
        z, w, x, y = (draw_z(rng) for _ in range(4))
        right = [
            (1.0, (x * y, x / y, z * w, z / w)),
            (-1.0, (x * w, x / w, z * y, z / y)),
            (-z / y, (x * z, x / z, y * w, y / w)),
        ]
        wrong = right[:2] + [(-1.0, right[2][1])]
        values = theta_vec([a for _, args in right for a in args], ctx).tolist()
        assert theta_identity_residual(right, values, ctx) <= 1e-12
        assert theta_identity_residual(wrong, values, ctx) > 1e-6
        # The suite's array form gives the same residuals, bit for bit.
        for terms in (right, wrong):
            got, code = per_draw.batch_identity_residual(terms, values, ctx)
            assert (got.hex(), code) == (theta_identity_residual(terms, values, ctx).hex(), 0)


@pytest.mark.parametrize("seed", [20240, 7, 1])
def test_theta_suite_fails_a_truncated_kernel(monkeypatch, seed):
    # The theta suite reads its values from ``theta_vec``, the kernel every
    # compiled check reads.  Cut that kernel's product short, at p^j below
    # 1e-10 instead of 1e-17, and the identities miss the suite's 1e-10
    # gate by about 4x.
    monkeypatch.setattr(importlib.import_module("ellu2.theta"), "TRUNCATION_FLOOR", 1e-10)
    rec = run_suite("theta", RunConfig(seed=seed))
    assert not rec["pass"] and rec["rejected"] == 0
    assert 1e-10 < rec["max_rel_residual"] < 1e-9


def test_hexagon_identity_and_middle_determinant(battery):
    rec = suite_record(battery[0], "qdybe")
    assert rec["samples"] + rec["rejected"] == 100
    assert rec["max_rel_residual"] <= 1e-10
    res, tol = note_classes(rec)["det closed form"]
    assert tol == 1e-12 and res <= 1e-12
    assert rec["pass"]


def test_representation_preserves_all_relations(battery):
    # Covers the exchange relations, both residual families, the reversal
    # identities up to k = 4, and the antipode inversion identities, each on
    # basis vectors up to m = 6.
    rec = suite_record(battery[0], "relations")
    assert rec["samples"] + rec["rejected"] == 50
    assert rec["max_rel_residual"] <= 1e-9
    assert rec["pass"]


def test_determinant_expansions_act_as_the_scalar(battery):
    rec = suite_record(battery[0], "relations")
    res, _ = note_classes(rec)["det forms"]
    assert res <= 1e-10


def test_matrix_element_oracle_tower(battery):
    # Word-level evaluation, shifted-coefficient product, and closed form
    # agree pairwise for N <= 4, every (k, j), m <= 3; the conjugated family
    # matches its closed form for N <= 3.
    rec = suite_record(battery[0], "corep")
    assert rec["max_rel_residual"] <= 1e-8
    res, _ = note_classes(rec)["conjugate tower"]
    assert res <= 1e-8
    assert rec["pass"]


def test_coproduct_and_tensor_action(battery):
    rec = suite_record(battery[0], "corep")
    classes = note_classes(rec)
    cop_res, _ = classes["tensor coproduct"]
    rll_res, rll_tol = classes["tensor relations"]
    assert cop_res <= 1e-8
    assert rll_tol == 1e-9 and rll_res <= 1e-9


def test_counit_is_structurally_exact(battery):
    rec = suite_record(battery[0], "corep")
    assert "counit structure exact for N <= 5" in rec["notes"]


def test_unitarity_full_sweep(battery):
    rec = suite_record(battery[0], "unitarity")
    assert rec["samples"] + rec["rejected"] == 20
    assert rec["max_rel_residual"] <= 1e-8
    assert rec["pass"]


@pytest.mark.parametrize("name", ["biorth", "dual-biorth"])
def test_biorthogonality_and_dual(battery, name):
    # Ten draws per level/shift cell: N <= 5 crossed with M in {0, 1, 2}.
    rec = suite_record(battery[0], name)
    assert rec["samples"] + rec["rejected"] == 150
    assert rec["max_rel_residual"] <= 1e-6
    res, tol = note_classes(rec)["termwise vs oracle"]
    assert tol == 1e-7 and res <= 1e-7
    oracle_res, _ = note_classes(rec)["representation oracle"]
    assert oracle_res <= 1e-7
    assert rec["pass"]


def test_series_transformation_fifty_draws(battery):
    rec = suite_record(battery[0], "bailey")
    assert rec["samples"] + rec["rejected"] == 50
    assert rec["max_rel_residual"] <= 1e-7
    assert rec["pass"]


def test_bailey_gate_counts_the_theta_condition():
    # At seed 89885882 one draw has p within 0.6% of q^12, which puts a
    # factor of the terminating row near a zero of theta: rounding alone gave
    # residual 2.4e-7 against the 1e-7 tolerance at a cancellation condition
    # of 7.8e5, while the identity holds there to 3e-42 in 50 digits.  Counting
    # the factors' theta condition redraws it.
    rec = run_suite("bailey", RunConfig(seed=89885882))
    assert rec["pass"] and rec["rejected"] == 0


def test_bailey_gate_fails_a_wrong_transformation(monkeypatch):
    # The same draws with the right side off by a relative 1e-5 must fail:
    # the theta condition redraws ill-conditioned draws, it does not excuse
    # residuals.
    def scaled(*args):
        report = check_bailey(*args)
        rhs = report.rhs * (1 + 1e-5)
        residual = abs(report.lhs - rhs) / (abs(report.lhs) + abs(rhs) + 1e-300)
        return dataclasses.replace(report, rhs=rhs, residual=residual)

    monkeypatch.setattr(suites_mod, "check_bailey", scaled)
    rec = run_suite("bailey", RunConfig(seed=89885882))
    assert not rec["pass"] and rec["max_rel_residual"] > 1e-6 and rec["rejected"] == 0


NAN, INF = float("nan"), float("inf")


def _nan(original):
    return lambda *args, **kw: NAN


def _nan_arrays(original):
    def patched(*args, **kw):
        return tuple(np.full_like(part, NAN) for part in original(*args, **kw))

    return patched


def _nan_rows(build):
    # The batch binder, each row of the check ``build`` NaN at every draw
    # whose binding did not fail.
    def patch(original):
        def patched(check, params, drawn):
            got = original(check, params, drawn)
            if check is not build:
                return got
            return [rows if isinstance(rows, ArithmeticError) else dict.fromkeys(rows, NAN) for rows in got]

        return patched

    return patch


def _nan_at_index_3(original):
    # The batch binder, its template's values NaN on every path at m = 3.
    def patched(build, params, drawn):
        check = rep_mod.compiled(build, params, drawn[0][0].ctx.zero_guard)
        bind_all = check.template.bind_all

        def nan_paths(draws):
            values, failed = bind_all(draws)
            values[:, : check.paths][:, check.path_m == 3] = NAN
            return values, failed

        check.template.bind_all = nan_paths
        try:
            return original(build, params, drawn)
        finally:
            del check.template.bind_all

    return patched


def _nan_tower(plan, nan_side="closed", many=False):
    # One side of the tower of ``plan`` ("closed" or "word"), each bound
    # value NaN; the items that fail still raise.  With ``many``, the
    # binder of many samples (``closed_towers``), each of its readers so.
    def patch(original):
        def nan(read):
            def nan_read(k, j, m, side="closed"):
                value = read(k, j, m, side)
                return value * NAN if side == nan_side else value

            return nan_read

        def patched(build, *args):
            got = original(build, *args)
            if build is not plan:
                return got
            return [nan(read) for read in got] if many else nan(got)

        return patched

    return patch


def _suite(name):
    return lambda cfg: run_suite(name, cfg)


def _relations_table(cfg):
    return relations_table(cfg, None, None, cfg.samples)


# (module, name, patch, runs): each run must fail once ``patch`` has made
# the named function return NaN.  The first two cases break a residual the
# suites fold across samples; the others break one folded inside a check, or
# the ratio of the corep suite's independence gate.  The corep towers' word
# and closed sides are bound per level, at a batch of draws in the corep
# tables (``corep.closed_towers``) and at one draw in the corep suite
# (``corep.closed_tower``); the conjugate tower is a class of the corep
# suite beside its headline.
NAN_CASES = {
    "qdybe-residual": (
        "suites", "qdybe_residual", _nan,
        [_suite("qdybe"), lambda cfg: qdybe_table(cfg, cfg.samples)],
    ),
    "relation-rows": (
        "suites", "bind_rows", _nan_rows(rep_mod._relation_rows), [_suite("relations"), _relations_table]
    ),
    "theta-product": ("suites", "_theta_identity_residual", _nan, [_suite("theta")]),
    "unitarity": ("suites", "bind_rows", _nan_rows(_unitarity_rows), [_suite("unitarity")]),
    "closed-tau": (
        "suites", "closed_towers", _nan_tower(tau_plan, many=True),
        [lambda cfg: corep_table(cfg, 2, cfg.samples)],
    ),
    "word-tau": (
        "suites", "closed_towers", _nan_tower(tau_plan, "word", many=True),
        [lambda cfg: corep_table(cfg, 2, cfg.samples)],
    ),
    "conjugate-tau": ("suites", "closed_tower", _nan_tower(tau_tilde_plan), [_suite("corep")]),
    "conjugate-word": (
        "suites", "closed_tower", _nan_tower(tau_tilde_plan, "word"), [_suite("corep")]
    ),
    "basis-index-3": (
        "suites", "bind_rows", _nan_at_index_3, [_suite("relations"), _relations_table]
    ),
    "representation-oracle": (
        "biorth", "_oracle_terms", _nan_arrays, [lambda cfg: biorth_table(cfg, 2, 0, cfg.samples, False)]
    ),
    "independence-ratio": ("suites", "linear_independence_ratio", _nan, [_suite("corep")]),
}


@pytest.mark.parametrize("case", NAN_CASES)
def test_a_nan_residual_fails_closed(monkeypatch, case):
    # A check that breaks into NaN must fail its gate: max(0.0, nan) is 0.0,
    # so a plain maximum would report it as exact.  The NaN shows as an
    # infinite residual, or, for the independence ratio, as a ratio of 0.
    mod_name, name, patch, runs = NAN_CASES[case]
    mod = importlib.import_module(f"ellu2.{mod_name}")
    monkeypatch.setattr(mod, name, patch(getattr(mod, name)))
    cfg = RunConfig(seed=1, samples=1)
    for run in runs:
        record = run(cfg)
        assert not record["pass"]
        if case == "independence-ratio":
            assert "matrix element independence ratio 0.000e+00 <= 1e-08" in record["notes"]
        elif case in ("conjugate-tau", "conjugate-word"):
            assert "conjugate tower: max residual inf (tol 1e-08)" in record["notes"]
        elif "entries" not in record:
            assert record["max_rel_residual"] == INF
        elif record["check"] != "qdybe":  # the qdybe table reports each sample unfolded
            assert record["entries"]
            assert all(e["max_rel_residual"] == INF for e in record["entries"])


@pytest.mark.parametrize("check", ["corep", "biorth"])
def test_a_table_entry_no_sample_reached_does_not_pass(monkeypatch, check):
    # Every attempt at a pole: no sample completes, so no (k, j) or (k, l)
    # entry was checked.  Each keeps its fields and 0.0, and fails.
    def at_a_pole(*args):
        raise PoleError("every attempt at a pole")

    def at_poles(bps, dual):
        return [PoleError("every attempt at a pole") for _ in bps]

    cfg = RunConfig(seed=1, max_redraws=2)
    if check == "corep":
        monkeypatch.setattr(suites_mod, "_corep_tower", at_a_pole)
        report, second = corep_table(cfg, 2, 2), "j"
    else:
        monkeypatch.setattr(suites_mod, "sweep_rows", at_poles)
        report, second = biorth_table(cfg, 2, 0, 2, False), "l"
    assert (report["samples"], report["rejected"], report["pass"]) == (0, 2, False)
    assert len(report["entries"]) == 9
    for entry in report["entries"]:
        assert set(entry) == {"k", second, "max_rel_residual", "pass"}
        assert entry["max_rel_residual"] == 0.0 and entry["pass"] is False


def test_a_failing_report_is_strict_json(monkeypatch):
    # A NaN residual folds to +inf in the suite and stays NaN in the table's
    # entries; neither may reach the report as a bare NaN or Infinity token.
    monkeypatch.setattr(suites_mod, "qdybe_residual", _nan(None))
    cfg = RunConfig(seed=1, samples=1)

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    suite = json.loads(canonical_json(assemble_report(cfg, [run_suite("qdybe", cfg)])), parse_constant=refuse)
    assert suite["suites"][0]["max_rel_residual"] == "inf" and not suite["pass"]
    table = json.loads(canonical_json(qdybe_table(cfg, 1)), parse_constant=refuse)
    assert table["entries"][0]["residual"] == "nan" and not table["pass"]


def test_the_k_equals_n_row_passes():
    # At this seed a draw of the biorth row k = N holds a tau head whose
    # running product underflows to exactly 0 with no exact zero factor;
    # seven entries failed while that 0 passed for a value.  It now raises
    # as leaving the double range, and the draw is redrawn.
    table = biorth_table(RunConfig(seed=3164770343), 6, 1, 2, False)
    assert table["pass"] and table["rejected"] == 0 and table["samples"] == 2


def test_relations_table_keeps_an_exact_relation(monkeypatch):
    rows = [("exact", 0.0), ("rounded", 1e-12)]
    monkeypatch.setattr(suites_mod, "bind_rows", lambda build, params, drawn: [dict(rows)] * len(drawn))
    table = relations_table(RunConfig(seed=1), None, None, 2)
    assert [(e["relation"], e["max_rel_residual"]) for e in table["entries"]] == rows
    assert table["pass"]


def test_a_relations_draw_notes_its_rows_before_its_det_form_error(monkeypatch):
    # The first draw has one relation row over tolerance and its
    # determinant forms at a pole: the row's note is kept, and the draw is
    # redrawn, its residuals left out of the report.
    bind_rows, binds = suites_mod.bind_rows, []

    def patched(build, params, drawn):
        got = bind_rows(build, params, drawn)
        binds.append(build)
        if len(binds) == 1:
            got[0] = {**got[0], "commute alpha": 1.0}
        elif len(binds) == 2:
            got[0] = PoleError("determinant forms at a pole")
        return got

    monkeypatch.setattr(suites_mod, "bind_rows", patched)
    rec = run_suite("relations", RunConfig(seed=1, samples=2))
    assert binds[:2] == [rep_mod._relation_rows, rep_mod._det_form_rows]
    assert "relation over tolerance: commute alpha (1.000e+00)" in rec["notes"]
    assert (rec["samples"], rec["rejected"], rec["pass"]) == (2, 0, True)
    assert rec["max_rel_residual"] < 1e-9


def test_series_transformation_residual_formula():
    # The reported residual is |LHS - RHS| / (|LHS| + |RHS|), pinned here so
    # reported numbers stay comparable across versions.
    ctx = ThetaContext(0.15, 0.7)
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 3:
        vals = [complex(rng.uniform(0.6, 1.6), rng.uniform(-0.4, 0.4)) for _ in range(6)]
        try:
            rep = check_bailey(*vals, 3, ctx)
        except PoleError:
            continue
        direct = abs(rep.lhs - rep.rhs) / (abs(rep.lhs) + abs(rep.rhs))
        assert abs(rep.residual - direct) <= 1e-12
        checked += 1


def test_reports_are_byte_deterministic(battery):
    again = run_report(CFG, None)
    assert canonical_json(again) == canonical_json(battery[0])
    assert again["wall_time_ms"] is None


def test_every_suite_passes(battery):
    report, _ = battery
    assert report["pass"] is True
    assert [rec["suite"] for rec in report["suites"]] == [
        "theta",
        "series",
        "bailey",
        "qdybe",
        "relations",
        "corep",
        "unitarity",
        "biorth",
        "dual-biorth",
    ]
    assert all(rec["rejected"] == 0 for rec in report["suites"])


def test_full_battery_fits_the_time_budget(battery):
    assert battery[1] < 120.0
