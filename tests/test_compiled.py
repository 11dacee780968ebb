"""The relation, determinant, unitarity and inversion checks compiled per shape.

Each family is built once per shape over records and bound to a sample in
one batch (``rep.Compiled``).  Its action must be the numeric
``apply_word_scaled``'s: the same indices on every side, the same values to
1e-13 of the side's largest path, and the numeric evaluation's first
error, type and message, at the same draws (``rep.item_errors``).
A wrong coefficient formula must fail the gate of the suite that reads it;
each fault is patched into the one formula both instances read, with the
shape cache emptied, so that no template compiled before the fault hides it.
"""

import gc
import importlib
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ellu2.corep import inversion_elements, unitarity_words
from ellu2.rep import (
    RepContext,
    apply_word_scaled,
    check_det_forms,
    check_relations,
    compiled,
    det_form_elements,
    det_scalar,
    relation_pairs,
)
from ellu2.sampling import draw_z
from ellu2.suites import RunConfig, run_suite
from ellu2.theta import PoleError, ThetaContext
import per_draw
from per_draw import rep_attempt

rep_mod = importlib.import_module("ellu2.rep")
theta_mod = importlib.import_module("ellu2.theta")
corep_mod = importlib.import_module("ellu2.corep")
suites_mod = importlib.import_module("ellu2.suites")
SRC = Path(__file__).resolve().parents[1] / "src"

Z1, Z2, Z = 1.1 + 0.3j, 0.7 - 0.5j, 0.9 + 0.6j


def relation_sides(rc, points):
    """The numeric sides of every (row, m) of a family at the spectral
    points ``points``: (action, largest path).  The words are built in row
    order, then applied for each m, side after side, so the first error
    raised is the numeric evaluation's."""
    return {
        (name, m): [apply_word_scaled(lhs, m, rc), apply_word_scaled(rhs, m, rc)]
        for name, lhs, rhs in relation_pairs(points["z1"], points["z2"], points["z"], 4, rc.ctx)
        for m in range(7)
    }


def det_form_sides(rc, points):
    def target(m):
        value = det_scalar(points["z"], rc.omega, rc.ctx)
        return {m: value}, abs(value)

    return {
        (name, m): [apply_word_scaled(el, m, rc), target(m)]
        for name, el in det_form_elements(points["z"], rc.ctx)
        for m in range(5)
    }


def unitarity_sides(N):
    def sides(rc, points):
        out = {}
        for k in range(N + 1):
            for j in range(N + 1):
                lhs, rhs = unitarity_words(N, k, j, points["z"], rc.ctx)
                for m in range(3):
                    out[(k, j, m), 0] = [apply_word_scaled(lhs, m, rc), apply_word_scaled(rhs, m, rc)]
        return out

    return sides


def inversion_sides(N):
    def sides(rc, points):
        out = {}
        for k in range(N + 1):
            for l in range(N + 1):
                elements = inversion_elements(N, k, l, points["z"], rc.ctx)
                for m in range(3):
                    got = [apply_word_scaled(el, m, rc) for el in elements]
                    out[(k, l, m), 0] = got + ([({m: 1.0}, 1.0)] if k == l else [])
        return out

    return sides


# name: (build, params, zero guard, spectral points, numeric sides)
FAMILIES = {
    "relations": (
        rep_mod._relation_rows, (6, 4), 1e-4, {"z": Z, "z1": Z1, "z2": Z2}, relation_sides
    ),
    "det forms": (rep_mod._det_form_rows, (4,), 1e-4, {"z": Z}, det_form_sides),
    **{
        f"unitarity N={N}": (corep_mod._unitarity_rows, (N, 2), 1e-12, {"z": Z}, unitarity_sides(N))
        for N in (1, 2, 3)
    },
    **{
        f"inversion N={N}": (corep_mod._inversion_rows, (N, 2), 1e-12, {"z": Z}, inversion_sides(N))
        for N in (1, 2)
    },
}


def point(rc, symbols):
    """The draw ``Template.bind_all`` takes for the sample of ``rc``."""
    return (rc.ctx, rc.lam0, rc.omega, symbols["z"], symbols.get("z1"), symbols.get("z2"))


def path_values(check, rc, symbols):
    """The value of every path of ``check`` at the sample of ``rc``, from
    ``bind_all``; no plan may fail there."""
    values, codes = check.template.bind_all([point(rc, symbols)])
    assert not codes.any()
    return values[0, : check.paths]


def draw(rng, zero_guard, lam0=None):
    ctx = ThetaContext(rng.uniform(0.05, 0.3), rng.uniform(0.55, 0.9), zero_guard=zero_guard)
    omega = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
    lam0 = complex(rng.uniform(-2, 2), rng.uniform(-1, 1)) if lam0 is None else lam0
    return RepContext(omega, lam0, ctx)


def side_values(name, values):
    """(key, m) -> [(indices, values) of each side's paths] of the family
    ``name``, from the values of its paths in template order: a re-walk of
    its rows, which ``rep.Compiled`` lays out in that order."""
    build, params, zero_guard = FAMILIES[name][:3]
    out, at = {}, 0
    for key, groups in build(theta_mod.TemplateContext(zero_guard), *params):
        for m, (sides, _) in enumerate(groups):
            out[key, m] = []
            for _, (paths, _) in sides:
                out[key, m].append(([index for index, _ in paths], values[at : at + len(paths)]))
                at += len(paths)
    assert at == len(values)
    return out


@pytest.mark.parametrize("name", FAMILIES)
def test_the_compiled_action_is_the_numeric_one(name):
    build, params, zero_guard, symbols, numeric_sides = FAMILIES[name]
    check = compiled(build, params, zero_guard)
    rng = np.random.default_rng(20240)
    for _ in range(2):
        rc = draw(rng, zero_guard)
        numeric = numeric_sides(rc, symbols)
        got = side_values(name, path_values(check, rc, symbols))
        assert set(got) == set(numeric)
        for key, sides in numeric.items():
            assert len(got[key]) == len(sides), key
            for (indices, values), (nmap, npeak) in zip(got[key], sides):
                cmap: dict = {}
                for index, value in zip(indices, values.tolist()):
                    cmap[index] = cmap.get(index, 0.0) + value
                assert set(cmap) == set(nmap), key
                scale = max([npeak, *map(abs, nmap.values())])
                for index, value in nmap.items():
                    assert abs(cmap[index] - value) <= 1e-13 * scale, (key, index)


@pytest.mark.parametrize("name", FAMILIES)
def test_a_draw_next_to_a_pole_raises_on_both_paths(name):
    # theta(q^(-2 (lam + 1))) vanishes at lam = -1, and the coefficients of
    # the leftmost letters divide by it at the sample point.
    build, params, zero_guard, symbols, numeric_sides = FAMILIES[name]
    rc = draw(np.random.default_rng(7), zero_guard, lam0=-1 + 1e-15 + 0j)
    with pytest.raises(PoleError):
        numeric_sides(rc, symbols)
    with pytest.raises(PoleError):
        rep_mod._rows_at(rc, build, params, **symbols)


def _outcome(fn, *args):
    """None if ``fn(*args)`` returns, else the type and message it raised."""
    try:
        fn(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("name", FAMILIES)
def test_a_compiled_family_raises_the_numeric_first_error(name):
    # 40 seeded suite draws, every other one at a zero guard of 0.05, the
    # rest at 0.01, so that guards fail: the bound family raises the type
    # and message of the first error the numeric evaluation raises (row
    # after row, ``rep.item_errors``), or both pass.
    build, params, _, symbols, numeric_sides = FAMILIES[name]
    rng = np.random.default_rng(4711)
    failed = 0
    for d in range(40):
        rc = rep_attempt(RunConfig(), rng, zero_guard=0.05 if d % 2 else 0.01)
        points = {key: draw_z(rng) for key in symbols}
        want = _outcome(numeric_sides, rc, points)
        got = _outcome(lambda: rep_mod._rows_at(rc, build, params, **points))
        assert got == want, d
        failed += want is not None
    assert failed >= 10


def outcome_bits(outcome):
    """A draw's rows as (key, ``float.hex``) pairs, or its error's type and message."""
    if isinstance(outcome, ArithmeticError):
        return type(outcome).__name__, str(outcome)
    return [(key, v.hex()) for key, v in outcome.items()]


@pytest.mark.parametrize("name", FAMILIES)
def test_a_bind_folds_its_draws_as_each_alone(name):
    # 40 seeded suite draws at a zero guard of 0.05, bound together: some
    # fail a guard.  One path of the first draw that passes is NaN, so that
    # its row folds to inf.  The bind's fold and outcomes, all draws at
    # once (``Compiled.fold``, ``outcomes``), equal the per-draw reference
    # at every draw, bit for bit: a failing draw gives its first error.
    build, params, _, symbols, _ = FAMILIES[name]
    rng = np.random.default_rng(4711)
    draws = []
    for _ in range(40):
        rc = rep_attempt(RunConfig(), rng, zero_guard=0.05)
        draws.append(point(rc, {key: draw_z(rng) for key in symbols}))
    check = compiled(build, params, 0.05)
    values, codes = check.template.bind_all(draws)

    def reference():
        return [per_draw.compiled_outcome(check, v, c, 0.05) for v, c in zip(values, codes)]

    nan_draw = next(d for d, got in enumerate(reference()) if not isinstance(got, ArithmeticError))
    values[nan_draw, 0] = np.nan
    want = reference()
    got = check.outcomes(values, codes, [0.05] * len(draws))
    assert [outcome_bits(o) for o in got] == [outcome_bits(o) for o in want]
    folded = [per_draw.compiled_fold(check, v[: check.paths]) for v in values]
    assert check.fold(values[:, : check.paths]).tobytes() == np.array(folded).tobytes()
    assert np.inf in got[nan_draw].values()
    # Some draws fail, and more than the NaN draw pass.
    assert 0 < sum(isinstance(o, ArithmeticError) for o in got) < len(draws) - 1


def compiled_plans(monkeypatch, build, params, zero_guard) -> tuple:
    """The check ``build`` builds, compiled afresh, and the (key, plan) pairs
    its template was compiled from."""
    plans = []

    def keeping(items):
        plans.extend(items)
        return theta_mod.Template(plans)

    with monkeypatch.context() as patch:
        patch.setattr(rep_mod, "Template", keeping)
        check = rep_mod.Compiled(build(theta_mod.TemplateContext(zero_guard), *params))
    return check, plans


@pytest.mark.parametrize("name", ["relations", "unitarity N=3"])
def test_products_bound_on_arrays_are_the_finished_plans(monkeypatch, name, scalar_finish):
    # ``bind_all`` finishes every path and guard product of a batch of draws
    # on arrays: the same bits as each plan's scalar ``finish`` gives.
    build, params, zero_guard, symbols, _ = FAMILIES[name]
    check, plans = compiled_plans(monkeypatch, build, params, zero_guard)
    rng = np.random.default_rng(1)
    draws = [point(draw(rng, zero_guard), symbols) for _ in range(3)]
    got, codes = check.template.bind_all(draws)
    assert not codes.any()
    for values, (want, errors) in zip(got, scalar_finish(plans, draws)):
        assert not errors
        assert [(v.real.hex(), v.imag.hex()) for v in values.tolist()] == [
            (v.real.hex(), v.imag.hex()) for v in want
        ]


def test_action_peaks_are_python_abs_bit_for_bit():
    # Log-uniform moduli, those at which numpy's abs of a complex array
    # rounds differently from Python's first: each side's largest path, by
    # the modulus the fold and the guards take (``rep._modulus``), must be
    # Python's abs of one of its paths, bit for bit.
    check = compiled(*FAMILIES["unitarity N=2"][:3])
    rng = np.random.default_rng(0)
    n = 20 * check.paths
    pool = np.exp(rng.uniform(-30, 30, n) + 2j * np.pi * rng.uniform(size=n))
    differs = np.abs(pool) != np.array([abs(v) for v in pool.tolist()])
    values = np.concatenate((pool[differs], pool[~differs]))[: check.paths]
    for key, sides in side_values("unitarity N=2", values).items():
        for _, side in sides:
            want = max(map(abs, side.tolist()), default=0.0)
            assert rep_mod._modulus(side).max(initial=0.0).hex() == want.hex(), key


def test_samplers_bind_each_family_once_per_batch(monkeypatch):
    # The unitarity and relations suites bind each family once per batch,
    # at all of its draws, and read every residual from what that returns:
    # no one-sample check (which binds through ``rep.bind_rows``) is called.
    calls, one_sample = [], []

    def counted(record, original):
        def bind(build, params, drawn):
            record.append((build, params, len(drawn)))
            return original(build, params, drawn)

        return bind

    monkeypatch.setattr(suites_mod, "bind_rows", counted(calls, suites_mod.bind_rows))
    monkeypatch.setattr(rep_mod, "bind_rows", counted(one_sample, rep_mod.bind_rows))
    runs = {
        "unitarity": [(corep_mod._unitarity_rows, (N, 2)) for N in (1, 2, 3)]
        + [(corep_mod._inversion_rows, (N, 2)) for N in (1, 2)],
        "relations": [(rep_mod._relation_rows, (6, 4)), (rep_mod._det_form_rows, (4,))],
    }
    for name, families in runs.items():
        calls.clear()
        assert run_suite(name, RunConfig(seed=1, samples=12))["pass"]
        sizes = [n for _, _, n in calls[:: len(families)]]
        assert calls == [(build, params, n) for n in sizes for build, params in families]
        assert sizes[0] == suites_mod.AHEAD and sum(sizes) >= 12
    assert not one_sample


# -- gates with teeth: each fault patched into the shared formula ----------------


def suite_fails(name, tol):
    rec = run_suite(name, RunConfig(seed=1, samples=2))
    assert not rec["pass"] and rec["rejected"] == 0
    assert rec["max_rel_residual"] > 1e3 * tol
    return rec["max_rel_residual"]


def test_a_flipped_r_matrix_sign_fails_relations(monkeypatch):
    monkeypatch.setattr(rep_mod, "_SHAPES", {})
    original = rep_mod.r_entries

    def flipped(lam, z, ctx):
        a, b, c, d = original(lam, z, ctx)
        return a, -b, c, d

    monkeypatch.setattr(rep_mod, "r_entries", flipped)
    assert suite_fails("relations", 1e-9) > 0.1


def test_a_coef_c_exponent_off_by_1e_4_fails_relations(monkeypatch):
    monkeypatch.setattr(rep_mod, "_SHAPES", {})
    original = rep_mod.coef_c

    def off(k, lam, z, omega, ctx):
        # The scalar q^(-(k - 1)) as q^(-(k - 1) + 1e-4).
        return original(k, lam, z, omega, ctx) * ctx.qpow(1e-4)

    monkeypatch.setattr(rep_mod, "coef_c", off)
    suite_fails("relations", 1e-9)


def test_a_gamma_factor_fault_fails_unitarity(monkeypatch):
    monkeypatch.setattr(rep_mod, "_SHAPES", {})
    original = corep_mod.gamma_factor

    def off(N, k, x, ctx):
        return original(N, k, x + 1e-4, ctx)

    monkeypatch.setattr(corep_mod, "gamma_factor", off)
    suite_fails("unitarity", 1e-8)


def test_the_shape_cache_keeps_its_cap(monkeypatch):
    monkeypatch.setattr(rep_mod, "_SHAPES", {})
    monkeypatch.setattr(theta_mod, "SHAPE_CAP", 1)
    rc = draw(np.random.default_rng(11), 1e-4)
    rows = [check_det_forms(rc, Z, mmax) for mmax in (1, 2)]
    assert len(rep_mod._SHAPES) == 1
    # A shape past the cap is compiled for each call, to the same rows.
    assert check_det_forms(draw(np.random.default_rng(11), 1e-4), Z, 2) == rows[1]


def test_compiled_checks_stay_small(monkeypatch):
    # The shapes the battery compiles: relations and det forms at the
    # suite's sizes, unitarity at N = 1..3 and inversion at N = 1, 2.  They
    # held 0.52 MB when this cap was set.
    monkeypatch.setattr(rep_mod, "_SHAPES", {})
    shapes = [(rep_mod._relation_rows, (6, 4), 1e-4), (rep_mod._det_form_rows, (4,), 1e-4)]
    shapes += [(corep_mod._unitarity_rows, (N, 2), 1e-12) for N in (1, 2, 3)]
    shapes += [(corep_mod._inversion_rows, (N, 2), 1e-12) for N in (1, 2)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for build, params, zero_guard in shapes:
            compiled(build, params, zero_guard)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(rep_mod._SHAPES) == len(shapes)
    assert held <= 1.0e6


def test_no_check_is_compiled_at_import():
    code = "import importlib, ellu2\nassert not importlib.import_module('ellu2.rep')._SHAPES\n"
    subprocess.run([sys.executable, "-c", code], check=True, env={"PYTHONPATH": str(SRC)})


def test_relations_and_det_forms_keep_their_rows():
    rc = draw(np.random.default_rng(5), 1e-4)
    rows = check_relations(rc, Z1, Z2, Z, mmax=2, kmax_reverse=2)
    assert [name for name, _ in rows] == [name for name, _, _ in relation_pairs(Z1, Z2, Z, 2, rc.ctx)]
    assert max(res for _, res in rows) <= 1e-9
    forms = check_det_forms(rc, Z, mmax=2)
    assert [name for name, _ in forms] == [name for name, _ in det_form_elements(Z, rc.ctx)]
