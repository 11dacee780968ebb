"""Templates: the biorthogonality items built once per shape over exponent records.

The same builders run over numbers and over records (``theta.Rec``).  A
template must list the records of exactly the arguments the number build
lists, drop exactly the factors the number build counts as exact zeros, and
bind to the bits an item gets when bound alone.
"""

import gc
import importlib
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import pytest

from ellu2.biorth import (
    _ITEMS,
    BiorthCache,
    BiorthParams,
    _item,
    _symbols,
    _oracle_keys,
    _summand_keys,
    _sweep_keys,
    c_det_product,
    check_biorth,
    check_dual_biorth,
    norm_h,
    weight_w1,
    weight_w2,
)
from ellu2.series import _Series
from ellu2.theta import (
    LAM,
    OMEGA,
    Z,
    Joined,
    Rec,
    Scalar,
    TemplateContext,
    ThetaContext,
    ThetaProduct,
    garg,
)

biorth_mod = importlib.import_module("ellu2.biorth")
SRC = Path(__file__).resolve().parents[1] / "src"


def params(N, M, ctx=None):
    return BiorthParams(N, 0.8 + 0.4j, M, 0.3 - 0.2j, 1.2 + 0.5j, ctx or ThetaContext(0.12, 0.67))


def hexes(x):
    x = complex(x)
    return x.real.hex(), x.imag.hex()


# -- the record algebra ------------------------------------------------------


def test_records_multiply_by_adding_fields():
    ctx = TemplateContext()
    a = ctx.qpow(2 * (LAM - OMEGA + 3))
    assert a == Rec(2, -2, 6, 0, 0, 0)
    assert Z * a / Z**2 == Rec(2, -2, 6, -1, 0, 0)
    assert (-1.0) * a == Rec(2, -2, 6, 0, 0, 1) and -1 * (-1 * a) == a
    assert a**-1 * a == Rec() and ctx.q2n(3) == ctx.qpow(6)
    assert TemplateContext.conj(ctx.qpow(4) / Z) == Rec(c=4, zbp=-1)
    assert ctx.qpow(2 * LAM + 6 - 2 * OMEGA) == a
    with pytest.raises(TypeError):
        3 * a  # not tuple repetition
    with pytest.raises(TypeError):
        a * 0.5
    with pytest.raises(TypeError):
        TemplateContext.conj(a)
    with pytest.raises(TypeError):
        ctx.qpow(LAM * OMEGA)
    with pytest.raises(TypeError):
        ctx.qpow(1j)


def test_exact_zero_rule_is_derived_from_the_record():
    ctx = TemplateContext()
    # Every symbol coefficient 0, no sign, even constant exponent: q^(2s).
    assert garg(ctx.qpow(-4)) == (-2, 1.0 + 0.0j, True)
    assert garg(ctx.qpow(-4)).theta_is_zero(2)
    for generic in (ctx.qpow(-3), ctx.qpow(2 * OMEGA), Z * ctx.qpow(2) / Z**2, -1.0 * ctx.qpow(2)):
        arg = garg(generic)
        assert not arg.is_one and arg.generic is generic
    assert garg(Z / Z).theta_is_zero()


# -- the templates against the number build ----------------------------------


def subplans(plan):
    """The plans a plan is made of, depth first, itself first."""
    yield plan
    if isinstance(plan, Joined):
        for part in plan.parts:
            yield from subplans(part)
    elif isinstance(plan, ThetaProduct) and isinstance(plan.scalar, (Joined, ThetaProduct)):
        yield from subplans(plan.scalar)


def zero_structure(plan):
    """What the exact-zero rule decided while building ``plan``."""
    out = []
    for sub in subplans(plan):
        if isinstance(sub, ThetaProduct):
            out.append(("product", sub.zeros, len(sub._num), len(sub._den)))
        elif isinstance(sub, _Series):
            params = [sub.a1, *sub.nums, *sub.dens] + ([sub.merged[0]] if sub.merged else [])
            out.append(("series", sub.n, [(t.is_one, t.s) for t in params]))
        elif isinstance(sub, Joined):
            out.append(("joined", len(sub.parts)))
        else:
            out.append("value")
    return out


def record_value(rec, bp):
    q, lam, om, z = bp.ctx.q, bp.Lam, bp.omega, bp.z
    value = q ** (rec.lam * lam + rec.om * om + rec.c) * z**rec.zp * z.conjugate() ** rec.zbp
    return -value if rec.neg else value


def test_every_sweep_key_is_a_check_key():
    for N in range(1, 9):
        used = set()
        for k in range(N + 1):
            for l in range(N + 1):
                for dual in (False, True):
                    used.update([("cd",)] + ([] if dual else [("h", k)]))
                    for j in range(N + 1):
                        used.update(_summand_keys(k, l, j, dual) + _oracle_keys(k, l, j, dual))
        assert used == set(_sweep_keys(N))


@pytest.mark.parametrize("N", range(1, 9))
def test_derived_zero_rule_agrees_with_is_one(N):
    # Every argument of every item, direct and dual (one sweep serves both),
    # at M <= 2: the template drops the factors the number build counts as
    # exact zeros by ``is_one``, its series see the same tracked powers, and
    # its records are the number build's arguments.
    for M in range(3):
        numbers = params(N, M, ThetaContext(0.21, 0.63))
        symbols = _symbols(numbers)
        for key in _sweep_keys(N):
            try:
                plan = _ITEMS[key[0]](numbers, *key[1:])
            except (ArithmeticError, ValueError) as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    _ITEMS[key[0]](symbols, *key[1:])
                continue
            template = _ITEMS[key[0]](symbols, *key[1:])
            assert zero_structure(template) == zero_structure(plan), key
            records = [a for a in template.args if type(a) is Rec]
            assert len(records) == len(plan.args), key
            for rec, arg in zip(records, plan.args):
                assert abs(record_value(rec, numbers) - arg) <= 1e-12 * abs(arg), key


# -- binding -------------------------------------------------------------------


@pytest.mark.parametrize("N,M", [(3, 0), (4, 2)])
def test_single_items_are_bit_identical_to_the_sweep(N, M):
    bp = params(N, M)
    cache = BiorthCache()
    for check in (check_biorth, check_dual_biorth):
        for k in range(N + 1):
            for l in range(N + 1):
                check(bp, k, l, cache)
    # The sweep holds exactly the sweep keys, finished once for both sums.
    sweep, values, failed = cache.items(bp)
    assert list(sweep.template.plans) == _sweep_keys(N) and not failed
    swept = dict(zip(sweep.template.plans, values))
    for key, value in swept.items():
        assert hexes(_item(bp, key)) == hexes(value), key
    for i1 in range(N + 1):
        assert hexes(norm_h(bp, i1)) == hexes(swept["h", i1])
        for i2 in range(N + 1):
            assert hexes(weight_w1(bp, i1, i2, True)) == hexes(swept["w1", i1, i2])
            assert hexes(weight_w2(bp, i1, i2, True)) == hexes(swept["w2", i1, i2])
    assert hexes(c_det_product(bp)) == hexes(swept["cd",])


def mp_theta(x, p):
    out, pj = mpmath.mpc(1), mpmath.mpf(1)
    while pj > mpmath.mpf(10) ** -40:
        out *= (1 - x * pj) * (1 - pj * p / x)
        pj *= p
    return out


KEYS = [
    ("cd",), ("h", 2), ("w1", 2, 1), ("w2", 1, 3), ("f", 2, 3, True), ("f", 3, 1, False),
    ("tilde", 1, 2), ("tau", 2, 2), ("g1", 1), ("g2", 3),
]


@pytest.mark.parametrize("key", KEYS, ids=["-".join(map(str, k)) for k in KEYS])
def test_bound_items_match_a_long_product_evaluation(key):
    # The template's records and theta values taken to 30 digits, by long
    # products; the plan then reduces them in that precision.
    bp = params(3, 1, ThetaContext(0.17, 0.71))
    plan = _ITEMS[key[0]](_symbols(bp), *key[1:])
    with mpmath.workdps(30):
        q, p = mpmath.mpf(bp.ctx.q), mpmath.mpf(bp.ctx.p)
        lam, om, z = mpmath.mpc(bp.Lam), mpmath.mpc(bp.omega), mpmath.mpc(bp.z)

        def value(rec):
            out = q ** (rec.lam * lam + rec.om * om + rec.c) * z**rec.zp * mpmath.conj(z) ** rec.zbp
            return -out if rec.neg else out

        vals = [value(a.rec) if type(a) is Scalar else mp_theta(value(a), p) for a in plan.args]
        want = complex(plan.finish(vals))
    got = _item(bp, key)
    assert want != 0 and abs(got - want) <= 1e-12 * abs(want)


def test_shapes_are_kept_up_to_the_cap(monkeypatch):
    monkeypatch.setattr(biorth_mod, "_SWEEPS", {})
    monkeypatch.setattr(biorth_mod, "SHAPE_CAP", 2)
    reports = {}
    for M in range(4):
        bp = params(2, M)
        reports[M] = check_biorth(bp, 1, 1, BiorthCache())
        assert len(biorth_mod._SWEEPS) == min(M + 1, 2)
    # A shape past the cap is built for each sweep, to the same values.
    for M in range(4):
        assert check_biorth(params(2, M), 1, 1, BiorthCache()) == reports[M]


def test_single_items_leave_no_module_state():
    # A template built for one item is dropped with everything it made, its
    # shared skeletons too: no dict, list or set at module level grows with
    # repeated single-item calls.  Indices 0 and N reach the plans of numbers
    # (the elliptic binomials at their endpoints).
    mods = [importlib.import_module(f"ellu2.{m}") for m in ("theta", "series", "corep", "biorth")]

    def sizes():
        return {
            (m.__name__, name): len(v)
            for m in mods
            for name, v in vars(m).items()
            if isinstance(v, (dict, list, set))
        }

    N = 3
    weight_w1(params(N, 1), 0, N, True)
    before = sizes()
    for i in range(N + 1):
        bp = params(N, 1, ThetaContext(0.1 + 0.01 * i, 0.6))
        weight_w1(bp, i, N - i, True)
        weight_w2(bp, N - i, i, True)
        norm_h(bp, i)
        c_det_product(bp)
    assert sizes() == before


def held_by_templates(monkeypatch, shapes) -> float:
    """Bytes (tracemalloc) the sweeps of ``shapes`` hold in the module's
    shape cache: the templates with their series and product programs, and
    the compiled checks of the direct and the dual sums."""
    monkeypatch.setattr(biorth_mod, "_SWEEPS", {})
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for N, M in shapes:
            sweep = biorth_mod._sweep(params(N, M))
            sweep.program(False), sweep.program(True)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(biorth_mod._SWEEPS) == len(shapes)
    return held


def test_battery_templates_stay_small(monkeypatch):
    # The 15 shapes of the battery's biorthogonality suites (N = 1..5,
    # M = 0..2).
    assert held_by_templates(monkeypatch, [(N, M) for N in range(1, 6) for M in range(3)]) <= 1.5e6


def test_levels_templates_stay_small(monkeypatch):
    # The 3 shapes of the benchmark's level tables (N = 6..8, M = 1): 0.82 MB
    # when this cap was set.
    assert held_by_templates(monkeypatch, [(N, 1) for N in (6, 7, 8)]) <= 1.0e6


def test_no_template_is_built_at_import():
    # Nor is a check compiled: a sweep compiles the checks of each sum at
    # the first check of that sum.
    code = (
        "import importlib, ellu2\n"
        "biorth = importlib.import_module('ellu2.biorth')\n"
        "assert not biorth._SWEEPS\n"
        "from ellu2.theta import ThetaContext\n"
        "bp = biorth.BiorthParams(2, 0.8 + 0.4j, 1, 0.3 - 0.2j, 1.2 + 0.5j, ThetaContext(0.12, 0.67))\n"
        "assert not biorth._sweep(bp)._programs\n"
        "biorth.check_dual_biorth(bp, 1, 0)\n"
        "assert list(biorth._sweep(bp)._programs) == [True]\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env={"PYTHONPATH": str(SRC)})
