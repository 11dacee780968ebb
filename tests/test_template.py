"""Templates: the biorthogonality items built once per shape over exponent records.

The same builders run over numbers and over records (``theta.Rec``).  A
template must list the records of exactly the arguments the number build
lists, drop exactly the factors the number build counts as exact zeros, and
bind to the bits an item gets when bound alone.
"""

import gc
import importlib
import math
import re
import subprocess
import sys
import tracemalloc
from operator import mul
from pathlib import Path

import mpmath
import numpy as np
import pytest

from ellu2.biorth import (
    _ITEMS,
    _over,
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
from ellu2.series import A1_GUARD, _Series, vwp_plan
from ellu2.theta import (
    DEN_GUARD,
    ERRORS,
    LAM,
    OMEGA,
    Z,
    Joined,
    PoleError,
    Rec,
    Scalar,
    Template,
    TemplateContext,
    ThetaContext,
    ThetaProduct,
    combine,
    error,
    garg,
    known,
    qarg,
    theta_vec,
)
from per_draw import draw_context, draw_lambda, draw_z

biorth_mod = importlib.import_module("ellu2.biorth")
theta_mod = importlib.import_module("ellu2.theta")
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
def test_derived_zero_rule_agrees_with_is_one(N, sweep_plans):
    # Every argument of every item, direct and dual (one sweep serves both),
    # at M <= 2: the template drops the factors the number build counts as
    # exact zeros by ``is_one``, its series see the same tracked powers, and
    # its records are the number build's arguments.
    for M in range(3):
        numbers = params(N, M, ThetaContext(0.21, 0.63))
        symbols = _symbols(numbers)
        templates = dict(sweep_plans(N, M))
        for key in _sweep_keys(N):
            try:
                plan = _ITEMS[key[0]](numbers, *key[1:])
            except (ArithmeticError, ValueError) as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    _ITEMS[key[0]](symbols, *key[1:])
                continue
            template = templates[key]
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
    # The sweep holds exactly the sweep keys, finished at ``bp`` as the checks bind it.
    sweep = biorth_mod._sweep(bp)
    (values,), (codes,) = sweep.template.bind_all([biorth_mod._draw(bp)])
    assert list(sweep.template.plans) == _sweep_keys(N) and not codes.any()
    swept = dict(zip(sweep.template.plans, values))
    for key, value in swept.items():
        assert hexes(_item(bp, key)) == hexes(value), key
    for i1 in range(N + 1):
        assert hexes(norm_h(bp, i1)) == hexes(swept["h", i1])
        for i2 in range(N + 1):
            assert hexes(weight_w1(bp, i1, i2, True)) == hexes(swept["w1", i1, i2])
            assert hexes(weight_w2(bp, i1, i2, True)) == hexes(swept["w2", i1, i2])
    assert hexes(c_det_product(bp)) == hexes(swept["cd",])


def failures(codes):
    """The error of each failing plan by position, from one draw's failure
    codes (``Template.bind_all``)."""
    return {i: error(c) for i, c in enumerate(codes.tolist()) if c}


def finished_bits(values, failed):
    """The bits of finished plan values (a failing plan's value skipped),
    and the type and message of each failure."""
    bits = [None if i in failed else hexes(v) for i, v in enumerate(values)]
    return bits, {i: (type(e), str(e)) for i, e in failed.items()}


def bound_together(template, draws):
    """For each of ``draws``, bound together: the bits and failure code of
    every source the plans are finished from (``Template._bind``), and the
    bits of every plan ``bind_all`` finishes, with its failures."""
    values, codes = template.bind_all(draws)
    re, im, code, _ = template._bind(draws, template._program.sources)
    out = []
    for d in range(len(draws)):
        sources = list(zip(map(float.hex, re[:, d].tolist()), map(float.hex, im[:, d].tolist())))
        sources = list(zip(sources, code[:, d].tolist()))
        out.append((sources, finished_bits(values[d].tolist(), failures(codes[d]))))
    return out


def drawn(rng, N, M, count):
    """``count`` params drawn as the suites and tables draw them."""
    bps = []
    for _ in range(count):
        ctx = draw_context(rng)
        bps.append(BiorthParams(N, draw_lambda(rng), M, draw_lambda(rng), draw_z(rng), ctx))
    return bps


def assert_bound_together_as_alone(template, plans, draws, scalar_finish):
    """Each of ``draws`` bound with the others, in batches of 1, 2 and 10,
    gets the bits of its sources bound alone, and finishes every plan as
    alone; alone, each plan finishes as ``plans``, those ``template`` was
    compiled from, finish by their own scalar ``finish``."""
    alone = [bound_together(template, [draw])[0] for draw in draws]
    for (_, finished), (values, failed) in zip(alone, scalar_finish(plans, draws)):
        assert finished == finished_bits(values, failed)
    for K in (1, 2, 10):
        for start in range(0, len(draws), K):
            together = bound_together(template, draws[start : start + K])
            assert together == alone[start : start + K]


def bound_draws(bps):
    return [(bp.ctx, bp.Lam, bp.omega, bp.z) for bp in bps]


@pytest.mark.parametrize("N", range(1, 9))
def test_draws_bound_together_are_bit_identical_to_draws_bound_alone(N, sweep_plans, scalar_finish):
    rng = np.random.default_rng([271828, N])
    for M in range(3):
        bps = drawn(rng, N, M, 10)
        template = biorth_mod._sweep(bps[0]).template
        assert_bound_together_as_alone(template, sweep_plans(N, M), bound_draws(bps), scalar_finish)


@pytest.mark.parametrize("N", range(1, 9))
def test_the_array_finish_equals_the_skeleton_finish(N, sweep_plans, scalar_finish):
    # Every item of every sweep shape at N, M <= 2 (the items of the direct
    # and the dual sums), ten draws finished together on arrays: the values
    # and the failures, positions, types and messages, of each item's plan
    # finished one by one by its scalar ``finish``.
    rng = np.random.default_rng([141421, N])
    for M in range(3):
        draws = bound_draws(drawn(rng, N, M, 10))
        template = biorth_mod._sweep(params(N, M)).template
        values, codes = template.bind_all(draws)
        want = scalar_finish(sweep_plans(N, M), draws)
        assert [finished_bits(v.tolist(), failures(c)) for v, c in zip(values, codes)] == [
            finished_bits(v, f) for v, f in want
        ]


@pytest.mark.parametrize("seed,N,count", [(20240, 8, 4), (3164770343, 6, 3)])
def test_the_pinned_failing_draws_bound_together_are_bit_identical(
    seed, N, count, sweep_plans, scalar_finish
):
    # The draws of the direct table at (seed, N, M = 1, 2 samples), redrawn
    # ones included: at seed 20240 a series of the level-8 sweep leaves the
    # double range in two of them, at seed 3164770343 a tau head of the
    # level-6 sweep underflows in one.
    bps = drawn(np.random.default_rng([seed, 200 + 10 * N + 1]), N, 1, count)
    template = biorth_mod._sweep(bps[0]).template
    assert_bound_together_as_alone(template, sweep_plans(N, 1), bound_draws(bps), scalar_finish)
    _, codes = template.bind_all(bound_draws(bps))
    assert codes.any(axis=1).sum() == count - 2


def test_a_reduction_without_an_array_form_is_refused_at_compile():
    # A joined plan's reduction runs on arrays only in its declared array
    # form; a sum is not declared.  Products of records compile.
    ctx = TemplateContext()
    parts = [known(ctx, ctx.qpow(LAM)), known(ctx, Z)]
    draw = (ThetaContext(0.12, 0.67), 0.8 + 0.4j, 0.3 - 0.2j, 1.2 + 0.5j)
    with pytest.raises(TypeError, match="no array form"):
        Template([("sum", combine(ctx, parts, lambda a, b: a + b))])
    values, _ = Template([("product", combine(ctx, parts, mul))]).bind_all([draw])
    want = 0.67 ** (0.8 + 0.4j) * (1.2 + 0.5j)
    assert abs(values[0, 0] - want) <= 1e-15 * abs(want)


def test_a_division_by_zero_fails_as_the_skeleton_finish(scalar_finish):
    # Python raises where the arrays give NaN: the array finish fails the
    # plan with the error the plan's scalar finish raises.
    ctx = TemplateContext()
    plans = [
        ("by zero", combine(ctx, [known(ctx, 0j), known(ctx, Z)], _over)),
        ("of zero", combine(ctx, [known(ctx, Z), known(ctx, 0j)], _over)),
    ]
    draw = (ThetaContext(0.12, 0.67), 0.8 + 0.4j, 0.3 - 0.2j, 1.2 + 0.5j)
    values, (codes,) = Template(plans).bind_all([draw])
    failed = failures(codes)
    assert list(failed) == [0] and type(failed[0]) is ZeroDivisionError
    [(want, want_failed)] = scalar_finish(plans, [draw])
    assert finished_bits(values[0].tolist(), failed) == finished_bits(want, want_failed)


def test_each_failure_code_is_the_error_python_raises():
    # A failure code stands for the error the scalar finish raises at the
    # same values: Python's own at its arithmetic, the messages of
    # ``ThetaProduct.finish`` and ``_Series.finish`` at their guards and
    # range checks, and last ``theta_vec``'s at an argument that underflowed
    # to 0, which a bound draw's every plan takes.  A Python that rewords an error fails here, rather than
    # change what the reports raise unnoticed.
    def raised(fn, *args):
        with pytest.raises(ArithmeticError) as got:
            fn(*args)
        return type(got.value), str(got.value)

    ctx = ThetaContext(0.12, 0.67)
    guarded = ThetaProduct(ctx).theta(garg(1.3 + 0.2j), inv=True)
    too_big = ThetaProduct(ctx, 1e300).theta(garg(1.3 + 0.2j))
    series = vwp_plan(ctx, garg(1.1 + 0.3j), [qarg(-2), garg(0.7 - 0.4j)], [garg(0.9 + 0.2j)], 2)
    vals = theta_vec(series.args, ctx).tolist()
    # The layout of ``_Series.args`` over numbers: three numerator rows (a1
    # first) and two denominator rows of n = 2 factors, the head of n + 1,
    # then theta(a1).
    den, head, a1 = 6, 10, 13

    def changed(at, value):
        return [value if i == at else v for i, v in enumerate(vals)]

    pole = vwp_plan(ctx, garg(1.1 + 0.3j), [qarg(-2)], [qarg(-1)], 2)
    python = [
        raised(guarded.finish, [1e-20 + 0j]),
        raised(too_big.finish, [1e300 + 0j]),
        raised(series.finish, changed(head, complex(math.inf, 0.0))),
        raised(series.finish, changed(a1, 1e-20 + 0j)),
        raised(pole.finish, theta_vec(pole.args, ctx).tolist()),
        raised(lambda: 1 / 0j),
        raised(lambda: 1.0 / 0.0),
        raised(abs, complex(1.5e308, 1.5e308)),
        raised(theta_vec, [0j], ctx),
    ]
    assert raised(series.finish, changed(den, 1e-20 + 0j)) == python[0]
    assert python == list(ERRORS[1:])
    for code, (kind, message) in enumerate(ERRORS[1:], 1):
        assert (type(error(code)), str(error(code))) == (kind, message)
    assert len(ERRORS) <= np.iinfo(np.int8).max


def test_plans_at_two_zero_guards_finish_as_in_templates_of_their_own():
    # The corep towers hold closed forms built at the sample's zero guard
    # and word paths built at none, in one template: each plan's products
    # are reduced with its own guard.  At a guard of 10 every denominator
    # fails; at 0 none does.
    draw = (ThetaContext(0.12, 0.67), 0.8 + 0.4j, 0.3 - 0.2j, 1.2 + 0.5j)

    def plans(guard):
        ctx = TemplateContext(guard)
        tp = ThetaProduct(ctx, Z).theta(garg(Z * ctx.qpow(LAM)), inv=True)
        tp.theta(garg(ctx.qpow(OMEGA)))
        return [((guard, 0), tp), ((guard, 1), ThetaProduct(ctx).theta(garg(Z), inv=True))]

    def bound(items):
        template = Template(items)
        values, (codes,) = template.bind_all([draw])
        return {
            key: finished_bits([values[0, i]], failures(codes[i : i + 1]))
            for key, i in template.plans.items()
        }

    alone = {**bound(plans(10.0)), **bound(plans(0.0))}
    assert bound(plans(10.0) + plans(0.0)) == alone
    assert bound(plans(0.0) + plans(10.0)) == alone
    for i in (0, 1):
        assert alone[(10.0, i)][1] == {0: (PoleError, DEN_GUARD)}
        assert alone[(0.0, i)][1] == {}


def test_guard_failures_bound_together_are_those_bound_alone(sweep_plans, scalar_finish):
    # q^(2 Λ) = p puts zeros of theta at some series' theta(a1) and at
    # denominators of series and products: draws there, bound with generic
    # ones, fail where and as they fail bound alone.
    ctx = ThetaContext(0.2, 0.7)
    lam = complex(math.log(ctx.p) / (2 * math.log(ctx.q)), 0.0)
    rng = np.random.default_rng(161803)
    for N in (2, 4):
        bps = drawn(rng, N, 1, 3)
        bps[1:1] = [BiorthParams(N, lam, 1, om, 1.2 + 0.5j, ctx) for om in (0.3 - 0.2j, 0.7j)]
        template = biorth_mod._sweep(bps[0]).template
        assert_bound_together_as_alone(template, sweep_plans(N, 1), bound_draws(bps), scalar_finish)
        _, codes = template.bind_all(bound_draws(bps))
        messages = {str(exc) for exc in failures(codes[1]).values()}
        assert {DEN_GUARD, A1_GUARD} <= messages and codes[2].any()


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
def test_bound_items_match_a_long_product_evaluation(key, sweep_plans):
    # The template's records and theta values taken to 30 digits, by long
    # products; the plan then reduces them in that precision.
    bp = params(3, 1, ThetaContext(0.17, 0.71))
    plan = dict(sweep_plans(bp.N, bp.M))[key]
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
    monkeypatch.setattr(theta_mod, "SHAPE_CAP", 2)
    reports = {}
    for M in range(4):
        bp = params(2, M)
        reports[M] = check_biorth(bp, 1, 1, BiorthCache())
        assert len(biorth_mod._SWEEPS) == min(M + 1, 2)
    # A shape past the cap is built for each sweep, to the same values.
    for M in range(4):
        assert check_biorth(params(2, M), 1, 1, BiorthCache()) == reports[M]


def test_single_items_leave_no_module_state():
    # A template built for one item is dropped with everything it made: no
    # dict, list or set at module level grows with repeated single-item
    # calls.  Indices 0 and N reach the plans of numbers
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
    shape cache: the templates with their series, product and finish
    programs, and the compiled checks of the direct and the dual sums."""
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
    # M = 0..2): 1.02 MB when this cap was set.
    assert held_by_templates(monkeypatch, [(N, M) for N in range(1, 6) for M in range(3)]) <= 1.2e6


def test_levels_templates_stay_small(monkeypatch):
    # The 3 shapes of the benchmark's level tables (N = 6..8, M = 1): 0.82 MB
    # when this cap was set.
    assert held_by_templates(monkeypatch, [(N, 1) for N in (6, 7, 8)]) <= 0.9e6


def test_no_template_is_built_at_import():
    # Nor is a check compiled: a sweep compiles the checks of each sum at
    # the first check of that sum, and its template compiles its finish
    # program as it is built, at the sweep's first use.
    code = (
        "import importlib, ellu2\n"
        "biorth = importlib.import_module('ellu2.biorth')\n"
        "assert not biorth._SWEEPS\n"
        "from ellu2.theta import ThetaContext\n"
        "bp = biorth.BiorthParams(2, 0.8 + 0.4j, 1, 0.3 - 0.2j, 1.2 + 0.5j, ThetaContext(0.12, 0.67))\n"
        "assert not biorth._sweep(bp)._programs\n"
        "biorth.check_dual_biorth(bp, 1, 0)\n"
        "assert list(biorth._sweep(bp)._programs) == [True]\n"
        "assert biorth._sweep(bp).template._program is not None\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env={"PYTHONPATH": str(SRC)})
