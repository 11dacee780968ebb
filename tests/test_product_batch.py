"""The theta products of a bound template, reduced together, against ``ThetaProduct.finish``.

Binding a template reduces every theta product of it in one pass over
split real and imaginary float64 arrays (``theta._Products``), with CPython's
own formulas for complex ``*``, ``/`` and ``abs``.  Each product, finished
on arrays as a plan of a template (``Template.bind_all``, after its plan
scalar), must equal bit for bit what ``ThetaProduct.finish`` gives on the
same bound values, and must fail with the ``PoleError`` message it raises.
Each plan finished on arrays must equal its own scalar ``finish``.
"""

import importlib
from operator import mul
from types import SimpleNamespace

import numpy as np
import pytest

from ellu2.biorth import BiorthParams, _sweep
from ellu2.theta import (
    DEN_GUARD,
    PRODUCT_RANGE,
    Joined,
    Plan,
    PoleError,
    Rec,
    Template,
    TemplateContext,
    ThetaContext,
    ThetaProduct,
    binomial_plan,
    combine,
    error,
    known,
    qarg,
)
from per_draw import draw_context, draw_lambda, draw_z


def products(plan):
    """Every theta product of ``plan``, those in a plan scalar before the
    product that holds them."""
    if isinstance(plan, ThetaProduct):
        if isinstance(plan.scalar, Plan):
            yield from products(plan.scalar)
        yield plan
    elif isinstance(plan, Joined):
        for part in plan.parts:
            yield from products(part)


def bits(value):
    return value.real.hex(), value.imag.hex()


def bound(template, sample) -> list:
    """The bits of every plan ``template`` finishes on arrays at ``sample``,
    or the message of its failure."""
    (values,), (codes,) = template.bind_all([sample])
    return [str(error(c)) if c else bits(v) for v, c in zip(values.tolist(), codes.tolist())]


def finished(scalar_finish, plans, sample) -> list:
    """The bits of what each plan's scalar ``finish`` returns at ``sample``,
    or the message it raises."""
    [(values, failed)] = scalar_finish(plans, [sample])
    return [str(failed[i]) if i in failed else bits(v) for i, v in enumerate(values)]


class BoundProducts:
    """The plans a template was compiled from (built over records), and
    their theta products, each a plan of a template of its own, finished on
    arrays and by their scalar ``finish`` (``scalar_finish``)."""

    def __init__(self, template, plans, scalar_finish):
        self.template, self.plans, self.scalar_finish = template, list(plans), scalar_finish
        found = (node for _, plan in self.plans for node in products(plan))
        self.found = list(enumerate(found))
        self.products = Template(self.found)

    def compare(self, sample) -> list:
        """The outcome of every product at ``sample``, the same on arrays
        and from ``ThetaProduct.finish``; and every plan finished on arrays
        as its scalar ``finish`` finishes it."""
        scalar = finished(self.scalar_finish, self.found, sample)
        assert bound(self.products, sample) == scalar
        assert bound(self.template, sample) == finished(self.scalar_finish, self.plans, sample)
        return scalar


def sweep_products(bp, plans, scalar_finish):
    """The theta products of the sweep template of the shape of ``bp``, from
    the shared sweep plans ``plans`` (the ``sweep_plans`` fixture)."""
    return BoundProducts(_sweep(bp).template, plans(bp.N, bp.M, bp.ctx.zero_guard), scalar_finish)


def sample(bp):
    return bp.ctx, bp.Lam, bp.omega, bp.z


@pytest.mark.parametrize("N", range(1, 9))
def test_every_product_of_every_sweep_equals_the_scalar_finish(N, sweep_plans, scalar_finish):
    # One sweep holds the items of the direct and the dual checks.
    rng = np.random.default_rng([8675309, N])
    for M in range(3):
        found = None
        for _ in range(3):
            bp = BiorthParams(N, draw_lambda(rng), M, draw_lambda(rng), draw_z(rng), draw_context(rng))
            found = found or sweep_products(bp, sweep_plans, scalar_finish)
            results = found.compare(sample(bp))
            # Some draws at N = 8 leave the double range; most values do not.
            assert sum(isinstance(r, str) for r in results) < len(results) // 10
        # Products over a number, a record and a joined plan are among them.
        scalars = {type(node.scalar) for _, node in found.found}
        assert {complex, Plan, Joined} <= scalars


def test_a_zero_guard_hit_fails_as_the_scalar_path(sweep_plans, scalar_finish):
    # Under a zero guard of 1e3 every denominator fails it; a product with
    # none still gets its value.
    for N in (2, 4):
        bp = BiorthParams(
            N, 0.8 + 0.4j, 1, 0.3 - 0.2j, 1.2 + 0.5j, ThetaContext(0.12, 0.67, zero_guard=1e3)
        )
        results = sweep_products(bp, sweep_plans, scalar_finish).compare(sample(bp))
        assert DEN_GUARD in results
        assert any(not isinstance(r, str) for r in results)


def test_products_beyond_the_double_range_or_exactly_zero_as_the_scalar_path(scalar_finish):
    # q^-1772 is about 1.6e308 at q = 0.67, and theta(-1) about 2.5: their
    # product leaves the double range, times a record or after a plan
    # scalar.  A surviving exact zero (theta(1)
    # in (q^-2; q^2)_2) makes a product exactly 0 whatever its scalar.
    ctx = TemplateContext()
    big, minus_one = Rec(c=-1772), Rec(neg=1)

    def scaled():
        return ThetaProduct(ctx, combine(ctx, [binomial_plan(3, 1, ctx), known(ctx, big)], mul))

    plans = [
        ("record", ThetaProduct(ctx, big).theta(minus_one)),
        ("scaled", scaled().theta(minus_one)),
        ("fine", ThetaProduct(ctx, Rec(c=-10)).theta(minus_one, inv=True).theta(minus_one)),
        ("zero", ThetaProduct(ctx, big).theta(minus_one).poch(qarg(-1), 2)),
        ("scaled zero", scaled().theta(minus_one, inv=True).poch(qarg(-1), 2)),
        # Equal numbers, apart in their bits: each keeps its own scalar.
        ("0j", ThetaProduct(ctx, 0j).theta(minus_one)),
        ("-0j", ThetaProduct(ctx, complex(-0.0, -0.0)).theta(minus_one)),
    ]
    found = BoundProducts(Template(plans), plans, scalar_finish)
    results = found.compare((ThetaContext(0.12, 0.67), 0.8 + 0.4j, 0.3 - 0.2j, 1.2 + 0.5j))
    # A plan scalar's product (the binomial) comes before the product it is in.
    names = ["record", "binomial", "scaled", "fine", "zero", "binomial", "scaled zero", "0j", "-0j"]
    got = dict(zip(names, results))
    assert got["0j"] != got["-0j"]
    assert got["record"] == got["scaled"] == PRODUCT_RANGE
    assert got["zero"] == got["scaled zero"] == ("0x0.0p+0", "0x0.0p+0")
    assert not isinstance(got["fine"], str) and not isinstance(got["binomial"], str)


def test_a_product_that_underflows_to_zero_raises_as_out_of_range(scalar_finish):
    # theta(q^(1e-13)) is about 1e-14 and vanishes exactly for no draw: thirty
    # of them take the running product below the least double, to 0.  Without
    # an exact zero factor, that 0 is a range failure, not a value, in the
    # scalar loop and in the batched pass alike.
    ctx = TemplateContext()
    near_one = Rec(c=1e-13)
    plans = [
        ("underflow", ThetaProduct(ctx, Rec(c=2)).theta(near_one, count=30)),
        ("fine", ThetaProduct(ctx, Rec(c=2)).theta(near_one, count=3)),
        ("0j scalar", ThetaProduct(ctx, 0j).theta(near_one, count=3)),
    ]
    found = BoundProducts(Template(plans), plans, scalar_finish)
    got = dict(zip(["underflow", "fine", "0j scalar"], found.compare((ThetaContext(0.12, 0.67), 0, 0, 1))))
    assert got["underflow"] == PRODUCT_RANGE
    assert not isinstance(got["fine"], str) and got["0j scalar"] == ("0x0.0p+0", "0x0.0p+0")


def test_an_exact_zero_theta_value_makes_a_product_zero_on_every_path(scalar_finish):
    # The record q^Λ is not tracked as a zero, but at Λ = 0 it is 1, and
    # theta(1) comes out exactly 0j: a product with it among its numerators
    # is that 0, after a record or a plan scalar, in the scalar loop and in
    # ``bind_all``, with the other plans or alone.  A product that
    # underflows to 0 beside it still fails.
    ctx = TemplateContext()
    at_one, near_one = Rec(lam=1), Rec(c=1e-13)
    scaled = combine(ctx, [binomial_plan(3, 1, ctx), known(ctx, Rec(c=3))], mul)
    plans = [
        ("zero", ThetaProduct(ctx, Rec(c=2)).theta(at_one).theta(Rec(neg=1), inv=True)),
        ("zero after a plan", ThetaProduct(ctx, scaled).theta(Rec(neg=1)).theta(at_one)),
        ("underflow", ThetaProduct(ctx, Rec(c=2)).theta(near_one, count=30)),
    ]
    sample = (ThetaContext(0.12, 0.67), 0, 0.3 - 0.2j, 1.2 + 0.5j)
    found = BoundProducts(Template(plans), plans, scalar_finish)
    got = dict(zip(["zero", "binomial", "zero after a plan", "underflow"], found.compare(sample)))
    assert got["underflow"] == PRODUCT_RANGE
    for name in ("zero", "zero after a plan"):
        assert not isinstance(got[name], str) and all(float.fromhex(x) == 0 for x in got[name])
    values, codes = Template(plans[:1]).bind_all([sample])
    assert values.tolist() == [[0j]] and codes.tolist() == [[0]]
    _, [[code]] = Template(plans[2:]).bind_all([sample])
    assert type(error(code)) is PoleError and str(error(code)) == PRODUCT_RANGE


theta_mod = importlib.import_module("ellu2.theta")
INF, NAN = float("inf"), float("nan")
# Theta values a bound template can meet: signed zeros and exactly 0j,
# infinities and NaNs, subnormals, and values near the ends of the range.
ADVERSARIAL = [
    0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
    complex(INF, 0.0), complex(-INF, 1.0), complex(INF, INF), complex(NAN, 0.0), complex(1.0, NAN),
    complex(5e-324, 0.0), complex(1e-310, -3e-320), complex(-2.5e-160, 1e-170),
    complex(1e300, 1e300), complex(1e308, -1e308), complex(-1e-300, 0.0),
    1 + 0j, -1 + 0j, 1j, complex(1.0, -0.0),
]


def split_loop(dens, nums, re, im):
    """What ``ThetaProduct.finish`` multiplies before its scalar, at every
    draw: one ``_c_mul`` step per factor into 1 + 0j, on split arrays, each
    factor nums[s] / dens[s] (1 / dens[s] past the numerators), then
    nums[s]; index -1 is the 1.0 appended to the theta values."""
    pr, pi = np.ones(re.shape[1]), np.zeros(re.shape[1])
    for s in range(max(len(dens), len(nums))):
        if s < len(dens):
            a = nums[s] if s < len(nums) else -1
            fr, fi = theta_mod._c_div(re[a], im[a], re[dens[s]], im[dens[s]])
        else:
            fr, fi = re[nums[s]], im[nums[s]]
        pr, pi = theta_mod._c_mul(pr, pi, fr, fi)
    return pr, pi


def scalar_code(dens, nums, values, guard) -> int:
    """The failure code ``ThetaProduct.finish`` meets at one draw's theta
    values: the first denominator below the guard or whose ``abs`` raises,
    else ``_EXACT`` where a numerator is exactly 0j, else 0."""
    for d in dens:
        try:
            if abs(values[d]) < guard:
                return theta_mod.CODE[DEN_GUARD]
        except OverflowError:
            return theta_mod.CODE[PRODUCT_RANGE]
    return theta_mod._EXACT if any(values[a] == 0 for a in nums) else 0


def random_products(rng, count: int, thetas: int) -> list:
    """(dens, nums, zeros) of ``count`` products over ``thetas`` theta
    values; indices from a narrow range repeat the same quotients."""
    out = []
    for _ in range(count):
        top = thetas if rng.random() < 0.5 else 4
        dens = rng.integers(0, top, rng.integers(0, 7)).tolist()
        nums = rng.integers(0, top, rng.integers(0, 9)).tolist()
        zeros = int(rng.random() < 0.1)
        out.append((dens, [] if zeros else nums, zeros))
    return out


def hexes(re, im) -> list:
    return [(x.hex(), y.hex()) for x, y in zip(re.tolist(), im.tolist())]


@pytest.mark.parametrize("block_bytes", [theta_mod.BLOCK_BYTES, 256])
def test_the_reduced_products_are_the_split_step_loop(monkeypatch, block_bytes):
    # One np.multiply.reduceat per block of chains gives every running
    # product what a split _c_mul loop started at 1 + 0j gives, bit for bit,
    # at 1-16 draws, on ordinary and adversarial theta values, with the
    # same codes; each draw gets the bits it gets bound alone.  At 256
    # bytes a block holds one or a few chains.
    monkeypatch.setattr(theta_mod, "BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(26)
    thetas, guard = 40, 1e-3
    checked = {"exact": 0, "guarded": 0, "nan": 0}
    for draws in range(1, 17):
        specs = random_products(rng, 60, thetas) + [([], [], 0), ([3], [], 1)]
        batch = theta_mod._Products(int, guard)
        for dens, nums, zeros in specs:
            batch.add(SimpleNamespace(_den=dens, _num=nums, zeros=zeros))
        batch.close()
        th = rng.lognormal(0.0, 1.0, (thetas, draws)) * np.exp(2j * np.pi * rng.random((thetas, draws)))
        special = rng.random((thetas, draws)) < 0.3
        th[special] = rng.choice(ADVERSARIAL, int(special.sum()))
        b = theta_mod.Bound.of(np.empty((0, draws)), th)
        got = batch.reduce(b)
        assert list(batch.rank) == list(range(len(specs)))
        for p, (dens, nums, _) in enumerate(specs):
            with np.errstate(all="ignore"):
                pr, pi = split_loop(dens, nums, b.re, b.im)
            assert hexes(got.re[p], got.im[p]) == hexes(pr, pi), (draws, p)
            codes = [scalar_code(dens, nums, th[:, k].tolist(), guard) for k in range(draws)]
            assert got.code[p].tolist() == codes, (draws, p)
            checked["exact"] += codes.count(theta_mod._EXACT)
            checked["guarded"] += sum(c > 0 for c in codes)
            checked["nan"] += int(np.isnan(pr).sum())
        for k in range(draws):
            alone = batch.reduce(theta_mod.Bound.of(np.empty((0, 1)), th[:, k : k + 1]))
            assert hexes(alone.re[:, 0], alone.im[:, 0]) == hexes(got.re[:, k], got.im[:, k])
            assert alone.code[:, 0].tolist() == got.code[:, k].tolist()
    assert min(checked.values()) > 50, checked


def test_blocks_cover_the_chains_within_the_byte_bound():
    # Whole chains, in order, each block within BLOCK_BYTES at its draw
    # count unless it is one chain that alone exceeds it.
    rng = np.random.default_rng(7)
    lengths = rng.integers(1, 3000, 400)
    starts = np.concatenate(([0], np.cumsum(lengths)))
    for draws in (1, 2, 10, 16, 160):
        blocks = list(theta_mod._blocks(starts, draws))
        assert [b[0] for b in blocks] == [0, *(b[1] for b in blocks[:-1])]
        assert blocks[-1][1] == len(lengths)
        for first, stop in blocks:
            size = (starts[stop] - starts[first]) * 16 * draws
            assert size <= theta_mod.BLOCK_BYTES or stop == first + 1
