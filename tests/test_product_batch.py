"""The theta products of a bound template, reduced together, against ``ThetaProduct.finish``.

``Template.bind`` reduces every theta product of a template in one pass over
split real and imaginary float64 arrays (``theta._Products``), with CPython's
own formulas for complex ``*``, ``/`` and ``abs``.  Each product, finished
from its slice of the bound template (its skeleton reads the batch result,
after finishing a plan scalar), must equal bit for bit what
``ThetaProduct.finish`` gives on the same bound values, and must raise the
same ``PoleError`` message.
"""

from operator import mul

import numpy as np
import pytest

from ellu2.biorth import BiorthParams, _ITEMS, _sweep, _sweep_keys, _symbols
from ellu2.sampling import draw_context, draw_lambda, draw_z
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
    _Scaled,
    binomial_plan,
    combine,
    known,
    qarg,
)


def products(plan, skeleton, offset=0):
    """(offset, product, skeleton) of every theta product of ``plan``, those
    in a plan scalar before the product that holds them."""
    if isinstance(plan, ThetaProduct):
        assert isinstance(skeleton, _Scaled)
        if isinstance(plan.scalar, Plan):
            yield from products(plan.scalar, skeleton.scalar, offset)
        yield offset, plan, skeleton
    elif isinstance(plan, Joined):
        for part, sk, cut in zip(plan.parts, skeleton.parts, skeleton.cuts):
            yield from products(part, sk, offset + cut)


def outcome(finish, vals):
    """The bits of what ``finish(vals)`` returns, or the message it raises."""
    try:
        value = finish(vals)
    except PoleError as exc:
        return str(exc)
    return value.real.hex(), value.imag.hex()


class BoundProducts:
    """The theta products of a template's plans (built over records), with a
    template that binds their arguments as plain values, for the scalar
    ``ThetaProduct.finish``."""

    def __init__(self, template, plans):
        self.template = template
        self.found = []
        for key, plan in plans:
            i = template.plans[key]
            for off, node, sk in products(plan, template._skeletons[i]):
                self.found.append((i, off, node, sk))
        self.plain = Template(
            (n, Plan(node.ctx, node.args, list)) for n, (_, _, node, _) in enumerate(self.found)
        )

    def compare(self, sample) -> list:
        vals, plain = self.template.bind(*sample), self.plain.bind(*sample)
        batch, scalar = [], []
        for n, (i, off, node, sk) in enumerate(self.found):
            at = self.template._cuts[i] + off
            batch.append(outcome(sk.finish, vals[at : at + len(sk.args)]))
            scalar.append(outcome(node.finish, self.plain.finish(n, plain)))
        assert batch == scalar
        return scalar


def sweep_products(bp):
    """The theta products of the sweep template of the shape of ``bp``."""
    sweep, symbols = _sweep(bp).template, _symbols(bp)
    keys = _sweep_keys(bp.N)
    return BoundProducts(sweep, [(key, _ITEMS[key[0]](symbols, *key[1:])) for key in keys])


def sample(bp):
    return bp.ctx, bp.Lam, bp.omega, bp.z


@pytest.mark.parametrize("N", range(1, 9))
def test_every_product_of_every_sweep_equals_the_scalar_finish(N):
    # One sweep holds the items of the direct and the dual checks.
    rng = np.random.default_rng([8675309, N])
    for M in range(3):
        found = None
        for _ in range(3):
            bp = BiorthParams(N, draw_lambda(rng), M, draw_lambda(rng), draw_z(rng), draw_context(rng))
            found = found or sweep_products(bp)
            results = found.compare(sample(bp))
            # Some draws at N = 8 leave the double range; most values do not.
            assert sum(isinstance(r, str) for r in results) < len(results) // 10
        # Products over a number, a record and a joined plan are among them.
        scalars = {type(node.scalar) for _, _, node, _ in found.found}
        assert {complex, Plan, Joined} <= scalars


def test_a_zero_guard_hit_fails_as_the_scalar_path():
    # Under a zero guard of 1e3 every denominator fails it; a product with
    # none still gets its value.
    for N in (2, 4):
        bp = BiorthParams(
            N, 0.8 + 0.4j, 1, 0.3 - 0.2j, 1.2 + 0.5j, ThetaContext(0.12, 0.67, zero_guard=1e3)
        )
        results = sweep_products(bp).compare(sample(bp))
        assert DEN_GUARD in results
        assert any(not isinstance(r, str) for r in results)


def test_products_beyond_the_double_range_or_exactly_zero_as_the_scalar_path():
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
    found = BoundProducts(Template(plans), plans)
    results = found.compare((ThetaContext(0.12, 0.67), 0.8 + 0.4j, 0.3 - 0.2j, 1.2 + 0.5j))
    # A plan scalar's product (the binomial) comes before the product it is in.
    names = ["record", "binomial", "scaled", "fine", "zero", "binomial", "scaled zero", "0j", "-0j"]
    got = dict(zip(names, results))
    assert got["0j"] != got["-0j"]
    assert got["record"] == got["scaled"] == PRODUCT_RANGE
    assert got["zero"] == got["scaled zero"] == ("0x0.0p+0", "0x0.0p+0")
    assert not isinstance(got["fine"], str) and not isinstance(got["binomial"], str)


def test_a_product_that_underflows_to_zero_raises_as_out_of_range():
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
    found = BoundProducts(Template(plans), plans)
    got = dict(zip(["underflow", "fine", "0j scalar"], found.compare((ThetaContext(0.12, 0.67), 0, 0, 1))))
    assert got["underflow"] == PRODUCT_RANGE
    assert not isinstance(got["fine"], str) and got["0j scalar"] == ("0x0.0p+0", "0x0.0p+0")
