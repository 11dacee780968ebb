"""Generator word algebra: grading, star, antipode, coproduct, counit."""

import pytest

from ellu2.theta import Rec
from ellu2.words import (
    L_alpha,
    L_beta,
    L_delta,
    L_detinv,
    L_fl,
    L_gamma,
    antipode,
    bigrade,
    cf_from,
    coproduct,
    counit,
    det_element,
    star,
    unit,
    word,
    zero,
)

# -- element comparison: structural equality and a canonical text form ------


def _fmt_c(z) -> str:
    if type(z) is Rec:
        return repr(z)
    z = complex(z)
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}j"


def letter_key(l) -> str:
    """A letter as text: its kind and argument, or its function's name."""
    if l.kind in ("fl", "fr"):
        return f"{l.kind}[{l.fn.name}]"
    return f"{l.kind}({_fmt_c(l.arg)})"


def serialize(el) -> str:
    """Deterministic text form: scalar-tagged words sorted by letter keys."""
    rows = []
    for s, w in el.terms:
        rows.append(f"({_fmt_c(s)}) " + ".".join(map(letter_key, w)))
    return "\n".join(sorted(rows))


def elements_close(x, y, tol: float = 1e-12) -> bool:
    """Structural equality up to tolerance in scalars and letter arguments.

    Terms must match pairwise after canonical sorting; function letters are
    compared by exactness flag and name.
    """

    def rows(el):
        return sorted(el.terms, key=lambda t: ".".join(map(letter_key, t[1])))

    rx, ry = rows(x), rows(y)
    if len(rx) != len(ry):
        return False
    for (s1, w1), (s2, w2) in zip(rx, ry):
        if abs(s1 - s2) > tol or len(w1) != len(w2):
            return False
        for l1, l2 in zip(w1, w2):
            if l1.kind != l2.kind:
                return False
            if l1.kind in ("fl", "fr"):
                if l1.fn.is_one != l2.fn.is_one or l1.fn.name != l2.fn.name:
                    return False
            elif abs(l1.arg - l2.arg) > tol * max(1.0, abs(l1.arg)):
                return False
    return True


def test_algebra_arithmetic():
    x = word(2.0, (L_alpha(1.1),))
    y = word(3.0, (L_beta(0.9),))
    prod = x * y
    assert len(prod) == 1
    scalar, letters = prod.terms[0]
    assert scalar == 6.0
    assert [l.kind for l in letters] == ["alpha", "beta"]
    both = x + y
    assert len(both) == 2
    assert len(both - y) == 3
    assert len(zero()) == 0
    assert serialize(unit() * x) == serialize(x * unit())


def test_scalar_multiplication():
    x = word(2.0, (L_gamma(1.3),))
    assert (0.5 * x).terms[0][0] == 1.0


def test_bigrade(ctx):
    assert bigrade(word(1.0, (L_alpha(1.0),))) == (1, 1)
    assert bigrade(word(1.0, (L_beta(1.0),))) == (1, -1)
    assert bigrade(word(1.0, (L_gamma(1.0),))) == (-1, 1)
    assert bigrade(word(1.0, (L_delta(1.0),))) == (-1, -1)
    assert bigrade(unit()) == (0, 0)
    assert bigrade(word(1.0, (L_alpha(1.0), L_beta(2.0)))) == (2, 0)
    assert bigrade(det_element(1.2, ctx)) == (0, 0)
    with pytest.raises(ValueError):
        bigrade(word(1.0, (L_alpha(1.0),)) + word(1.0, (L_beta(1.0),)))


def test_star_is_an_involution(ctx):
    el = word(1.5 + 0.5j, (L_alpha(1.1 + 0.2j), L_beta(0.8 - 0.3j))) + word(
        -0.7j, (L_gamma(1.4), L_detinv(0.9 + 0.1j))
    )
    assert elements_close(star(star(el, ctx), ctx), el)


def test_star_swaps_generators_with_signs(ctx):
    z = 1.2 + 0.4j
    sa = star(word(1.0, (L_alpha(z),)), ctx)
    ((scalar, letters),) = sa.terms
    assert scalar == 1.0 and letters[0].kind == "delta"
    assert abs(complex(letters[0].arg) - 1.0 / z.conjugate()) <= 1e-15
    sb = star(word(1.0, (L_beta(z),)), ctx)
    assert sb.terms[0][0] == -1.0 and sb.terms[0][1][0].kind == "gamma"


def test_star_is_antimultiplicative(ctx):
    x = word(1.0 + 2.0j, (L_alpha(1.1), L_gamma(0.7)))
    y = word(0.5, (L_delta(1.3 - 0.2j),))
    assert elements_close(star(x * y, ctx), star(y, ctx) * star(x, ctx))


def test_antipode_is_antimultiplicative(ctx):
    x = word(2.0, (L_alpha(1.1),))
    y = word(1.0 - 1.0j, (L_beta(0.9),))
    assert elements_close(antipode(x * y, ctx), antipode(y, ctx) * antipode(x, ctx))


def test_antipode_single_letters(ctx):
    sa = antipode(word(1.0, (L_alpha(1.2),)), ctx)
    ((scalar, letters),) = sa.terms
    assert scalar == 1.0
    assert [l.kind for l in letters] == ["fr", "fl", "detinv", "delta"]
    assert abs(complex(letters[2].arg) - ctx.qpow(-2) * 1.2) <= 1e-15
    sg = antipode(word(1.0, (L_gamma(1.2),)), ctx)
    assert sg.terms[0][0] == -1.0
    sdet = antipode(word(1.0, (L_detinv(1.2),)), ctx)
    assert elements_close(sdet, det_element(1.2, ctx))


def test_det_element_structure(ctx):
    det = det_element(1.3 + 0.1j, ctx)
    assert len(det) == 2
    kinds = sorted(tuple(l.kind for l in w) for _, w in det.terms)
    assert kinds == [
        ("fr", "fl", "alpha", "delta"),
        ("fr", "fl", "gamma", "beta"),
    ]


def test_coproduct_matrix_expansion():
    terms = coproduct(word(1.0, (L_alpha(1.1),)))
    legs = sorted((w1[0].kind, w2[0].kind) for _, w1, w2 in terms)
    assert legs == [("alpha", "alpha"), ("beta", "gamma")]
    two = coproduct(word(1.0, (L_alpha(1.1), L_delta(1.1))))
    assert len(two) == 4
    f = L_fl(cf_from(lambda x: x, "id"))
    routed = coproduct(word(1.0, (f, L_detinv(0.9))))
    ((_, w1, w2),) = routed
    assert [l.kind for l in w1] == ["fl", "detinv"]
    assert [l.kind for l in w2] == ["detinv"]


def test_counit_difference_operators():
    out = counit(word(2.0, (L_alpha(1.1), L_delta(0.9))))
    ((scalar, fn, shift),) = out
    assert scalar == 2.0 and shift == 0
    assert fn(0.37) == 1.0
    assert counit(word(1.0, (L_beta(1.1),))) == []
    assert counit(word(1.0, (L_gamma(1.1),))) == []
    ((_, _, shift2),) = counit(word(1.0, (L_alpha(1.1), L_alpha(0.5))))
    assert shift2 == -2


def test_counit_tracks_function_shifts():
    probe = cf_from(lambda x: x, "probe")
    out = counit(word(1.0, (L_alpha(1.1), L_fl(probe))))
    ((_, fn, shift),) = out
    assert shift == -1
    # The function letter sits to the right of one lowering step, so it reads
    # the argument shifted by -1.
    assert fn(0.25) == 0.25 - 1.0


def test_elements_close_detects_differences(ctx):
    x = word(1.0, (L_alpha(1.1),))
    assert not elements_close(x, word(1.0 + 1e-6, (L_alpha(1.1),)))
    assert not elements_close(x, word(1.0, (L_beta(1.1),)))
    assert elements_close(x, word(1.0 + 1e-14, (L_alpha(1.1 + 1e-15),)))
