"""The point-evaluation kernels, bit for bit, against frozen copies of their
earlier code.

``theta`` and ``theta_vec`` compute over the context's complex factor table
(``ThetaContext._pairs`` and ``_rows``), and ``rmatrix._embed`` reads
constant index tables.  The copies below are the kernels as they were before:
float factor tables, ``np.prod`` over fresh temporaries, and a loop over the
cells of the embedded matrix.  Python and numpy promote a float factor to
x + 0j before they multiply, so the values must not move by one bit.  The
layout of ``theta_vec`` is part of that: it lays the factors out as a
factors x arguments array and takes the product with
``np.multiply.reduceat`` over the first axis, which numpy does not fuse,
as it does not the reduction over the last axis of the frozen copy; numpy
fuses its contiguous complex multiply, so swapping the two factors, or
reducing with ``np.multiply.reduce`` over the first axis, changes last
bits.  The batch kernel ``theta_columns`` gives each of its columns the
bits ``theta_vec`` gives that column alone.
"""

import cmath
import math
import warnings

import numpy as np
import pytest

from ellu2.rmatrix import _embed, r_matrix
from ellu2.theta import THETA_RANGE, PoleError, ThetaContext, theta, theta_columns, theta_factors
from ellu2.theta import theta_vec

NOMES = (0.05, 0.12, 0.175, 0.3, 0.9)
BATCHES = (1, 2, 7, 64, 1024)


# -- the frozen copies ----------------------------------------------------------


def float_rows(p):
    """The float factor table the kernels used to keep: p^j and p^(j+1)."""
    ppow = p ** np.arange(theta_factors(p))
    return ppow, p * ppow


def reference_theta(z, ctx):
    """The scalar kernel as it was, without its memo."""
    if z == 0:
        raise PoleError(THETA_RANGE)
    m = round(math.log(abs(z)) / math.log(ctx.p))
    w = z
    pref = 1.0 + 0.0j
    if m != 0:
        try:
            w = z * ctx.p ** (-m)
            pref = (-1 if m % 2 else 1) * w ** (-m) * ctx.p ** (-m * (m - 1) // 2)
        except OverflowError:
            raise PoleError(THETA_RANGE) from None
    ppow, ppow1 = float_rows(ctx.p)
    acc = 1.0 + 0.0j
    for pj, pj1 in zip(ppow.tolist(), ppow1.tolist()):
        acc *= (1.0 - w * pj) * (1.0 - pj1 / w)
    acc *= pref
    if not cmath.isfinite(acc):
        raise PoleError(THETA_RANGE)
    return acc


def reference_theta_vec(zs, ctx, layout=None):
    """The vector kernel as it was; ``layout`` builds and reduces the factor
    array instead, to show that the test sees a change of layout."""
    arr = np.asarray(zs, dtype=complex)
    if arr.size and np.any(arr == 0):
        raise PoleError(THETA_RANGE)
    with np.errstate(all="ignore"):
        m = np.rint(np.log(np.abs(arr)) / math.log(ctx.p)).astype(np.int64)
        if np.any(m != 0):
            arr = arr * ctx.p ** (-m.astype(float))
            pref = (
                np.where(m % 2 == 0, 1.0, -1.0)
                * arr ** (-m.astype(float))
                * ctx.p ** (-(m * (m - 1) // 2).astype(float))
            )
        else:
            pref = None
        ppow, ppow1 = float_rows(ctx.p)
        zc = arr[..., None]
        if layout is None:
            out = np.prod((1.0 - zc * ppow) * (1.0 - ppow1 / zc), axis=-1)
        else:
            out = layout(zc, ppow, ppow1)
        return out if pref is None else out * pref


def reference_embed(rm_by_weight, legs, spectator, shifted):
    """The embedding as it was: a loop over the 32 cells a two-leg matrix reaches."""
    out = np.zeros((8, 8), dtype=complex)
    i, j = legs
    for col in range(8):
        bits_in = ((col >> 2) & 1, (col >> 1) & 1, col & 1)
        w_spec = 1 - 2 * bits_in[spectator]
        rm = rm_by_weight[w_spec if shifted else None]
        sub_col = 2 * bits_in[i] + bits_in[j]
        for sub_row in range(4):
            val = rm[sub_row, sub_col]
            if val == 0:
                continue
            bits_out = list(bits_in)
            bits_out[i] = (sub_row >> 1) & 1
            bits_out[j] = sub_row & 1
            row = (bits_out[0] << 2) | (bits_out[1] << 1) | bits_out[2]
            out[row, col] += val
    return out


# -- the corpus -------------------------------------------------------------------


def bits(value):
    """Every float of a number or an array, as ``float.hex``."""
    flat = np.asarray(value, dtype=complex).reshape(-1).view(np.float64)
    return [float.hex(x) for x in flat.tolist()]


def outcome(fn, *args):
    try:
        return bits(fn(*args))
    except PoleError as exc:
        return str(exc)


def corpus(p, rng):
    """Arguments of every kind the kernels meet, by name."""
    n = 64
    near = rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    circle = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    far = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)) * 10.0 ** rng.uniform(-8.0, 8.0, n)
    real = 10.0 ** rng.uniform(-8.0, 8.0, n)
    return {
        "near": near.tolist(),
        "unit circle": circle.tolist(),
        "far": far.tolist(),
        "real": real.tolist(),
        "negative real": (-real).tolist(),
        "real as complex": (real + 0j).tolist(),
        "exact": [1.0, -1.0, complex(p), complex(1 / p), p**3, -(p**-2)],
        "zero": [0j, 0.0],
        "overflow": [1e-40, 1e40 + 1e40j, 1e-300j, 1e300],
    }


@pytest.mark.parametrize("p", NOMES)
def test_scalar_theta_equals_the_frozen_kernel(p):
    rng = np.random.default_rng([20240, int(p * 1000)])
    for kind, zs in corpus(p, rng).items():
        # A fresh context per kind: a float and a complex argument of equal
        # value share one memo entry.
        ctx = ThetaContext(p, 0.5)
        for z in zs:
            assert outcome(theta, z, ctx) == outcome(reference_theta, z, ctx), (kind, z)
    assert theta(1 + 0j, ThetaContext(p, 0.5)) == 0j
    with pytest.raises(PoleError, match=THETA_RANGE):
        theta(0j, ThetaContext(p, 0.5))
    with pytest.raises(PoleError, match=THETA_RANGE):
        theta(1e-40 if p < 0.5 else 1e-300, ThetaContext(p, 0.5))


@pytest.mark.parametrize("p", NOMES)
def test_theta_vec_equals_the_frozen_kernel(p):
    rng = np.random.default_rng([20241, int(p * 1000)])
    ctx = ThetaContext(p, 0.5)
    kinds = corpus(p, rng)
    kinds.pop("zero")
    pool = [z for zs in kinds.values() for z in zs]
    for size in BATCHES:
        for kind, zs in [*kinds.items(), ("mixed", pool)]:
            batch = rng.choice(np.asarray(zs, dtype=complex), size).tolist()
            for given in (batch, np.asarray(batch)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = theta_vec(given, ctx)
                assert bits(got) == bits(reference_theta_vec(given, ctx)), (kind, size)
    assert theta_vec([1 + 0j], ctx)[0] == 0j
    for zs in ([0j], [0.5 + 0.1j, 0.0], np.array([2.0, 0.0])):
        with pytest.raises(PoleError, match=THETA_RANGE):
            theta_vec(zs, ctx)


def test_the_reference_sees_a_change_of_layout():
    # Swapping the factor operands, or reducing over the first axis, moves
    # last bits somewhere in the corpus; a test that could not tell would
    # hold nothing.
    def swapped(zc, ppow, ppow1):
        return np.prod((1.0 - ppow1 / zc) * (1.0 - zc * ppow), axis=-1)

    def first_axis(zc, ppow, ppow1):
        z, ppow, ppow1 = zc[..., 0], ppow[:, None], ppow1[:, None]
        return np.prod((1.0 - z * ppow) * (1.0 - ppow1 / z), axis=0)

    for layout in (swapped, first_axis):
        moved = 0
        for p in NOMES:
            rng = np.random.default_rng([20242, int(p * 1000)])
            batch = corpus(p, rng)["near"] * 4
            ctx = ThetaContext(p, 0.5)
            moved += bits(theta_vec(batch, ctx)) != bits(reference_theta_vec(batch, ctx, layout))
        assert moved, layout.__name__


def test_theta_columns_equal_theta_vec_column_by_column():
    # One batch over every nome: at each, a column of near arguments only,
    # one with far arguments (|z| = 1e-8 to 1e8) and one with extreme ones
    # (1e-300 to 1e300), whose reductions leave the double range at some
    # nomes; and a column with an exact 0.  Each column holds the bits
    # ``theta_vec`` gives it alone, in this batch and in a batch of one,
    # and only the column with the 0 fails.
    rng = np.random.default_rng(20244)
    n = 24

    def near(p):
        # |z| = p^t, |t| <= 0.45: inside the annulus, so no reduction.
        return p ** rng.uniform(-0.45, 0.45, n) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))

    def moved(p, exponent):
        z = near(p)
        at = np.arange(n) % 3 == 1
        z[at] = z[at] / np.abs(z[at]) * 10.0 ** rng.uniform(-exponent, exponent, int(at.sum()))
        return z

    columns, ctxs = [], []
    for p in NOMES:
        columns += [near(p), moved(p, 8.0), moved(p, 300.0)]
        ctxs += [ThetaContext(p, 0.5)] * 3
    zero = near(0.12)
    zero[5] = 0.0
    columns.insert(4, zero)
    ctxs.insert(4, ThetaContext(0.12, 0.5))
    zs = np.array(columns).T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, failed = theta_columns(zs, ctxs)
        assert failed == [4] and (values[:, 4] == 1.0).all()
        assert theta_columns(zs[:, 4:5], ctxs[4:5])[1] == [0]
        out_of_range = []
        for k, ctx in enumerate(ctxs):
            if k != 4:
                alone = theta_vec(zs[:, k], ctx)
                assert bits(values[:, k]) == bits(alone), k
                one, none = theta_columns(zs[:, k : k + 1], [ctx])
                assert bits(one[:, 0]) == bits(alone) and none == [], k
                out_of_range.append(not np.isfinite(alone).all())
    # Some columns leave the range (the extreme ones, and the far one at
    # p = 0.9), with inf or nan in those columns only; no near one does.
    assert any(out_of_range[2::3]) and not any(out_of_range[0::3])


def two_leg_matrix(rng, lam, z, ctx):
    """A two-leg matrix: the R-matrix, or random entries with signed zeros,
    a NaN and exact zeros where the R-matrix has none."""
    if rng.uniform() < 0.5:
        return r_matrix(lam, z, ctx)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m[rng.uniform(size=(4, 4)) < 0.3] = 0
    m[0, 1], m[1, 0], m[2, 3] = complex(-0.0, 3.0), complex(2.0, -0.0), complex(-0.0, -0.0)
    m[3, 2] = complex(math.nan, 1.0)
    return m


@pytest.mark.parametrize("legs,spectator", [((0, 1), 2), ((0, 2), 1), ((1, 2), 0)])
@pytest.mark.parametrize("shifted", [True, False])
def test_embed_equals_the_frozen_loop(legs, spectator, shifted):
    rng = np.random.default_rng([20243, *legs, spectator, shifted])
    ctx = ThetaContext(0.175, 0.4)
    for _ in range(40):
        lam = complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
        z = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        weights = (1, -1) if shifted else (None,)
        rms = {w: two_leg_matrix(rng, lam - (w or 0), z, ctx) for w in weights}
        got = _embed(rms, legs, spectator, shifted)
        assert got.shape == (8, 8) and got.dtype == complex
        assert bits(got) == bits(reference_embed(rms, legs, spectator, shifted))
