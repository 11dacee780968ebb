"""Independent oracles the benchmark checks the program against.

Plain Python only: no numpy, no quasi-periodic reduction into the annulus,
no memo.  The theta value is the raw long product, so it shares no code path
with ``ellu2.theta``; the Frenkel-Turaev closed form is built from it.
"""

from __future__ import annotations

import math

TAIL = 1e-20


def theta(z: complex, p: float) -> tuple[complex, float]:
    """Long product prod_j (1 - z p^j)(1 - p^(j+1)/z) and its condition.

    Factors are taken until both |z| p^j and p^(j+1)/|z| drop below 1e-20.
    The condition is the largest |x| / |1 - x| over the factors 1 - x: near a
    zero of theta, forming 1 - x loses that many ulps in any evaluation.
    """
    az = abs(z)
    acc = 1.0 + 0.0j
    cond = 1.0
    j = 0
    while True:
        pj = p**j
        a = z * pj
        b = pj * p / z
        fa = 1.0 - a
        fb = 1.0 - b
        acc *= fa * fb
        cond = max(cond, abs(a) / abs(fa), abs(b) / abs(fb))
        if az * pj < TAIL and pj * p / az < TAIL:
            return acc, cond
        j += 1


def rel_error(got: complex, z: complex, p: float) -> float:
    """Error of a theta value relative to the oracle, divided by its condition."""
    ref, cond = theta(z, p)
    return abs(got - ref) / (abs(ref) * cond)


def frenkel_turaev_rhs(
    a: complex, b: complex, c: complex, d: complex, n: int, p: float, q2: complex
) -> complex:
    """(aQ, aQ/bc, aQ/bd, aQ/cd)_n / (aQ/b, aQ/c, aQ/d, aQ/bcd)_n with Q = q^2.

    The closed form of the terminating balanced series with upper parameters
    (b, c, d, e, Q^-n), bcde = a^2 Q^(n+1) (Frenkel-Turaev 1997).  Numerator
    and denominator factors are paired so the running product keeps the
    scale of the quotient.
    """
    aq = a * q2
    num = (aq, aq / (b * c), aq / (b * d), aq / (c * d))
    den = (aq / b, aq / c, aq / d, aq / (b * c * d))
    out = 1.0 + 0.0j
    shift = 1.0 + 0.0j
    for _ in range(n):
        for x, y in zip(num, den):
            out *= theta(x * shift, p)[0] / theta(y * shift, p)[0]
        shift *= q2
    return out


def log_abs_theta(z: complex, p: float) -> float:
    """log|theta(z)| from the same long product, summed in the log domain."""
    az = abs(z)
    out = 0.0
    j = 0
    while True:
        pj = p**j
        out += math.log(abs(1.0 - z * pj)) + math.log(abs(1.0 - pj * p / z))
        if az * pj < TAIL and pj * p / az < TAIL:
            return out
        j += 1


def frenkel_turaev_log10_max_term(
    a: complex, b: complex, c: complex, d: complex, n: int, p: float, q2: complex
) -> float:
    """log10 of the largest |term| of the series, recounted in the log domain.

    Term k is theta(a Q^2k)/theta(a) Q^k times the Pochhammer quotient of the
    upper parameters (a, b, c, d, e, Q^-n) over (Q, aQ/b, aQ/c, aQ/d, aQ/e,
    aQ^(n+1)); a series whose largest term is finite in this recount has every
    term inside double precision range.
    """
    e = a * a * q2 ** (n + 1) / (b * c * d)
    upper = (a, b, c, d, e, q2 ** (-n))
    lower = tuple(a * q2 / x for x in upper[1:]) + (q2,)
    base = log_abs_theta(a, p)
    poch = 0.0
    best = -math.inf
    shift = 1.0 + 0.0j
    for k in range(n + 1):
        if k:
            poch += sum(log_abs_theta(x * shift, p) for x in upper)
            poch -= sum(log_abs_theta(y * shift, p) for y in lower)
            shift *= q2
        head = log_abs_theta(a * q2 ** (2 * k), p) - base + k * math.log(abs(q2))
        best = max(best, head + poch)
    return best / math.log(10.0)


def frenkel_turaev_condition(
    a: complex, b: complex, c: complex, d: complex, n: int, p: float, q2: complex
) -> float:
    """The largest theta condition over every factor of the series' terms.

    A factor near a zero of theta turns the rounding of its argument into
    that much relative error in every term it enters, in any evaluation.
    It happens in the terminating row when p lies close to a power of Q,
    since theta(Q^-m) vanishes at Q^m = p.
    """
    e = a * a * q2 ** (n + 1) / (b * c * d)
    upper = (a, b, c, d, e, q2 ** (-n))
    lower = tuple(a * q2 / x for x in upper[1:]) + (q2,)
    args = [a * q2 ** (2 * k) for k in range(n + 1)]
    args += [x * q2**j for x in upper + lower for j in range(n)]
    return max(theta(z, p)[1] for z in args)
