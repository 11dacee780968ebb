"""Randomized parameter draws and pole-rejection plumbing for check suites.

All suites draw from one policy so that "generic parameters" means the same
thing everywhere: bases away from the unit circle, dynamical variables in a
fixed complex box, spectral points in an annulus around the unit circle.
A draw that lands on (or too near) a theta zero in some denominator signals
a pole; the caller redraws with fresh randomness rather than failing.

Each draw is a fixed list of uniform slots, ``SLOTS``: two for a context
(p, then q), two for a box point (real, then imaginary part), two for an
annulus point (radius, then angle).  ``draw_base``, ``draw_lambda`` and
``draw_z`` draw one at a time, with one ``rng.uniform`` call per slot;
``draw_batch`` draws the attempts of a whole batch with one ``rng.random``
call, scaling and combining the slots on arrays.  numpy's ``uniform`` is
``low + (high - low) * U`` of the next double U, and ``random`` gives the
same doubles, so the two give the same numbers, bit for bit, in the same
order of the stream.
"""

from __future__ import annotations

from typing import Callable, TypeVar

import numpy as np

from .theta import PoleError, ThetaContext

__all__ = [
    "P_RANGE",
    "Q_RANGE",
    "draw_base",
    "draw_batch",
    "draw_context",
    "draw_lambda",
    "draw_z",
    "run_with_redraws",
]

P_RANGE = (0.05, 0.3)
Q_RANGE = (0.55, 0.9)
BOX_RE = (-2.0, 2.0)
BOX_IM = (-1.0, 1.0)
RADIUS_RANGE = (0.5, 2.0)
# The uniform slots of each kind of draw, as (low, high), in the order the
# one-at-a-time draws consume them.
SLOTS = {"context": (P_RANGE, Q_RANGE), "box": (BOX_RE, BOX_IM), "annulus": (RADIUS_RANGE, (0.0, 2.0 * np.pi))}

T = TypeVar("T")


def draw_base(
    rng: np.random.Generator,
    p: float | None = None,
    q: float | None = None,
) -> tuple[float, float]:
    """Draw the elliptic nome and deformation base, honoring fixed overrides.

    The RNG is always consumed for both values so that pinning one of them
    does not shift the stream feeding subsequent draws.
    """
    pv = rng.uniform(*P_RANGE)
    qv = rng.uniform(*Q_RANGE)
    return (p if p is not None else pv), (q if q is not None else qv)


def draw_context(
    rng: np.random.Generator,
    p: float | None = None,
    q: float | None = None,
    zero_guard: float = 1e-12,
) -> ThetaContext:
    pv, qv = draw_base(rng, p, q)
    return ThetaContext(pv, qv, zero_guard=zero_guard)


def draw_lambda(rng: np.random.Generator) -> complex:
    """A dynamical variable (or shift weight) from the standard complex box."""
    return complex(rng.uniform(*BOX_RE), rng.uniform(*BOX_IM))


def draw_z(rng: np.random.Generator) -> complex:
    """A spectral point from the annulus 0.5 <= |z| <= 2."""
    rho = rng.uniform(*RADIUS_RANGE)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    return complex(rho * np.cos(phi), rho * np.sin(phi))


def draw_batch(rng: np.random.Generator, k: int, kinds: tuple, p=None, q=None, zero_guard: float = 1e-12) -> list[list]:
    """The draws of k attempts, each drawing ``kinds`` in order, from one
    ``rng.random`` call: for each kind, its k values, as the one-at-a-time
    draw gives them, bit for bit, and leaving the stream where k attempts
    of those draws leave it.  A "context" is ``draw_context``'s, honoring
    fixed overrides of p and q as it does (its scalar factor pairs made at
    their first read); a "box" is ``draw_lambda``'s point and an "annulus"
    ``draw_z``'s, rho cos(phi) + i rho sin(phi)."""
    low, high = np.array([bounds for kind in kinds for bounds in SLOTS[kind]]).T
    u = (low + (high - low) * rng.random((k, len(low)))).T
    out = []
    for kind, a, b in zip(kinds, u[::2], u[1::2]):
        if kind == "context":
            pq = zip(a.tolist() if p is None else [p] * k, b.tolist() if q is None else [q] * k)
            out.append([ThetaContext(pv, qv, zero_guard=zero_guard, pairs=False) for pv, qv in pq])
            continue
        if kind == "annulus":
            a, b = a * np.cos(b), a * np.sin(b)
        # The parts side by side, read as complex numbers: no arithmetic.
        out.append(np.stack([a, b], axis=1).view(complex)[:, 0].tolist())
    return out


def run_with_redraws(
    fn: Callable[[], T], max_redraws: int = 50
) -> tuple[T | None, bool]:
    """Call a sampling closure until it returns without signaling a pole.

    The closure draws its own parameters from an enclosed RNG, so every retry
    sees fresh values.  A pole is a ``PoleError``, a ``ZeroDivisionError``,
    or an ``OverflowError`` where Python's ``abs`` of a finite value leaves
    the double range (the event the series and product paths report as
    ``PoleError``).  After max_redraws pole signals the sample is recorded
    as rejected (None, True) instead of failing the suite.
    """
    for _ in range(max(1, max_redraws)):
        try:
            return fn(), False
        except (PoleError, ZeroDivisionError, OverflowError):
            continue
    return None, True
