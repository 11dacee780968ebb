"""Randomized parameter draws and pole-rejection plumbing for check suites.

All suites draw from one policy so that "generic parameters" means the same
thing everywhere: bases away from the unit circle, dynamical variables in a
fixed complex box, spectral points in an annulus around the unit circle.
A draw that lands on (or too near) a theta zero in some denominator signals
a pole; the caller redraws with fresh randomness rather than failing.

Each draw is a fixed list of uniform slots, ``SLOTS``: two for a context
(p, then q), two for a box point (real, then imaginary part), two for an
annulus point (radius, then angle).  ``draw_batch`` is the one draw: it
draws the attempts of a whole batch with one ``rng.random`` call, scaling
and combining the slots on arrays.  numpy's ``uniform`` is
``low + (high - low) * U`` of the next double U, and ``random`` gives the
same doubles, so each attempt holds the numbers, bit for bit, that drawing
it alone with one ``rng.uniform`` per slot gives, and leaves the stream
where that leaves it.  A batch of one is an attempt drawn alone: a sampler
whose attempts draw an integer between their slots (``rng.integers``,
``rng.permutation``) draws them one attempt at a time.
"""

from __future__ import annotations

from typing import Callable, TypeVar

import numpy as np

from .theta import PoleError, ThetaContext

__all__ = [
    "P_RANGE",
    "Q_RANGE",
    "draw_batch",
    "run_with_redraws",
]

P_RANGE = (0.05, 0.3)
Q_RANGE = (0.55, 0.9)
BOX_RE = (-2.0, 2.0)
BOX_IM = (-1.0, 1.0)
RADIUS_RANGE = (0.5, 2.0)
# The uniform slots of each kind of draw, as (low, high), in the order an
# attempt consumes them.
SLOTS = {"context": (P_RANGE, Q_RANGE), "box": (BOX_RE, BOX_IM), "annulus": (RADIUS_RANGE, (0.0, 2.0 * np.pi))}

T = TypeVar("T")


def draw_batch(rng: np.random.Generator, k: int, kinds: tuple, p=None, q=None, zero_guard: float = 1e-12) -> list[list]:
    """The draws of k attempts, each drawing ``kinds`` in order, from one
    ``rng.random`` call: for each kind, its k values.  A "context" is a
    ``ThetaContext`` of the drawn p and q at ``zero_guard`` (its scalar
    factor pairs made at their first read); a pinned ``p`` or ``q``
    replaces the drawn one, whose slot is still consumed, so that pinning
    does not shift the stream.  A "box" is a point of the standard complex
    box, re + i im, and an "annulus" a spectral point 0.5 <= |z| <= 2,
    rho cos(phi) + i rho sin(phi)."""
    bounds = np.array([SLOTS[kind] for kind in kinds])
    low, high = bounds[..., 0], bounds[..., 1]
    # Attempt by attempt, kind by kind, each kind's two slots side by side.
    parts = low + (high - low) * rng.random((k, len(kinds), 2))
    annulus = [i for i, kind in enumerate(kinds) if kind == "annulus"]
    if annulus:
        rho, phi = parts[:, annulus, 0], parts[:, annulus, 1]
        parts[:, annulus, 0], parts[:, annulus, 1] = rho * np.cos(phi), rho * np.sin(phi)
    # The parts read as complex numbers: no arithmetic.
    out = parts.view(complex)[..., 0].T.tolist()
    for i, kind in enumerate(kinds):
        if kind == "context":
            pq = ((p if p is not None else z.real, q if q is not None else z.imag) for z in out[i])
            out[i] = [ThetaContext(pv, qv, zero_guard=zero_guard, pairs=False) for pv, qv in pq]
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
