"""Elliptic hypergeometric series, the dynamical R-matrix behind them, and
layered numerical verification of the identities connecting the two.

The stack is bottom-up: theta products with exact-zero bookkeeping, a
terminating very-well-poised series evaluator, the two-dimensional dynamical
R-matrix, a word algebra of generators with star/antipode/coproduct/counit,
dynamical representations acting by weighted shifts, corepresentation matrix
elements with closed series forms, and the biorthogonality relations those
matrix elements satisfy.  Everything is cross-checked against independent
oracles at randomized generic parameters via the suites registry and CLI.

Names are imported from the module that declares them (each module's
``__all__``): ``from ellu2.suites import run_report``.  The package itself
gives ``ThetaContext`` and ``theta``, and importing it loads every module.
"""

# Load every module (``suites`` imports the rest) at ``import ellu2``: a
# tool that rebinds ``run_with_redraws`` in the modules already loaded,
# such as the benchmark's draw counter, then reaches the suites' name too.
from . import suites  # noqa: F401
from .theta import ThetaContext, theta

__version__ = "0.1.0"

__all__ = ["ThetaContext", "theta", "__version__"]
