"""Elliptic hypergeometric series, the dynamical R-matrix behind them, and
layered numerical verification of the identities connecting the two.

The stack is bottom-up: theta products with exact-zero bookkeeping, a
terminating very-well-poised series evaluator, the two-dimensional dynamical
R-matrix, a word algebra of generators with star/antipode/coproduct/counit,
dynamical representations acting by weighted shifts, corepresentation matrix
elements with closed series forms, and the biorthogonality relations those
matrix elements satisfy.  Everything is cross-checked against independent
oracles at randomized generic parameters via the suites registry and CLI.
"""

from .biorth import (
    BiorthCache,
    BiorthParams,
    BiorthReport,
    check_biorth,
    check_dual_biorth,
    norm_h,
    weight_w1,
    weight_w2,
)
from .corep import (
    check_coproduct,
    check_counit_exact,
    check_unitarity,
    gamma_factor,
    t_word,
    tau_closed,
    tau_product,
    tau_tilde_closed,
)
from .rep import (
    RepContext,
    apply_word,
    check_relations,
    coef_a,
    coef_b,
    coef_c,
    coef_d,
    det_scalar,
)
from .rmatrix import middle_det_closed, qdybe_residual, r_entries, r_matrix
from .series import SeriesSpec, SeriesValue, check_bailey, eval_omega, eval_omega_termwise
from .suites import RunConfig, SUITE_NAMES, canonical_json, run_report, run_suite
from .theta import (
    PoleError,
    ThetaContext,
    ThetaProduct,
    TrackedArg,
    elliptic_binomial,
    garg,
    pochhammer,
    qarg,
    theta,
)
from .words import (
    AlgebraElement,
    Letter,
    antipode,
    bigrade,
    coproduct,
    counit,
    det_element,
    star,
    unit,
    word,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "BiorthCache",
    "BiorthParams",
    "BiorthReport",
    "Letter",
    "PoleError",
    "RepContext",
    "RunConfig",
    "SUITE_NAMES",
    "SeriesSpec",
    "SeriesValue",
    "ThetaContext",
    "ThetaProduct",
    "TrackedArg",
    "antipode",
    "apply_word",
    "bigrade",
    "canonical_json",
    "check_bailey",
    "check_biorth",
    "check_coproduct",
    "check_counit_exact",
    "check_dual_biorth",
    "check_relations",
    "check_unitarity",
    "coef_a",
    "coef_b",
    "coef_c",
    "coef_d",
    "coproduct",
    "counit",
    "det_element",
    "det_scalar",
    "elliptic_binomial",
    "eval_omega",
    "eval_omega_termwise",
    "gamma_factor",
    "garg",
    "middle_det_closed",
    "norm_h",
    "pochhammer",
    "qarg",
    "qdybe_residual",
    "r_entries",
    "r_matrix",
    "run_report",
    "run_suite",
    "star",
    "t_word",
    "tau_closed",
    "tau_product",
    "tau_tilde_closed",
    "theta",
    "unit",
    "weight_w1",
    "weight_w2",
    "word",
    "__version__",
]
