"""Registry-driven verification suites with deterministic JSON reporting.

Every suite draws generic parameters from the shared sampling policy, runs a
family of identity checks, and reports the worst relative residual seen.  The
RNG stream is seeded per suite from (seed, registry index), so a fixed seed
reproduces every sample and the report bytes exactly, whether a suite runs
alone or as part of the full battery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .biorth import BiorthCache, BiorthParams, check_biorth, check_dual_biorth
from .corep import (
    check_coproduct,
    check_counit_exact,
    check_inversion_words,
    check_tensor_relation,
    check_unitarity,
    linear_independence_ratio,
    t_word,
    tau_closed,
    tau_product,
    tau_tilde_closed,
)
from .rep import RepContext, apply_word, check_det_forms, check_relations, relation_inventory
from .rmatrix import det_residual, qdybe_residual
from .sampling import draw_context, draw_lambda, draw_z, run_with_redraws
from .series import (
    SeriesSpec,
    bailey_theta_condition,
    check_bailey,
    eval_omega,
    eval_omega_termwise,
)
from .theta import PoleError, ThetaContext, garg, qarg, theta, theta_condition, theta_multi
from .words import star

__all__ = [
    "RunConfig",
    "SUITE_NAMES",
    "assemble_report",
    "bailey_table",
    "biorth_table",
    "canonical_json",
    "corep_table",
    "qdybe_table",
    "relations_table",
    "run_report",
    "run_suite",
    "suite_names",
]

REPORT_VERSION = 1
TINY = 1e-300


@dataclass(frozen=True)
class RunConfig:
    """Resolved command-line options shared by all suites."""

    seed: int = 20240
    samples: int | None = None
    p: float | None = None
    q: float | None = None
    tol: float | None = None
    max_redraws: int = 50
    truncation_floor: float = 1e-17
    zero_guard: float = 1e-12

    def context(self, rng: np.random.Generator, zero_guard: float | None = None):
        guard = self.zero_guard if zero_guard is None else max(self.zero_guard, zero_guard)
        return draw_context(rng, self.p, self.q, self.truncation_floor, guard)


@dataclass
class SuiteResult:
    suite: str
    samples: int
    rejected: int
    max_rel_residual: float
    tol: float
    passed: bool
    notes: list[str] = field(default_factory=list)

    def record(self) -> dict:
        return {
            "suite": self.suite,
            "samples": self.samples,
            "rejected": self.rejected,
            "max_rel_residual": self.max_rel_residual,
            "tol": self.tol,
            "pass": self.passed,
            "notes": list(self.notes),
        }


def _rel(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), TINY)


def _theta_identity_residual(
    terms: list[tuple[complex, tuple[complex, ...]]], ctx: ThetaContext
) -> float:
    """Residual of sum_i c_i theta(args_i) = 0 for terms (c_i, args_i).

    Each term enters the scale at its own condition, |term| times the largest
    ``theta_condition`` of its arguments: a theta factor near a zero turns the
    rounding of its argument into that much relative error.
    """
    total = 0.0 + 0.0j
    scale = TINY
    for c, args in terms:
        t = c * theta_multi(args, ctx)
        total += t
        scale = max(scale, abs(t) * max(theta_condition(a, ctx.p) for a in args))
    return abs(total) / scale


def _drive(
    name: str,
    samples: int,
    max_redraws: int,
    classes: dict[str, float],
    sample_fn: Callable[[], dict[str, float]],
    notes: list[str],
) -> SuiteResult:
    """Run a per-sample closure with pole redraws; aggregate named residuals.

    The first entry of ``classes`` is the headline residual class; the others
    get their own tolerance and surface through notes.
    """
    worst = {key: 0.0 for key in classes}
    rejected = 0
    for _ in range(samples):
        value, was_rejected = run_with_redraws(sample_fn, max_redraws)
        if was_rejected:
            rejected += 1
            continue
        for key, v in value.items():
            worst[key] = max(worst[key], v)
    keys = list(classes)
    passed = all(worst[k] <= classes[k] for k in keys) and rejected < samples
    for k in keys[1:]:
        notes.append(f"{k}: max residual {worst[k]:.3e} (tol {classes[k]:g})")
    if rejected >= samples:
        notes.append("all samples rejected by pole guard")
    return SuiteResult(
        suite=name,
        samples=samples - rejected,
        rejected=rejected,
        max_rel_residual=worst[keys[0]],
        tol=classes[keys[0]],
        passed=passed,
        notes=notes,
    )


def _suite_theta(cfg: RunConfig, rng: np.random.Generator, samples: int, tol: float) -> SuiteResult:
    notes: list[str] = []

    def sample() -> dict[str, float]:
        ctx = cfg.context(rng)
        z, w, x, y = (draw_z(rng) for _ in range(4))
        worst = 0.0
        tz = theta(z, ctx)
        shifted = -tz / z
        worst = max(worst, _rel(theta(ctx.p * z, ctx), shifted))
        worst = max(worst, _rel(theta(1.0 / z, ctx), shifted))
        for s in range(1, 6):
            lhs = theta(ctx.qpow(-2 * s), ctx)
            rhs = -ctx.qpow(-2 * s) * theta(ctx.qpow(2 * s), ctx)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), TINY))
        three_term = [
            (1.0, (x * y, x / y, z * w, z / w)),
            (-1.0, (x * w, x / w, z * y, z / y)),
            (-z / y, (x * z, x / z, y * w, y / w)),
        ]
        worst = max(worst, _theta_identity_residual(three_term, ctx))
        return {"theta identities": worst}

    return _drive("theta", samples, cfg.max_redraws, {"theta identities": tol}, sample, notes)


def _suite_series(cfg: RunConfig, rng: np.random.Generator, samples: int, tol: float) -> SuiteResult:
    notes: list[str] = []

    def sample() -> dict[str, float]:
        ctx = cfg.context(rng)
        n = int(rng.integers(0, 9))
        a1 = draw_z(rng)
        uppers = [draw_z(rng) for _ in range(5)]
        sixth = a1**3 * ctx.qpow(4 + 2 * n) / np.prod(uppers)
        free = tuple(garg(u) for u in uppers) + (garg(complex(sixth)),)
        spec = SeriesSpec(garg(a1), free + (qarg(-n),), 6, ctx)
        ratio_eval = eval_omega(spec)
        if ratio_eval.warnings:
            notes.append(f"unexpected balance warning: {ratio_eval.warnings[0]}")
            return {"evaluator agreement": float("inf")}
        termwise = eval_omega_termwise(spec)
        scale = ratio_eval.max_term_magnitude + abs(ratio_eval.value) + abs(termwise)
        worst = abs(ratio_eval.value - termwise) / max(scale, TINY)
        perm = tuple(free[i] for i in rng.permutation(6))
        permuted = eval_omega(SeriesSpec(spec.a1, perm + (qarg(-n),), 6, ctx))
        pscale = ratio_eval.max_term_magnitude + abs(ratio_eval.value) + abs(permuted.value)
        worst = max(worst, abs(ratio_eval.value - permuted.value) / max(pscale, TINY))
        return {"evaluator agreement": worst}

    return _drive("series", samples, cfg.max_redraws, {"evaluator agreement": tol}, sample, notes)


BAILEY_MAX_CONDITION = 1e6


def _bailey_draw(cfg: RunConfig, rng: np.random.Generator, order: int | None):
    """(n, report, theta condition) of one drawn transformation check.

    The draw is gated on the report's condition, the cancellation between
    terms, times the theta condition, the largest ``theta_condition`` over the
    terms' factors (``bailey_theta_condition``).  A draw whose product passes
    ``BAILEY_MAX_CONDITION`` raises ``PoleError``, to be redrawn: the forced
    seventh parameter can land near a pole, and p near a power of q^2 puts a
    factor of the terminating row near a zero of theta; either hides the
    identity behind rounding double precision cannot resolve.
    """
    ctx = cfg.context(rng)
    n = int(rng.integers(0, 7)) if order is None else order
    args = tuple(draw_z(rng) for _ in range(6))
    report = check_bailey(*args, n, ctx)
    theta_cond = bailey_theta_condition(*args, n, ctx)
    condition = report.condition * theta_cond
    if condition > BAILEY_MAX_CONDITION:
        raise PoleError(
            f"bailey draw condition {condition:.2e} exceeds {BAILEY_MAX_CONDITION:g}"
        )
    return n, report, theta_cond


def _suite_bailey(cfg: RunConfig, rng: np.random.Generator, samples: int, tol: float) -> SuiteResult:
    notes: list[str] = []

    def sample() -> dict[str, float]:
        return {"transformation": _bailey_draw(cfg, rng, None)[1].residual}

    return _drive("bailey", samples, cfg.max_redraws, {"transformation": tol}, sample, notes)


def _suite_qdybe(cfg: RunConfig, rng: np.random.Generator, samples: int, tol: float) -> SuiteResult:
    notes: list[str] = []
    det_tol = 1e-12

    def sample() -> dict[str, float]:
        ctx = cfg.context(rng)
        lam = draw_lambda(rng)
        z1, z2, z3 = (draw_z(rng) for _ in range(3))
        res = qdybe_residual(lam, z1, z2, z3, ctx)
        det = det_residual(lam, z1, ctx)
        return {"hexagon": res, "det closed form": det}

    return _drive(
        "qdybe",
        samples,
        cfg.max_redraws,
        {"hexagon": tol, "det closed form": det_tol},
        sample,
        notes,
    )


def _suite_relations(cfg: RunConfig, rng: np.random.Generator, samples: int, tol: float) -> SuiteResult:
    notes: list[str] = []
    det_tol = 1e-10
    flagged: set[str] = set()

    def sample() -> dict[str, float]:
        # Relation sides multiply up to eight theta-quotient coefficients, so
        # a denominator theta of magnitude 1e-7 already costs 1e-9 relative
        # accuracy; insist on a wider pole margin than the evaluation default.
        ctx = cfg.context(rng, zero_guard=1e-4)
        rc = RepContext(draw_lambda(rng), draw_lambda(rng), ctx)
        z1, z2, z = (draw_z(rng) for _ in range(3))
        rows = check_relations(rc, z1, z2, z, mmax=6, kmax_reverse=4)
        worst = 0.0
        for rel_name, res in rows:
            worst = max(worst, res)
            if res > tol and rel_name not in flagged:
                flagged.add(rel_name)
                notes.append(f"relation over tolerance: {rel_name} ({res:.3e})")
        det_worst = max(res for _, res in check_det_forms(rc, z, mmax=4))
        return {"defining relations": worst, "det forms": det_worst}

    return _drive(
        "relations",
        samples,
        cfg.max_redraws,
        {"defining relations": tol, "det forms": det_tol},
        sample,
        notes,
    )


def _suite_corep(cfg: RunConfig, rng: np.random.Generator, samples: int, tol: float) -> SuiteResult:
    notes: list[str] = []
    tensor_tol = 1e-9
    indep_floor = 1e-8
    heavy_draws = 2
    state = {"completed": 0, "min_indep": float("inf")}
    counit_failures: list[str] = []

    def tower_residual(vals: list[complex]) -> float:
        scale = max(max(abs(v) for v in vals), TINY)
        spread = max(abs(a - b) for a in vals for b in vals)
        return spread / scale

    def sample() -> dict[str, float]:
        ctx = cfg.context(rng)
        omega = draw_lambda(rng)
        lam0 = draw_lambda(rng)
        z = draw_z(rng)
        rc = RepContext(omega, lam0, ctx)
        worst = 0.0
        for n_level in range(1, 5):
            for k in range(n_level + 1):
                for j in range(n_level + 1):
                    tw = t_word(n_level, k, j, z, ctx)
                    for m in range(4):
                        got = apply_word(tw, m, rc)
                        vals = [
                            got.get(m + k - j, 0.0 + 0.0j),
                            tau_product(n_level, k, j, m, lam0, z, omega, ctx),
                            tau_closed(n_level, k, j, m, lam0, z, omega, ctx),
                        ]
                        worst = max(worst, tower_residual(vals))
        star_worst = 0.0
        for n_level in range(1, 4):
            for k in range(n_level + 1):
                for j in range(n_level + 1):
                    sw = star(t_word(n_level, k, j, z, ctx), ctx)
                    for m in range(4):
                        got = apply_word(sw, m, rc)
                        vals = [
                            got.get(m + j - k, 0.0 + 0.0j),
                            tau_tilde_closed(n_level, k, j, m, lam0, z, omega, ctx),
                        ]
                        star_worst = max(star_worst, tower_residual(vals))
        for n_level in range(1, 6):
            counit_failures.extend(check_counit_exact(n_level, z, ctx))
        out = {"matrix element tower": worst, "conjugate tower": star_worst}
        if state["completed"] < heavy_draws:
            rc2 = RepContext(draw_lambda(rng), lam0, ctx)
            cop_worst = 0.0
            rll_worst = 0.0
            for n_level in range(1, 4):
                for m in range(3):
                    for n in range(3):
                        cop_worst = max(
                            cop_worst, check_coproduct(n_level, z, m, n, rc, rc2)
                        )
            for rel_name, lhs, rhs in relation_inventory(draw_z(rng), draw_z(rng), ctx):
                for m in range(2):
                    for n in range(2):
                        rll_worst = max(
                            rll_worst, check_tensor_relation(lhs, rhs, m, n, rc, rc2)
                        )
            # More points than columns, each at its own basis index.
            points = [(draw_z(rng), m) for m in range(6)]
            for n_level in range(1, 4):
                ratio = linear_independence_ratio(
                    n_level, lam0, omega, ctx, points[: n_level + 3]
                )
                state["min_indep"] = min(state["min_indep"], ratio)
            out["tensor coproduct"] = cop_worst
            out["tensor relations"] = rll_worst
        return out

    classes = {
        "matrix element tower": tol,
        "conjugate tower": tol,
        "tensor coproduct": tol,
        "tensor relations": tensor_tol,
    }
    worst = {key: 0.0 for key in classes}
    rejected = 0
    for _ in range(samples):
        value, was_rejected = run_with_redraws(sample, cfg.max_redraws)
        if was_rejected:
            rejected += 1
            continue
        state["completed"] += 1
        for key, v in value.items():
            worst[key] = max(worst[key], v)
    passed = all(worst[k] <= classes[k] for k in classes) and rejected < samples
    for k in list(classes)[1:]:
        notes.append(f"{k}: max residual {worst[k]:.3e} (tol {classes[k]:g})")
    if counit_failures:
        passed = False
        notes.append(f"counit structure failures: {sorted(set(counit_failures))[:4]}")
    else:
        notes.append("counit structure exact for N <= 5")
    if state["min_indep"] <= indep_floor:
        passed = False
        notes.append(
            f"matrix element independence ratio {state['min_indep']:.3e} <= {indep_floor:g}"
        )
    else:
        notes.append(
            f"matrix element independence ratio min {state['min_indep']:.3e}"
        )
    if rejected >= samples:
        notes.append("all samples rejected by pole guard")
    return SuiteResult(
        suite="corep",
        samples=samples - rejected,
        rejected=rejected,
        max_rel_residual=worst["matrix element tower"],
        tol=tol,
        passed=passed,
        notes=notes,
    )


def _suite_unitarity(cfg: RunConfig, rng: np.random.Generator, samples: int, tol: float) -> SuiteResult:
    notes: list[str] = []
    inversion_tol = 1e-7

    def sample() -> dict[str, float]:
        ctx = cfg.context(rng)
        rc = RepContext(draw_lambda(rng), draw_lambda(rng), ctx)
        z = draw_z(rng)
        worst = 0.0
        for n_level in range(1, 4):
            for k in range(n_level + 1):
                for j in range(n_level + 1):
                    for m in range(3):
                        worst = max(worst, check_unitarity(n_level, k, j, z, m, rc))
        inv_worst = 0.0
        for n_level in range(1, 3):
            for k in range(n_level + 1):
                for l in range(n_level + 1):
                    for m in range(3):
                        inv_worst = max(
                            inv_worst, check_inversion_words(n_level, k, l, z, m, rc)
                        )
        return {"unitarity": worst, "inversion sums": inv_worst}

    return _drive(
        "unitarity",
        samples,
        cfg.max_redraws,
        {"unitarity": tol, "inversion sums": inversion_tol},
        sample,
        notes,
    )


def _biorth_driver(
    name: str,
    checker,
    cfg: RunConfig,
    rng: np.random.Generator,
    samples: int,
    tol: float,
) -> SuiteResult:
    notes: list[str] = []
    termwise_tol = 1e-7
    oracle_tol = 1e-7
    classes = {
        "biorthogonality sum": tol,
        "termwise vs oracle": termwise_tol,
        "representation oracle": oracle_tol,
    }
    worst = {key: 0.0 for key in classes}
    attempted = 0
    rejected = 0
    for n_level in range(1, 6):
        for m_shift in (0, 1, 2):

            def sample() -> dict[str, float]:
                ctx = cfg.context(rng)
                bp = BiorthParams(
                    n_level, draw_lambda(rng), m_shift, draw_lambda(rng), draw_z(rng), ctx
                )
                cache = BiorthCache()
                out = {key: 0.0 for key in classes}
                for k in range(n_level + 1):
                    for l in range(n_level + 1):
                        report = checker(bp, k, l, cache)
                        out["biorthogonality sum"] = max(
                            out["biorthogonality sum"], report.sum_residual
                        )
                        out["termwise vs oracle"] = max(
                            out["termwise vs oracle"], report.termwise_residual
                        )
                        out["representation oracle"] = max(
                            out["representation oracle"], report.oracle_residual
                        )
                return out

            for _ in range(samples):
                attempted += 1
                value, was_rejected = run_with_redraws(sample, cfg.max_redraws)
                if was_rejected:
                    rejected += 1
                    continue
                for key, v in value.items():
                    worst[key] = max(worst[key], v)
    keys = list(classes)
    passed = all(worst[k] <= classes[k] for k in keys) and rejected < attempted
    for k in keys[1:]:
        notes.append(f"{k}: max residual {worst[k]:.3e} (tol {classes[k]:g})")
    if rejected >= attempted:
        notes.append("all samples rejected by pole guard")
    return SuiteResult(
        suite=name,
        samples=attempted - rejected,
        rejected=rejected,
        max_rel_residual=worst[keys[0]],
        tol=classes[keys[0]],
        passed=passed,
        notes=notes,
    )


def _suite_biorth(cfg: RunConfig, rng: np.random.Generator, samples: int, tol: float) -> SuiteResult:
    return _biorth_driver("biorth", check_biorth, cfg, rng, samples, tol)


def _suite_dual_biorth(cfg: RunConfig, rng: np.random.Generator, samples: int, tol: float) -> SuiteResult:
    return _biorth_driver("dual-biorth", check_dual_biorth, cfg, rng, samples, tol)


@dataclass(frozen=True)
class SuiteSpec:
    name: str
    samples: int
    tol: float
    fn: Callable[[RunConfig, np.random.Generator, int, float], SuiteResult]


_REGISTRY: tuple[SuiteSpec, ...] = (
    SuiteSpec("theta", 200, 1e-10, _suite_theta),
    SuiteSpec("series", 50, 1e-11, _suite_series),
    SuiteSpec("bailey", 50, 1e-7, _suite_bailey),
    SuiteSpec("qdybe", 100, 1e-10, _suite_qdybe),
    SuiteSpec("relations", 50, 1e-9, _suite_relations),
    SuiteSpec("corep", 8, 1e-8, _suite_corep),
    SuiteSpec("unitarity", 20, 1e-8, _suite_unitarity),
    SuiteSpec("biorth", 10, 1e-6, _suite_biorth),
    SuiteSpec("dual-biorth", 10, 1e-6, _suite_dual_biorth),
)

SUITE_NAMES = tuple(spec.name for spec in _REGISTRY)
_INDEX = {spec.name: i for i, spec in enumerate(_REGISTRY)}


def run_suite(name: str, cfg: RunConfig) -> dict:
    """Run one registered suite with its dedicated RNG stream."""
    if name not in _INDEX:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    spec = _REGISTRY[_INDEX[name]]
    rng = np.random.default_rng([cfg.seed, _INDEX[name]])
    samples = cfg.samples if cfg.samples is not None else spec.samples
    tol = cfg.tol if cfg.tol is not None else spec.tol
    return spec.fn(cfg, rng, samples, tol).record()


def suite_names(names: list[str] | None) -> list[str]:
    """The selected suites in order; none, or "all" among them, selects all."""
    return list(SUITE_NAMES) if not names or "all" in names else list(names)


def run_report(cfg: RunConfig, names: list[str] | None = None) -> dict:
    """Run the selected suites (default all) and assemble the full report."""
    return assemble_report(cfg, [run_suite(name, cfg) for name in suite_names(names)])


def assemble_report(cfg: RunConfig, records: list[dict]) -> dict:
    """The report around the suite records ``run_suite`` returned.

    Wall time is intentionally reported as null so reports stay byte-stable
    across machines; callers wanting timing print it to stderr.
    """
    return {
        "version": REPORT_VERSION,
        "seed": cfg.seed,
        "p": cfg.p,
        "q": cfg.q,
        "samples_override": cfg.samples,
        "tol_override": cfg.tol,
        "max_redraws": cfg.max_redraws,
        "suites": records,
        "pass": all(r["pass"] for r in records),
        "wall_time_ms": None,
    }


def canonical_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _table_pass(entries: list[dict], samples: int, rejected: int) -> bool:
    """A table passes when it has entries, all pass, and some draw completed."""
    return bool(entries) and all(e["pass"] for e in entries) and rejected < samples


def corep_table(cfg: RunConfig, n_level: int, samples: int) -> dict:
    """Per-(k, j) worst tower residuals for one corepresentation level."""
    rng = np.random.default_rng([cfg.seed, 100 + n_level])
    tol = cfg.tol if cfg.tol is not None else 1e-8
    worst: dict[tuple[int, int], float] = {
        (k, j): 0.0 for k in range(n_level + 1) for j in range(n_level + 1)
    }
    rejected = 0
    for _ in range(samples):

        def sample() -> dict[tuple[int, int], float]:
            ctx = cfg.context(rng)
            omega = draw_lambda(rng)
            lam0 = draw_lambda(rng)
            z = draw_z(rng)
            rc = RepContext(omega, lam0, ctx)
            out: dict[tuple[int, int], float] = {}
            for k in range(n_level + 1):
                for j in range(n_level + 1):
                    tw = t_word(n_level, k, j, z, ctx)
                    res = 0.0
                    for m in range(4):
                        got = apply_word(tw, m, rc)
                        vals = [
                            got.get(m + k - j, 0.0 + 0.0j),
                            tau_product(n_level, k, j, m, lam0, z, omega, ctx),
                            tau_closed(n_level, k, j, m, lam0, z, omega, ctx),
                        ]
                        scale = max(max(abs(v) for v in vals), TINY)
                        res = max(
                            res, max(abs(a - b) for a in vals for b in vals) / scale
                        )
                    out[(k, j)] = res
            return out

        value, was_rejected = run_with_redraws(sample, cfg.max_redraws)
        if was_rejected:
            rejected += 1
            continue
        for key, v in value.items():
            worst[key] = max(worst[key], v)
    entries = [
        {"k": k, "j": j, "max_rel_residual": worst[(k, j)], "pass": worst[(k, j)] <= tol}
        for k in range(n_level + 1)
        for j in range(n_level + 1)
    ]
    return {
        "version": REPORT_VERSION,
        "check": "corep",
        "N": n_level,
        "seed": cfg.seed,
        "samples": samples - rejected,
        "rejected": rejected,
        "tol": tol,
        "entries": entries,
        "pass": _table_pass(entries, samples, rejected),
        "wall_time_ms": None,
    }


def bailey_table(cfg: RunConfig, order: int | None, samples: int) -> dict:
    """Per-sample residuals of the series transformation.

    ``order`` pins the truncation index of both sides; None draws it from
    0..6 per sample.  Draws whose condition number exceeds the cancellation
    budget of double precision are rejected and redrawn, as in the suite
    (``_bailey_draw``).  Each entry reports the two factors of that condition
    apart: ``condition``, the report's cancellation between terms, and
    ``theta_condition``, the largest theta condition over the terms' factors.
    """
    rng = np.random.default_rng([cfg.seed, 300 + (99 if order is None else order)])
    tol = cfg.tol if cfg.tol is not None else 1e-7
    entries: list[dict] = []
    rejected = 0
    for _ in range(samples):

        def sample() -> dict:
            n, report, theta_cond = _bailey_draw(cfg, rng, order)
            return {
                "n": n,
                "residual": report.residual,
                "condition": report.condition,
                "theta_condition": theta_cond,
                "pass": report.residual <= tol,
            }

        value, was_rejected = run_with_redraws(sample, cfg.max_redraws)
        if was_rejected:
            rejected += 1
            continue
        entries.append(value)
    return {
        "version": REPORT_VERSION,
        "check": "bailey",
        "n": order,
        "seed": cfg.seed,
        "samples": samples - rejected,
        "rejected": rejected,
        "tol": tol,
        "entries": entries,
        "pass": _table_pass(entries, samples, rejected),
        "wall_time_ms": None,
    }


def qdybe_table(cfg: RunConfig, samples: int) -> dict:
    """Per-sample residuals of the shifted hexagon identity on three legs."""
    rng = np.random.default_rng([cfg.seed, 600])
    tol = cfg.tol if cfg.tol is not None else 1e-10
    det_tol = 1e-12
    entries: list[dict] = []
    rejected = 0
    for _ in range(samples):

        def sample() -> dict:
            ctx = cfg.context(rng)
            lam = draw_lambda(rng)
            z1, z2, z3 = (draw_z(rng) for _ in range(3))
            res = qdybe_residual(lam, z1, z2, z3, ctx)
            det = det_residual(lam, z1, ctx)
            return {
                "residual": res,
                "det_residual": det,
                "pass": res <= tol and det <= det_tol,
            }

        value, was_rejected = run_with_redraws(sample, cfg.max_redraws)
        if was_rejected:
            rejected += 1
            continue
        entries.append(value)
    return {
        "version": REPORT_VERSION,
        "check": "qdybe",
        "seed": cfg.seed,
        "samples": samples - rejected,
        "rejected": rejected,
        "tol": tol,
        "det_tol": det_tol,
        "entries": entries,
        "pass": _table_pass(entries, samples, rejected),
        "wall_time_ms": None,
    }


def relations_table(
    cfg: RunConfig, omega: complex | None, lam: complex | None, samples: int
) -> dict:
    """Worst residual per defining relation, optionally at pinned weights.

    ``omega`` and ``lam`` pin the representation weight and evaluation point;
    None draws fresh values each sample.
    """
    rng = np.random.default_rng([cfg.seed, 700])
    tol = cfg.tol if cfg.tol is not None else 1e-9
    worst: dict[str, float] = {}
    rejected = 0
    for _ in range(samples):

        def sample() -> dict[str, float]:
            ctx = cfg.context(rng, zero_guard=1e-4)
            om = draw_lambda(rng) if omega is None else omega
            l0 = draw_lambda(rng) if lam is None else lam
            rc = RepContext(om, l0, ctx)
            z1, z2, z = (draw_z(rng) for _ in range(3))
            out: dict[str, float] = {}
            for name, res in check_relations(rc, z1, z2, z, mmax=6, kmax_reverse=4):
                out[name] = max(out.get(name, 0.0), res)
            return out

        value, was_rejected = run_with_redraws(sample, cfg.max_redraws)
        if was_rejected:
            rejected += 1
            continue
        for key, v in value.items():
            worst[key] = max(worst.get(key, 0.0), v)
    entries = [
        {"relation": name, "max_rel_residual": v, "pass": v <= tol}
        for name, v in sorted(worst.items())
    ]
    return {
        "version": REPORT_VERSION,
        "check": "relations",
        "omega": None if omega is None else [omega.real, omega.imag],
        "lambda": None if lam is None else [lam.real, lam.imag],
        "seed": cfg.seed,
        "samples": samples - rejected,
        "rejected": rejected,
        "tol": tol,
        "entries": entries,
        "pass": _table_pass(entries, samples, rejected),
        "wall_time_ms": None,
    }


def biorth_table(
    cfg: RunConfig, n_level: int, m_shift: int, samples: int, dual: bool
) -> dict:
    """Per-(k, l) worst residuals of the (dual) biorthogonality sum."""
    rng = np.random.default_rng(
        [cfg.seed, (500 if dual else 200) + 10 * n_level + m_shift]
    )
    tol = cfg.tol if cfg.tol is not None else 1e-6
    checker = check_dual_biorth if dual else check_biorth
    worst: dict[tuple[int, int], float] = {
        (k, l): 0.0 for k in range(n_level + 1) for l in range(n_level + 1)
    }
    rejected = 0
    for _ in range(samples):

        def sample() -> dict[tuple[int, int], float]:
            ctx = cfg.context(rng)
            bp = BiorthParams(
                n_level, draw_lambda(rng), m_shift, draw_lambda(rng), draw_z(rng), ctx
            )
            cache = BiorthCache()
            return {
                (k, l): checker(bp, k, l, cache).residual
                for k in range(n_level + 1)
                for l in range(n_level + 1)
            }

        value, was_rejected = run_with_redraws(sample, cfg.max_redraws)
        if was_rejected:
            rejected += 1
            continue
        for key, v in value.items():
            worst[key] = max(worst[key], v)
    entries = [
        {"k": k, "l": l, "max_rel_residual": worst[(k, l)], "pass": worst[(k, l)] <= tol}
        for k in range(n_level + 1)
        for l in range(n_level + 1)
    ]
    return {
        "version": REPORT_VERSION,
        "check": "dual-biorth" if dual else "biorth",
        "N": n_level,
        "M": m_shift,
        "seed": cfg.seed,
        "samples": samples - rejected,
        "rejected": rejected,
        "tol": tol,
        "entries": entries,
        "pass": _table_pass(entries, samples, rejected),
        "wall_time_ms": None,
    }
