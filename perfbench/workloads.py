"""The benchmark's three workloads and the checks on the program's outputs.

A workload is a sequence of rounds.  ``inputs(i)`` makes round i's inputs
from the seed and the round index; ``round(i, inputs)`` times the calls into
the program with a ``calibrate.Clock`` and then checks the outputs outside
the timed region.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

import oracle
from tracer import OVERFLOW, module

clock = time.perf_counter

# The program's draw policy (ellu2.sampling), restated so that the benchmark
# makes its own inputs: nome, base, spectral annulus, dynamical box.
P_RANGE = (0.05, 0.3)
Q_RANGE = (0.55, 0.9)
RADIUS_RANGE = (0.5, 2.0)
BOX = ((-2.0, 2.0), (-1.0, 1.0))


@dataclass
class Round:
    """One round: timed wall time, operations, per-part times and check failures.

    ``nominal_s`` is ``wall_s`` rescaled to the nominal machine speed.
    """

    wall_s: float
    nominal_s: float
    attempted: int
    failed: int
    parts: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    fingerprint: str = ""


def sub_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


# -- battery -----------------------------------------------------------------

# Every registered suite at its registered count, except three whose reports
# fail at some seeds although every draw completes (see README.md):
# - qdybe: the "det closed form" gate scales a d - b c by |det| alone, and
#   cancellation fails it at 18 of seeds 0-399;
# - corep: the matrix-element independence ratio falls below its 1e-8 floor
#   at 8 of seeds 0-39;
# - bailey: a draw with p close to a power of q^2 misses the 1e-7 tolerance
#   under the condition cutoff, at 1 of 2000 seeds.
# Kernels times the hexagons, determinants and Bailey checks, levels the
# corep tower.
REGISTERED = {
    "theta": 200,
    "series": 50,
    "relations": 50,
    "unitarity": 20,
    "biorth": 150,
    "dual-biorth": 150,
}
TIMED_SUITES = ("biorth", "dual-biorth", "unitarity", "relations")


class Battery:
    """``run_report`` over the REGISTERED suites; every round runs at the seed."""

    def __init__(self, seed: int, draws, ref) -> None:
        self.seed = seed
        self.draws = draws
        self.ref = ref

    def inputs(self, i: int) -> None:
        return None

    def round(self, i: int, inputs: None) -> Round:
        """The timed region is the suites, each timed inside ``run_report``."""
        suites = module("suites")
        times: dict[str, tuple[float, float]] = {}
        drawn: dict[str, int] = {}
        run_suite = suites.run_suite

        def timed_suite(name, cfg):
            d0, token = self.draws.samples, self.ref.start()
            try:
                return run_suite(name, cfg)
            finally:
                times[name] = self.ref.stop(token)
                drawn[name] = self.draws.samples - d0

        suites.run_suite = timed_suite
        try:
            report = suites.run_report(suites.RunConfig(seed=self.seed), list(REGISTERED))
        finally:
            suites.run_suite = run_suite

        errors = []
        if not report["pass"]:
            errors.append("battery report does not pass")
        records = {rec["suite"]: rec for rec in report["suites"]}
        rejected = 0
        for name, want in REGISTERED.items():
            rec = records.get(name, {"samples": 0, "rejected": 0})
            rejected += rec["rejected"]
            if rec["samples"] + rec["rejected"] != want or drawn.get(name) != want:
                errors.append(
                    f"{name}: samples {rec['samples']} + rejected {rec['rejected']}, "
                    f"{drawn.get(name)} draws, registered {want}"
                )
        if rejected:
            errors.append(f"{rejected} samples rejected by the pole guard")
        return Round(
            wall_s=sum(t[0] for t in times.values()),
            nominal_s=sum(t[1] for t in times.values()),
            attempted=sum(drawn.values()),
            failed=rejected,
            parts={f"suite.{name}_s": times[name][0] for name in TIMED_SUITES},
            errors=errors,
            fingerprint=suites.canonical_json(report),
        )


# -- levels ------------------------------------------------------------------

LEVEL_BIORTH = (6, 7, 8)
LEVEL_COREP = (5, 6)
LEVEL_SHIFT = 1
LEVEL_SAMPLES = 2
# The biorth tables run at these seeds in every round, whatever --seed is: at
# random seeds about one draw in 500 at N = 6-8 fails the oracle comparison
# (see README.md), which would make the failed share differ between runs.
# 20240 redraws twice on the series overflow (direct, N = 8); 3164770343
# fails the oracle comparison (direct, N = 6) every time.
LEVEL_TABLE_SEEDS = (20240, 3164770343)
KNOWN_FAILURE = (3164770343, "biorth", 6)


class Levels:
    """Direct and dual biorth tables at N = 6-8 and corep tables at N = 5-6.

    An operation is one table.  The corep tables of round i run at a seed
    derived from (seed, i).
    """

    def __init__(self, seed: int, draws, ref) -> None:
        self.seed = seed
        self.ref = ref

    def inputs(self, i: int) -> None:
        return None

    def round(self, i: int, inputs: None) -> Round:
        suites = module("suites")
        calls = [
            (seed, "biorth", suites.biorth_table,
             (suites.RunConfig(seed=seed), n, LEVEL_SHIFT, LEVEL_SAMPLES, dual))
            for seed in LEVEL_TABLE_SEEDS
            for n in LEVEL_BIORTH
            for dual in (False, True)
        ]
        cfg = suites.RunConfig(seed=sub_seed(self.seed, i))
        calls += [
            (cfg.seed, "corep", suites.corep_table, (cfg, n, LEVEL_SAMPLES)) for n in LEVEL_COREP
        ]
        tables = []
        times = {"biorth": [0.0, 0.0], "corep": [0.0, 0.0]}
        for seed, kind, fn, args in calls:
            token = self.ref.start()
            tables.append((seed, fn(*args)))
            for k, t in enumerate(self.ref.stop(token)):
                times[kind][k] += t

        errors = []
        failed = 0
        for seed, table in tables:
            complete = table["samples"] == LEVEL_SAMPLES and table["rejected"] == 0
            if table["pass"] and complete and all(e["pass"] for e in table["entries"]):
                continue
            failed += 1
            if (seed, table["check"], table["N"]) != KNOWN_FAILURE:
                errors.append(f"{table['check']} N={table['N']} at seed {seed} fails")
        return Round(
            wall_s=times["biorth"][0] + times["corep"][0],
            nominal_s=times["biorth"][1] + times["corep"][1],
            attempted=len(tables),
            failed=failed,
            parts={"levels.biorth_s": times["biorth"][0], "levels.corep_s": times["corep"][0]},
            errors=errors,
            fingerprint=json.dumps([table for _, table in tables], sort_keys=True),
        )


# -- kernels -----------------------------------------------------------------

CONTEXTS = 4
BATCHES = ((1, 32), (8, 16), (64, 4), (1024, 2))  # (batch size, batches per context)
FAR_EVERY = 4  # every fourth argument is far: 1e-8 <= |z| <= 1e8
SCALAR_CALLS = 2048
LONG_ROUNDS = 20  # rounds one scalar context lives, so its memo peaks in every run
LONG_P = 0.175  # nome of the long-lived scalar context: the middle of P_RANGE
FT_ORDERS = range(0, 7)
FT_DRAWS = 2
PINNED_ORDERS = (8, 10, 12, 16, 20, 24, 28, 32)
PINNED_DRAWS = 3
PINNED_STREAM = 1997
MAX_LOG10_TERM = 300.0  # pinned series have every true term inside double range
BAILEY_ORDERS = range(0, 7)
BAILEY_STREAM = 1998
MAX_CONDITION = 1e6  # the bailey suite's redraw cutoff
HEXAGONS = 8
HEXAGON_STREAM = 1999
KERNEL_STREAM = 107

THETA_TOL = 1e-13  # relative error over the oracle's condition
FT_TOL = 1e-10  # relative to |closed form| + largest term, times the condition
BAILEY_TOL = 1e-7
HEXAGON_TOL = 1e-10
DET_TOL = 1e-12


def _annulus(rng, n: int) -> np.ndarray:
    radius = rng.uniform(*RADIUS_RANGE, n)
    return radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))


def _spread(rng, n: int) -> list[complex]:
    """Arguments in the annulus, with every FAR_EVERY-th one far from it."""
    z = _annulus(rng, n)
    far = np.arange(n) % FAR_EVERY == FAR_EVERY - 1
    z[far] = z[far] / np.abs(z[far]) * 10.0 ** rng.uniform(-8.0, 8.0, int(far.sum()))
    return z.tolist()


def _lam(rng) -> complex:
    return complex(rng.uniform(*BOX[0]), rng.uniform(*BOX[1]))


def _log10_max_term(x: tuple) -> float:
    p, q, a, b, c, d, n = x
    return oracle.frenkel_turaev_log10_max_term(a, b, c, d, n, p, q * q)


def _condition(x: tuple) -> float:
    p, q, a, b, c, d, n = x
    return oracle.frenkel_turaev_condition(a, b, c, d, n, p, q * q)


def _hexagon_input(rng) -> tuple:
    """(p, q, lam, z1, z2, z3) of one hexagon."""
    p, q = rng.uniform(*P_RANGE), rng.uniform(*Q_RANGE)
    return p, q, _lam(rng), *_annulus(rng, 3).tolist()


def _ft_input(rng, n: int) -> tuple:
    """(p, q, a, b, c, d, n) of a Frenkel-Turaev series with e forced by balancing."""
    p, q = rng.uniform(*P_RANGE), rng.uniform(*Q_RANGE)
    a, b, c, d = _annulus(rng, 4).tolist()
    return p, q, a, b, c, d, n


class Kernels:
    """Point evaluations on fresh arguments: theta batches, series, hexagons."""

    def __init__(self, seed: int, draws, ref) -> None:
        self.seed = seed
        self.ref = ref
        self.long_block = -1
        self.long_ctx = None
        rng = np.random.default_rng(PINNED_STREAM)
        self.pinned = []
        for n in PINNED_ORDERS:
            draws = []
            while len(draws) < PINNED_DRAWS:
                x = _ft_input(rng, n)
                if _log10_max_term(x) < MAX_LOG10_TERM:
                    draws.append((x, _condition(x)))
            self.pinned += draws
        # Bailey draws and hexagons are pinned too: near a pole of theta a
        # seeded draw can miss the program's own tolerance by rounding alone
        # (see README.md), and the failed share would depend on --seed.
        rng = np.random.default_rng(BAILEY_STREAM)
        self.bailey = [self._bailey_input(rng, n) for n in BAILEY_ORDERS]
        rng = np.random.default_rng(HEXAGON_STREAM)
        self.hexagons = [_hexagon_input(rng) for _ in range(HEXAGONS)]

    def _series(self, p, q, a, b, c, d, n):
        theta_mod, series = module("theta"), module("series")
        ctx = theta_mod.ThetaContext(p, q)
        q2 = ctx.qpow(2)
        e = a * a * q2 ** (n + 1) / (b * c * d)
        uppers = tuple(theta_mod.garg(x) for x in (b, c, d, e)) + (theta_mod.qarg(-n),)
        return series.SeriesSpec(theta_mod.garg(a), uppers, 4, ctx)

    def _bailey_input(self, rng, n: int) -> tuple:
        """(p, q, a, b, c, d, e, f, n) the suite would accept: no pole, condition <= 1e6."""
        theta_mod, series = module("theta"), module("series")
        while True:
            p, q = rng.uniform(*P_RANGE), rng.uniform(*Q_RANGE)
            args = (*_annulus(rng, 6).tolist(), n)
            ctx = theta_mod.ThetaContext(p, q)
            try:
                if series.check_bailey(*args, ctx).condition <= MAX_CONDITION:
                    return p, q, *args
            except theta_mod.PoleError:
                continue

    def inputs(self, i: int) -> dict:
        theta_mod = module("theta")
        rng = np.random.default_rng([self.seed, KERNEL_STREAM, i])
        width = (P_RANGE[1] - P_RANGE[0]) / CONTEXTS
        ctxs = [
            theta_mod.ThetaContext(
                P_RANGE[0] + (k + rng.uniform()) * width, rng.uniform(*Q_RANGE)
            )
            for k in range(CONTEXTS)
        ]
        batches = {}
        for size, count in BATCHES:
            batches[size] = []
            for ctx in ctxs:
                flat = _spread(rng, size * count)
                batches[size] += [(ctx, flat[j * size : (j + 1) * size]) for j in range(count)]
        seeded = [_ft_input(rng, n) for n in FT_ORDERS for _ in range(FT_DRAWS)]
        ft = [(x, _condition(x)) for x in seeded] + self.pinned
        return {
            "batches": batches,
            "scalar": _spread(rng, SCALAR_CALLS),
            "series": [(self._series(*x), x, cond) for x, cond in ft],
            "bailey": [(*x[2:], theta_mod.ThetaContext(*x[:2])) for x in self.bailey],
            "hexagon": [(*x[2:], theta_mod.ThetaContext(*x[:2])) for x in self.hexagons],
            "det": [
                (lam, z1, theta_mod.ThetaContext(p, q))
                for p, q, lam, z1, _, _ in (_hexagon_input(rng) for _ in range(HEXAGONS))
            ],
        }

    def _long_context(self, i: int):
        """The scalar context of round i; a new one every LONG_ROUNDS rounds."""
        if i // LONG_ROUNDS != self.long_block:
            self.long_block = i // LONG_ROUNDS
            rng = np.random.default_rng([self.seed, KERNEL_STREAM + 1, self.long_block])
            self.long_ctx = module("theta").ThetaContext(LONG_P, rng.uniform(*Q_RANGE))
        return self.long_ctx

    def round(self, i: int, inputs: dict) -> Round:
        theta_mod, series, rmatrix = module("theta"), module("series"), module("rmatrix")
        theta_vec, theta = theta_mod.theta_vec, theta_mod.theta
        long_ctx = self._long_context(i)
        dt: dict[str, float] = {}
        token = self.ref.start()

        vec_out = {}
        for size, work in inputs["batches"].items():
            t0 = clock()
            vec_out[size] = [theta_vec(batch, ctx) for ctx, batch in work]
            dt[f"b{size}"] = clock() - t0

        t0 = clock()
        scalar_out = [theta(z, long_ctx) for z in inputs["scalar"]]
        dt["scalar"] = clock() - t0

        series_out = []
        t0 = clock()
        for spec, _, _ in inputs["series"]:
            try:
                series_out.append(series.eval_omega(spec))
            except theta_mod.PoleError as exc:
                series_out.append(exc)
        dt["series"] = clock() - t0

        t0 = clock()
        bailey_out = [series.check_bailey(*args) for args in inputs["bailey"]]
        dt["bailey"] = clock() - t0

        t0 = clock()
        hex_out = [rmatrix.qdybe_residual(*args) for args in inputs["hexagon"]]
        dt["hexagon"] = clock() - t0

        t0 = clock()
        det_out = [
            (rmatrix.r_entries(lam, z1, ctx), rmatrix.middle_det_closed(z1, ctx))
            for lam, z1, ctx in inputs["det"]
        ]
        dt["det"] = clock() - t0
        wall, nominal = self.ref.stop(token)

        errors: list[str] = []
        worst = 0.0
        for size, work in inputs["batches"].items():
            checked = range(len(work)) if size < 1024 else [i % len(work)]
            for j in checked:
                ctx, batch = work[j]
                for z, got in zip(batch, vec_out[size][j]):
                    worst = max(worst, oracle.rel_error(complex(got), z, ctx.p))
        for z, got in zip(inputs["scalar"], scalar_out):
            worst = max(worst, oracle.rel_error(got, z, long_ctx.p))
        if worst > THETA_TOL:
            errors.append(f"theta off the long product by {worst:.3e} (tol {THETA_TOL:g})")

        failed = 0
        terms = 0
        for (spec, (p, q, a, b, c, d, n), cond), got in zip(inputs["series"], series_out):
            if isinstance(got, Exception):
                # The named fault: an overflow PoleError on a series whose
                # true terms all lie inside double precision range.
                failed += 1
                x = (p, q, a, b, c, d, n)
                if OVERFLOW not in str(got) or _log10_max_term(x) >= MAX_LOG10_TERM:
                    errors.append(f"series order {n}: {got}")
                continue
            terms += n + 1
            rhs = oracle.frenkel_turaev_rhs(a, b, c, d, n, p, spec.ctx.qpow(2))
            res = abs(got.value - rhs) / (abs(rhs) + got.max_term_magnitude)
            if res > FT_TOL * cond or got.warnings:
                errors.append(
                    f"series order {n}: residual {res:.3e}, condition {cond:.3g} {got.warnings}"
                )
        for args, report in zip(inputs["bailey"], bailey_out):
            if report.residual > BAILEY_TOL:
                errors.append(f"bailey order {args[6]}: residual {report.residual:.3e}")
        for res in hex_out:
            if res > HEXAGON_TOL:
                errors.append(f"hexagon residual {res:.3e}")
        for (a, b, c, d), closed in det_out:
            # a d - b c cancels; its rounding error scales with max(|a d|, |b c|).
            res = abs(a * d - b * c - closed) / max(abs(a * d), abs(b * c), abs(closed))
            if res > DET_TOL:
                errors.append(f"middle determinant off its closed form by {res:.3e}")

        n_batches = sum(len(work) for work in inputs["batches"].values())
        return Round(
            wall_s=wall,
            nominal_s=nominal,
            attempted=n_batches + len(scalar_out) + len(series_out) + len(bailey_out)
            + len(hex_out) + len(det_out),
            failed=failed,
            parts={
                "theta_args_per_s": sum(len(b) for _, b in inputs["batches"][1024]) / dt["b1024"],
                "series_terms_per_s": terms / dt["series"],
                "hexagon_per_s": len(hex_out) / dt["hexagon"],
            },
            errors=errors,
        )


WORKLOADS = {"battery": Battery, "levels": Levels, "kernels": Kernels}
