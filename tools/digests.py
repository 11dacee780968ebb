"""A sha256 prefix of each byte-stable report, to compare two trees.

    PYTHONPATH=src python3 tools/digests.py

Prints one line per report, ``<first 16 hex digits of sha256>  <report>``,
all computed in one process:

- ``ellu2 run --suite all`` at seeds 20240, 7 and 123456;
- the battery digest: the canonical JSON of ``run_report`` at seed 20240
  over the benchmark battery's suites (``REGISTERED`` in
  ``perfbench/workloads.py``), and the same at seed 7.  The benchmark
  compares battery bytes only between runs at one seed in one checkout, so
  this line shows a move at a second seed;
- ``ellu2 check relations``, ``bailey`` and ``qdybe`` with ``--samples 5``;
- ``ellu2 check biorth --N 6 --M 1``, direct and ``--dual``;
- ``ellu2 check corep --N 5`` and ``--N 6``;
- the benchmark's twelve levels biorth tables (N = 6-8, M = 1, 2 samples,
  direct and dual, at seeds 20240 and 3164770343), their canonical JSON
  joined by newlines, in the benchmark's order;
- the corep tables of the benchmark's first three levels rounds at seed
  20240 (N = 5 and 6, 2 samples, at the seed ``SeedSequence([20240, i])``
  gives round i, i = 0-2), joined the same way;
- the product side values (``product_values``): ``float.hex`` of every
  ``tau_product`` value, or its error, read in tower order at each draw the
  corep tables of the line above make.  Those tables hold maxima of
  spreads, which can hide a last-bit change of this side;
- the kernel values (``kernel_values``): ``float.hex`` of every value of
  ``theta``, ``theta_vec``, ``r_entries``, ``qdybe_residual`` and
  ``eval_omega`` on seeded inputs.  A report holds maxima of residuals, which
  can hide a last-bit change of a value; this line does not;
- the tensor residuals (``tensor_residuals``): ``float.hex`` of every
  residual of ``check_coproduct`` and ``check_tensor_relation`` at seeded
  draws, each unfolded, for the same reason;
- the failing plans (``failing_plans``): the draw, plan position, error type
  and message of every plan ``Template.bind_all`` fails on the biorth sweeps
  at N = 18 and 20, where range failures are common.  Reports show only
  the first error of a check; this line shows every one;
- the compiled programs (``compiled_programs``): every array of every
  template the battery and the levels compile (the biorth sweeps at
  N = 1-8, M = 0-2, the corep towers at N = 1-6 of both plans, and the
  compiled checks of the battery's suites): its record exponent columns,
  its theta and listed-record indices, each batch's index arrays, and its
  finish program.  A compiled template is data; two compiles of the same
  shapes must emit the same programs;
- the bound values (``bound_values``): ``float.hex`` of every value, and
  every failure code, that ``Template.bind_all`` gives for the battery's
  templates at one seeded batch of ten draws.  The reports fold these
  values into maxima; this line shows a last-bit move of any of them;
- the drawn attempts (``drawn_attempts``): ``float.hex`` of every number
  of every attempt each drawn-ahead sampler (``suites._DrawAhead``) hands
  its batch evaluation in its first two batches at seed 20240: the
  battery's suites, and the relations (drawn and pinned weights), biorth
  and corep tables.  The attempts are recorded by wrapping the evaluation
  each sampler is made with, so the tool reads any tree whose samplers
  take (draw, evaluate).

Each ``ellu2`` command's digest is of what it writes to stdout.  Run it on
two checkouts and compare the lines: equal lines mean equal report bytes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io

import numpy as np

from ellu2.biorth import BiorthParams, _sweep
from ellu2.cli import main
from ellu2.corep import (
    TOWER_M,
    _Tower,
    check_coproduct,
    check_tensor_relation,
    product_tower,
    tau_plan,
    tau_tilde_plan,
)
from ellu2.corep import UNITARITY_MMAX, _inversion_rows, _unitarity_rows
from ellu2.rep import DET_FORMS_SHAPE, RELATIONS_SHAPE, RepContext, _det_form_rows, _relation_rows
from ellu2.rep import compiled, relation_inventory
from ellu2.rmatrix import qdybe_residual, r_entries
from ellu2.series import SeriesSpec, eval_omega
from ellu2.sampling import draw_context, draw_lambda, draw_z
from ellu2 import suites
from ellu2.suites import AHEAD, RunConfig, biorth_table, canonical_json, corep_table
from ellu2.suites import relations_table, run_report
from ellu2.theta import PoleError, ThetaContext, error, garg, qarg, theta, theta_vec

BATTERY = ["theta", "series", "relations", "unitarity", "biorth", "dual-biorth"]
LEVEL_TABLE_SEEDS = (20240, 3164770343)
LEVEL_COREP_ROUNDS = 3
KERNEL_SEED = 20240
KERNEL_NOMES = (0.05, 0.12, 0.175, 0.3)
KERNEL_BATCHES = (1, 8, 64, 1024)
TENSOR_SEEDS = (20240, 7)
FAILURE_LEVELS = (18, 20)
BOUND_SEED = 20240
BOUND_DRAWS = 10
DRAW_SEED = 20240


def stdout_of(argv: list[str]) -> str:
    """What ``ellu2 argv`` writes to stdout; its stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    return out.getvalue()


def _hex(value) -> str:
    """Every float of a value (number, tuple or array) as ``float.hex``."""
    flat = np.asarray(value, dtype=complex).reshape(-1).view(np.float64).tolist()
    return " ".join(map(float.hex, flat))


def _kernel(fn, *args) -> str:
    try:
        return _hex(fn(*args))
    except PoleError as exc:
        return f"PoleError: {exc}"


def kernel_values() -> str:
    """One line per kernel call on seeded inputs: its value's floats as
    ``float.hex``, or the ``PoleError`` it raised.  Arguments lie in the
    annulus 0.5 <= |z| <= 2, every fourth one moved to 1e-8 <= |z| <= 1e8."""
    rng = np.random.default_rng(KERNEL_SEED)

    def spread(n: int) -> list[complex]:
        z = rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
        far = np.arange(n) % 4 == 3
        z[far] = z[far] / np.abs(z[far]) * 10.0 ** rng.uniform(-8.0, 8.0, int(far.sum()))
        return z.tolist()

    lines = []
    for p in KERNEL_NOMES:
        ctx = ThetaContext(p, rng.uniform(0.1, 0.9))
        for size in KERNEL_BATCHES:
            batch = spread(size)
            lines.append(_kernel(theta_vec, batch, ctx))
            lines += [_kernel(theta, z, ctx) for z in batch]
        for _ in range(8):
            lam = complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
            z1, z2, z3 = spread(3)
            lines.append(_kernel(r_entries, lam, z1, ctx))
            lines.append(_kernel(qdybe_residual, lam, z1, z2, z3, ctx))
        for n in range(8):
            a, b, c, d = spread(4)
            e = a * a * ctx.qpow(2) ** (n + 1) / (b * c * d)
            uppers = (*map(garg, (b, c, d, e)), qarg(-n))
            lines.append(_kernel(lambda s: eval_omega(s).value, SeriesSpec(garg(a), uppers, 4, ctx)))
    return "\n".join(lines)


def product_values() -> str:
    """One line per draw of the levels corep tables of rounds 0-2 (N = 5
    and 6, 2 samples; ``_round_seed``), redraws included, in the order the
    tables draw them: N, then each (k, j, m) of the tower's product side,
    in tower order, as ``_kernel`` gives it.  Every element is read, also
    past a draw's first failure."""
    draws = []
    tower = suites._corep_tower

    def recorded(rc, z, n_level, *bound):
        draws.append((rc, z, n_level))
        return tower(rc, z, n_level, *bound)

    suites._corep_tower = recorded
    try:
        for i in range(LEVEL_COREP_ROUNDS):
            for n in (5, 6):
                corep_table(RunConfig(seed=_round_seed(i)), n, 2)
    finally:
        suites._corep_tower = tower
    lines = []
    for rc, z, N in draws:
        read = product_tower(N, rc.lam0, z, rc.omega, rc.ctx)
        keys = [(k, j, m) for k in range(N + 1) for j in range(N + 1) for m in range(TOWER_M)]
        lines.append(f"{N} " + " ".join(_kernel(read, *key) for key in keys))
    return "\n".join(lines)


def tensor_residuals() -> str:
    """One line per draw and check: the ``float.hex`` of each residual of
    ``check_coproduct`` at N = 1-3 and m, n < 3, then of
    ``check_tensor_relation`` over the relation inventory at m, n < 2, at two
    representations drawn as the corep suite draws them, at each seed of
    ``TENSOR_SEEDS``."""
    lines = []
    for seed in TENSOR_SEEDS:
        rng = np.random.default_rng(seed)
        # The base, omega and lambda, then z, as the corep suite draws them.
        ctx = draw_context(rng)
        rc = RepContext(draw_lambda(rng), draw_lambda(rng), ctx)
        z = draw_z(rng)
        rc2 = RepContext(draw_lambda(rng), rc.lam0, rc.ctx)
        coproducts = (
            check_coproduct(N, z, m, n, rc, rc2)
            for N in range(1, 4)
            for m in range(3)
            for n in range(3)
        )
        lines.append(" ".join(map(float.hex, coproducts)))
        relations = (
            check_tensor_relation(lhs, rhs, m, n, rc, rc2)
            for _, lhs, rhs in relation_inventory(draw_z(rng), draw_z(rng), rc.ctx)
            for m in range(2)
            for n in range(2)
        )
        lines.append(" ".join(map(float.hex, relations)))
    return "\n".join(lines)


def failing_plans() -> str:
    """One line per plan that ``Template.bind_all`` fails, sorted: N, table,
    draw, plan position, error type and message.  The draws are those a
    two-sample direct or dual biorth table at N = 18 and 20, M = 1, seed
    20240 can make (``2 * max_redraws``), drawn as the tables draw them and
    bound ``AHEAD`` at a time, as the tables bind them."""
    cfg, M = RunConfig(seed=20240), 1
    failing = []
    for N in FAILURE_LEVELS:
        for dual in (False, True):
            rng = np.random.default_rng([cfg.seed, (500 if dual else 200) + 10 * N + M])
            bps = []
            for _ in range(2 * cfg.max_redraws):
                ctx = draw_context(rng)
                bps.append(BiorthParams(N, draw_lambda(rng), M, draw_lambda(rng), draw_z(rng), ctx))
            template = _sweep(bps[0]).template
            for start in range(0, len(bps), AHEAD):
                draws = [(bp.ctx, bp.Lam, bp.omega, bp.z) for bp in bps[start : start + AHEAD]]
                _, codes = template.bind_all(draws)
                for d, i in zip(*np.nonzero(codes)):
                    exc = error(codes[d, i])
                    table = "dual" if dual else "direct"
                    failing.append((N, table, start + int(d), int(i), type(exc).__name__, str(exc)))
    return "\n".join(" ".join(map(str, f)) for f in sorted(failing))


# What a template keeps besides its batches and finish program.
TEMPLATE_ARRAYS = ("_lam", "_om", "_c", "_re_z", "_im_z", "_neg", "_spectral", "_theta", "_listed_rows", "_starts")
PROGRAM_ARRAYS = ("size", "sources", "constants", "groups", "operands", "items")


def _feed(h, x) -> None:
    """Every array, number and name in ``x`` into the hash ``h``: an array
    by its dtype, shape and bytes, a function (a finish form) by its name."""
    if isinstance(x, np.ndarray):
        h.update(f"{x.dtype.str}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, (list, tuple)):
        h.update(b"(")
        for y in x:
            _feed(h, y)
        h.update(b")")
    elif callable(x) and hasattr(x, "__qualname__"):
        h.update(x.__qualname__.encode())
    else:
        h.update(repr(x).encode())
    h.update(b",")


def template_digest(template) -> str:
    """The sha256 of every array of a compiled template: its records, theta
    and listed-record indices, its plans' positions, each batch's program
    and the finish program."""
    h = hashlib.sha256()
    _feed(h, [getattr(template, name) for name in TEMPLATE_ARRAYS])
    _feed(h, list(template.plans.items()))
    for batch in template._batches:
        slots = [name for name in type(batch).__slots__ if name != "_pending"]
        _feed(h, [type(batch).__name__, *(getattr(batch, name) for name in slots)])
    program = template._program
    _feed(h, [getattr(program, name) for name in PROGRAM_ARRAYS])
    return h.hexdigest()


def compiled_programs() -> str:
    """One line per template, with its ``template_digest``: the biorth sweeps
    at N = 1-8, M = 0-2, the corep towers at N = 1-6 of ``tau_plan`` and
    ``tau_tilde_plan`` (zero guard 1e-12), and the compiled checks of the
    battery's suites at seed 20240, in the order the battery compiles them."""
    lines = []
    for N in range(1, 9):
        for M in range(3):
            bp = BiorthParams(N, 0.8 + 0.4j, M, 0.3 - 0.2j, 1.2 + 0.5j, ThetaContext(0.12, 0.67))
            lines.append(f"biorth {N} {M} {template_digest(_sweep(bp).template)}")
    for plan in (tau_plan, tau_tilde_plan):
        for N in range(1, 7):
            lines.append(f"corep {plan.__name__} {N} {template_digest(_Tower(plan, N, 1e-12).template)}")
    rep = importlib.import_module("ellu2.rep")
    kept, rep._SHAPES = rep._SHAPES, {}
    try:
        run_report(RunConfig(seed=20240), BATTERY)
        for shape, check in rep._SHAPES.items():
            lines.append(f"check {shape[0].__name__} {template_digest(check.template)}")
    finally:
        rep._SHAPES = kept
    return "\n".join(lines)


def bound_values() -> str:
    """One line per template of the battery: its name, then the
    ``float.hex`` of every value and the failure code of every plan that
    ``Template.bind_all`` gives at ``BOUND_DRAWS`` draws bound together, by
    draw and plan position.  The templates: the biorth sweeps at N = 1-5,
    M = 0-2 (one template per shape serves its direct and its dual sums),
    the relations and det-form checks at the relations suite's zero guard
    1e-4, and the unitarity (N = 1-3) and inversion (N = 1-2) checks at
    1e-12.  Each draw is a base, lambda, omega and the spectral points z,
    z1 and z2, from one generator seeded with ``BOUND_SEED``."""
    rng = np.random.default_rng(BOUND_SEED)
    drawn = []
    for _ in range(BOUND_DRAWS):
        ctx = draw_context(rng)
        drawn.append((ctx, draw_lambda(rng), draw_lambda(rng), *(draw_z(rng) for _ in range(3))))

    def line(name: str, template, guard: float) -> str:
        draws = [(ThetaContext(ctx.p, ctx.q, guard), *rest) for ctx, *rest in drawn]
        values, codes = template.bind_all(draws)
        return f"{name} {_hex(values)} {' '.join(map(str, codes.ravel().tolist()))}"

    lines = []
    for N in range(1, 6):
        for M in range(3):
            bp = BiorthParams(N, 0.8 + 0.4j, M, 0.3 - 0.2j, 1.2 + 0.5j, ThetaContext(0.12, 0.67))
            lines.append(line(f"biorth {N} {M}", _sweep(bp).template, 1e-12))
    checks = [(_relation_rows, RELATIONS_SHAPE, 1e-4), (_det_form_rows, DET_FORMS_SHAPE, 1e-4)]
    checks += [(_unitarity_rows, (N, UNITARITY_MMAX), 1e-12) for N in (1, 2, 3)]
    checks += [(_inversion_rows, (N, UNITARITY_MMAX), 1e-12) for N in (1, 2)]
    for build, params, guard in checks:
        lines.append(line(f"{build.__name__} {params}", compiled(build, params, guard).template, guard))
    return "\n".join(lines)


def attempt_hex(x) -> str:
    """Every number of an attempt, or of a list of them, in order: each
    float as ``float.hex``, each complex number by its parts, each int as
    it is, a dataclass (a context, a rep context, biorth params) by its
    fields."""
    if dataclasses.is_dataclass(x):
        return " ".join(attempt_hex(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return " ".join(map(attempt_hex, x))
    if isinstance(x, complex):
        return f"{x.real.hex()} {x.imag.hex()}"
    return x.hex() if isinstance(x, float) else str(x)


def drawn_attempts() -> str:
    """One line per batch: ``attempt_hex`` of the attempts of each of the
    first two batches of each drawn-ahead sampler, samplers in the order
    they are made: those of ``run_report`` over the battery's suites, of
    ``relations_table`` with the weights drawn and pinned (5 samples), of
    the direct and dual ``biorth_table`` at N = 6, M = 1 and of
    ``corep_table`` at N = 5 (2 samples each), all at ``DRAW_SEED``."""
    lines: list = []
    draw_ahead = suites._DrawAhead

    class Recording(draw_ahead):
        def __init__(self, draw, evaluate):
            batches = 0

            def recording(drawn):
                nonlocal batches
                if batches < 2:
                    lines.append(attempt_hex(drawn))
                batches += 1
                return evaluate(drawn)

            super().__init__(draw, recording)

    cfg = RunConfig(seed=DRAW_SEED)
    suites._DrawAhead = Recording
    try:
        run_report(cfg, BATTERY)
        relations_table(cfg, None, None, 5)
        relations_table(cfg, 0.3 - 0.2j, -0.7 + 0.4j, 5)
        for dual in (False, True):
            biorth_table(cfg, 6, 1, 2, dual)
        corep_table(cfg, 5, 2)
    finally:
        suites._DrawAhead = draw_ahead
    return "\n".join(lines)


def _round_seed(i: int) -> int:
    """The seed of the corep tables of levels round i at seed 20240, as the
    benchmark derives it."""
    return int(np.random.SeedSequence([20240, i]).generate_state(1)[0])


def reports():
    """(label, report text) of each report, in the order printed."""
    for seed in (20240, 7, 123456):
        yield f"run --suite all --seed {seed}", stdout_of(["run", "--suite", "all", "--seed", str(seed)])
    yield "battery digest", canonical_json(run_report(RunConfig(seed=20240), BATTERY))
    yield "battery digest --seed 7", canonical_json(run_report(RunConfig(seed=7), BATTERY))
    commands = [["check", name, "--samples", "5"] for name in ("relations", "bailey", "qdybe")]
    commands += [["check", "biorth", "--N", "6", "--M", "1", *dual] for dual in ([], ["--dual"])]
    commands += [["check", "corep", "--N", str(n)] for n in (5, 6)]
    for argv in commands:
        yield " ".join(argv), stdout_of(argv)
    tables = (
        canonical_json(biorth_table(RunConfig(seed=seed), n, 1, 2, dual))
        for seed in LEVEL_TABLE_SEEDS
        for n in (6, 7, 8)
        for dual in (False, True)
    )
    yield "the 12 levels tables", "\n".join(tables)
    corep = (
        canonical_json(corep_table(RunConfig(seed=_round_seed(i)), n, 2))
        for i in range(LEVEL_COREP_ROUNDS)
        for n in (5, 6)
    )
    yield "the levels corep tables of rounds 0-2", "\n".join(corep)
    yield "product side values", product_values()
    with np.errstate(all="ignore"):
        yield "kernel values", kernel_values()
    yield "tensor residuals", tensor_residuals()
    yield "failing plans at N = 18, 20", failing_plans()
    yield "compiled programs", compiled_programs()
    yield "bound values", bound_values()
    yield "drawn attempts", drawn_attempts()


if __name__ == "__main__":
    for label, text in reports():
        print(hashlib.sha256(text.encode()).hexdigest()[:16], label)
