"""Parameter draw policy and pole-rejection plumbing."""

import dataclasses
import gc
import importlib
import itertools
import weakref

import numpy as np
import pytest

from ellu2 import suites
from ellu2.biorth import BiorthCache, BiorthReport, check_biorth, check_dual_biorth
from ellu2.sampling import P_RANGE, Q_RANGE, draw_batch, run_with_redraws
from ellu2.rep import RepContext
from ellu2.theta import THETA_RANGE, PoleError
import per_draw

biorth_mod = importlib.import_module("ellu2.biorth")


def test_draw_ranges(rng):
    for ctx, lam, z in zip(*draw_batch(rng, 50, ("context", "box", "annulus"))):
        assert P_RANGE[0] <= ctx.p <= P_RANGE[1]
        assert Q_RANGE[0] <= ctx.q <= Q_RANGE[1]
        assert -2 <= lam.real <= 2 and -1 <= lam.imag <= 1
        assert 0.5 <= abs(z) <= 2.0


def test_pinned_bases_do_not_shift_the_stream():
    a = np.random.default_rng(3)
    b = np.random.default_rng(3)
    draw_batch(a, 1, ("context",))
    draw_batch(b, 1, ("context",), p=0.1, q=0.8)
    assert a.uniform() == b.uniform()
    assert draw_batch(np.random.default_rng(0), 1, ("context",), p=0.1)[0][0].p == 0.1
    assert draw_batch(np.random.default_rng(0), 1, ("context",), q=0.8)[0][0].q == 0.8


def test_draw_context_applies_policy(rng):
    (ctx,), = draw_batch(rng, 1, ("context",), p=0.2, q=0.7, zero_guard=1e-6)
    assert ctx.p == 0.2 and ctx.q == 0.7
    assert ctx.zero_guard == 1e-6


def test_run_with_redraws_retries_then_succeeds():
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise PoleError("near a theta zero")
        return calls["n"]

    value, rejected = run_with_redraws(flaky, max_redraws=10)
    assert (value, rejected) == (3, False)


def test_run_with_redraws_rejects_after_budget():
    def hopeless():
        raise ZeroDivisionError

    value, rejected = run_with_redraws(hopeless, max_redraws=4)
    assert value is None and rejected is True


def test_a_suite_redraws_a_check_that_overflows(monkeypatch):
    # Python's abs of a finite complex number beyond the double range raises
    # OverflowError inside a biorth check: the same out-of-range draw the
    # kernels report as a pole, so the suite redraws it.
    original = suites.sweep_rows
    raised = []

    def overflows_once(bps, dual):
        got = original(bps, dual)
        if not raised:
            raised.append(1)
            got[0] = OverflowError("absolute value too large")
        return got

    monkeypatch.setattr(suites, "sweep_rows", overflows_once)
    rec = suites.run_suite("biorth", suites.RunConfig(seed=1, samples=1))
    assert raised and rec["pass"] and rec["rejected"] == 0


class OneAtATime:
    """A sampler of the shape ``suites._sample`` takes whose ``attempt``
    draws and evaluates one attempt alone, raising its error."""

    def __init__(self, attempt):
        self.attempt = attempt


def sequential_biorth(cfg, rng, N, M, samples, dual, fail):
    """The reference sampler: each attempt drawn and evaluated alone, in
    turn; attempt t raises ``fail[t]`` once drawn."""
    checker = check_dual_biorth if dual else check_biorth
    attempts = itertools.count()

    def sample():
        t = next(attempts)
        bp = per_draw.biorth_attempt(cfg, rng, N, M)
        if t in fail:
            raise fail[t]
        cache = BiorthCache()
        return {(k, l): checker(bp, k, l, cache) for k in range(N + 1) for l in range(N + 1)}

    return suites._sample(samples, cfg.max_redraws, OneAtATime(sample))


def prefetched_biorth(monkeypatch, cfg, rng, N, M, samples, dual, fail):
    """The suites' sampler, its batch evaluation wrapped to fail attempt t
    with ``fail[t]``: the draws reach it in attempt order."""
    attempts = itertools.count()

    class Failing(suites._DrawAhead):
        def __init__(self, draw, evaluate):
            def failing(drawn):
                return [fail.get(next(attempts), got) for got in evaluate(drawn)]

            super().__init__(draw, failing)

    monkeypatch.setattr(suites, "_DrawAhead", Failing)

    def read(rows):
        kls = [(k, l) for k in range(N + 1) for l in range(N + 1)]
        return {kl: BiorthReport(*row) for kl, row in zip(kls, rows)}

    return suites._sample(samples, cfg.max_redraws, suites._biorth_ahead(cfg, rng, N, M, dual, read))


def watched(monkeypatch, run):
    """(result, attempts per sample, what each failed attempt raised) of
    ``run()``, seen through the ``run_with_redraws`` the suites module calls."""
    original = suites.run_with_redraws
    attempts, raised = [], []

    def counting(fn, max_redraws=50):
        attempts.append(0)

        def attempt():
            attempts[-1] += 1
            try:
                return fn()
            except ArithmeticError as exc:
                raised.append((type(exc).__name__, str(exc)))
                raise

        return original(attempt, max_redraws)

    monkeypatch.setattr(suites, "run_with_redraws", counting)
    try:
        return run(), attempts, raised
    finally:
        monkeypatch.setattr(suites, "run_with_redraws", original)


def report_bits(values):
    return [
        {kl: [x.hex() for x in dataclasses.astuple(r)] for kl, r in reports.items()}
        for reports in values
    ]


def test_a_failed_attempt_keeps_nothing_alive():
    # The error a failed attempt raises holds no frame that refers to it:
    # once it is handled and the sampler dropped, the sampler's draws are
    # freed without a collection.
    class Draw:
        pass

    drawn = Draw()
    draws = suites._DrawAhead(lambda k: [drawn] * k, lambda batch: [PoleError("at a pole") for _ in batch])
    gone = weakref.ref(drawn)
    gc.disable()
    try:
        with pytest.raises(PoleError, match="at a pole"):
            draws.attempt()
        del draws, drawn
        assert gone() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("dual", [False, True])
def test_prefetched_biorth_draws_equal_drawing_one_at_a_time(monkeypatch, dual):
    # Six samples, at most three attempts each.  Attempt 0 fails (the first
    # of the first batch), attempt 3 fails (mid-batch), and attempts 5-7,
    # all of sample 3, fail: it is rejected, and its redraws empty the
    # first batch and start the next two.
    cfg = suites.RunConfig(seed=5, max_redraws=3)
    fail = {
        0: PoleError("first attempt"),
        3: ZeroDivisionError("mid-batch attempt"),
        5: OverflowError("rejected sample, 1"),
        6: PoleError("rejected sample, 2"),
        7: PoleError("rejected sample, 3"),
    }
    runs = {}
    for name, sampler in (("sequential", sequential_biorth), ("prefetched", prefetched_biorth)):
        rng = np.random.default_rng([5, 2])
        args = (cfg, rng, 2, 1, 6, dual, fail)
        if name == "prefetched":
            args = (monkeypatch, *args)
        (values, rejected), attempts, raised = watched(monkeypatch, lambda: sampler(*args))
        runs[name] = (report_bits(values), rejected, attempts, raised, rng.bit_generator.state)
    assert runs["prefetched"] == runs["sequential"]
    _, rejected, attempts, raised, _ = runs["sequential"]
    assert rejected == 1 and attempts == [2, 1, 2, 3, 1, 1]
    assert raised == [(type(e).__name__, str(e)) for e in fail.values()]


AHEAD_RUNS = {
    "relations suite": lambda cfg: suites.run_suite("relations", cfg),
    "relations table": lambda cfg: suites.relations_table(cfg, None, None, cfg.samples),
    "pinned relations table": lambda cfg: suites.relations_table(
        cfg, 0.3 - 0.2j, -0.7 + 0.4j, cfg.samples
    ),
    "unitarity suite": lambda cfg: suites.run_suite("unitarity", cfg),
}


@pytest.mark.parametrize("case", AHEAD_RUNS)
def test_representation_draws_ahead_equal_drawing_one_at_a_time(monkeypatch, case):
    # The suites' representation draws, made pole-prone: a zero guard of
    # 0.03, at which about one attempt in three fails a guard, and every
    # seventh draw's weight 1e300, whose records leave the double range, so
    # that a theta argument underflows to 0 and ``Template.bind_all`` gives
    # that draw the code of ``PoleError(THETA_RANGE)``, raising nothing.
    # Drawing ahead must give the report, the attempts, the error of each
    # failed attempt and the number of draws of drawing one attempt at a
    # time.
    rep_draws, bind_rows, default = suites._rep_draws, suites.bind_rows, suites.AHEAD
    cfg = suites.RunConfig(seed=3, samples=12, max_redraws=4)
    runs, raised_binds = {}, []
    for ahead in (1, default):
        drawn, batches = itertools.count(), []

        def pole_prone(cfg, rng, k, omega=None, lam=None, zero_guard=1e-12, points=1):
            got = rep_draws(cfg, rng, k, omega, lam, zero_guard=0.03, points=points)
            return [
                (RepContext(1e300, rc.lam0, rc.ctx) if next(drawn) % 7 == 3 else rc, *zs)
                for rc, *zs in got
            ]

        def binding(build, params, points):
            batches.append(len(points))
            try:
                return bind_rows(build, params, points)
            except ArithmeticError:
                raised_binds.append(len(points))
                raise

        monkeypatch.setattr(suites, "AHEAD", ahead)
        monkeypatch.setattr(suites, "_rep_draws", pole_prone)
        monkeypatch.setattr(suites, "bind_rows", binding)
        report, attempts, raised = watched(monkeypatch, lambda: AHEAD_RUNS[case](cfg))
        runs[ahead] = (suites.canonical_json(report), attempts, raised, next(drawn))
    # Drawn ahead, no batch passed the cap, and no bind raised.
    assert max(batches) == default and not raised_binds
    assert runs[default] == runs[1]
    _, attempts, raised, drawn = runs[1]
    assert drawn == sum(attempts) and max(attempts) > 1
    assert ("PoleError", THETA_RANGE) in raised
    assert len({message for _, message in raised}) > 1


@pytest.mark.parametrize("seed,forced", [(20240, False), (7, False), (3, True)])
def test_theta_suite_drawn_ahead_equals_drawing_one_at_a_time(monkeypatch, seed, forced):
    # The theta suite evaluates up to ``AHEAD`` draws in one
    # ``theta_columns`` call.  Forced: every seventh draw's x and y are
    # 1e-200, so that x y underflows to an argument 0 and that draw's
    # column fails in the middle of its batch, as ``PoleError(THETA_RANGE)``.
    # Drawing ahead must give the report bytes, the attempts, the error of
    # each failed attempt and the number of draws of drawing one at a time.
    draw_batch, columns, default = suites.draw_batch, suites.theta_columns, suites.AHEAD
    cfg = suites.RunConfig(seed=seed, samples=24, max_redraws=3)
    runs = {}
    for ahead in (1, default):
        drawn, batches = itertools.count(), []

        def tiny_xy(rng, k, kinds, *pins):
            # Each attempt's four points, z, w, x and y, counted in turn.
            ctxs, *points = draw_batch(rng, k, kinds, *pins)
            for i in range(k):
                for column in points:
                    n = next(drawn)
                    if forced and n // 4 % 7 == 3 and n % 4 >= 2:
                        column[i] = 1e-200
            return [ctxs, *points]

        def counted(zs, ctxs):
            values, failed = columns(zs, ctxs)
            batches.append((len(ctxs), failed))
            return values, failed

        monkeypatch.setattr(suites, "AHEAD", ahead)
        monkeypatch.setattr(suites, "draw_batch", tiny_xy)
        monkeypatch.setattr(suites, "theta_columns", counted)
        report, attempts, raised = watched(monkeypatch, lambda: suites.run_suite("theta", cfg))
        runs[ahead] = (suites.canonical_json(report), attempts, raised, next(drawn))
        assert max(size for size, _ in batches) == ahead
    assert runs[default] == runs[1]
    _, attempts, raised, drawn = runs[1]
    assert drawn == 4 * sum(attempts) and len(attempts) == 24
    if forced:
        assert max(attempts) > 1 and set(raised) == {("PoleError", THETA_RANGE)}
        # The failed draws sat inside batches of several draws, not first.
        assert any(size > 1 and any(failed) for size, failed in batches)
    else:
        assert attempts == [1] * 24 and not raised


def evaluated(monkeypatch) -> list:
    """Every (drawn, outcomes) that the batches of the draw-ahead samplers
    made from here on give, in order."""
    batches = []

    class Recording(suites._DrawAhead):
        def __init__(self, draw, evaluate):
            def recording(drawn):
                got = evaluate(drawn)
                batches.append((drawn, got))
                return got

            super().__init__(draw, recording)

    monkeypatch.setattr(suites, "_DrawAhead", Recording)
    return batches


def assert_rows_or_error(got):
    """``got`` is one draw's outcome: its error, or its rows, numbers by
    name (a dict), by key (dict items) or by row (a list of tuples)."""
    if isinstance(got, ArithmeticError):
        return
    if isinstance(got, dict):
        numbers = list(got.values())
    elif isinstance(got, list):
        numbers = [x for row in got for x in row]
    else:
        assert isinstance(got, type({}.items())), type(got)
        numbers = [v for _, v in got]
    assert numbers and all(isinstance(x, float) for x in numbers), got


PROTOCOL_RUNS = {
    # The relations suite's outcome is the worst of its relation rows and
    # of its determinant-form rows, by class.
    "relations": lambda: suites.run_suite("relations", suites.RunConfig(seed=1, samples=3)),
    "unitarity": lambda: suites.run_suite("unitarity", suites.RunConfig(seed=1, samples=2)),
    "corep table": lambda: suites.corep_table(suites.RunConfig(seed=1), 2, 3),
}


@pytest.mark.parametrize("case", PROTOCOL_RUNS)
def test_a_batch_gives_each_draw_its_rows_or_its_error(monkeypatch, case):
    batches = evaluated(monkeypatch)
    PROTOCOL_RUNS[case]()
    assert batches
    for drawn, outcomes in batches:
        assert len(outcomes) == len(drawn)
        for got in outcomes:
            assert_rows_or_error(got)


def row_hexes(rows):
    return [[x.hex() for x in row] for row in rows]


@pytest.mark.parametrize(
    "seed, N, dual, failing",
    [(20240, 8, False, 2), (20240, 8, True, 0), (3164770343, 6, False, 1), (3164770343, 6, True, 0)],
)
def test_a_biorth_batch_gives_each_draw_its_own_sweep(monkeypatch, seed, N, dual, failing):
    # The levels tables of the pinned overflow draws: each draw's outcome of
    # its batch's sweep is bit for bit the rows of its sweep bound alone, or,
    # where a row fails, the error that the first failing check in row
    # order raises.
    batches = []
    sweep = suites.sweep_rows

    def recording(drawn, dual):
        got = sweep(drawn, dual)
        batches.append((drawn, got))
        return got

    monkeypatch.setattr(suites, "sweep_rows", recording)
    suites.biorth_table(suites.RunConfig(seed=seed), N, 1, 2, dual)
    check = check_dual_biorth if dual else check_biorth
    failed = 0
    for drawn, outcomes in batches:
        for bp, got in zip(drawn, outcomes, strict=True):
            assert_rows_or_error(got)
            rows, errors = biorth_mod._reports([bp], dual)[0]
            if not errors:
                assert row_hexes(got) == row_hexes(rows)
                continue
            failed += 1
            cache, first = BiorthCache(), None
            for k, l in itertools.product(range(N + 1), repeat=2):
                try:
                    check(bp, k, l, cache)
                except ArithmeticError as exc:
                    first = exc
                    break
            assert (type(got), str(got)) == (type(first), str(first))
    assert failed == failing and sum(len(drawn) for drawn, _ in batches) == 2 + failing


def attempt_bits(x):
    """Every number of an attempt (or a list of them), in order: each
    float's ``float.hex``, each complex number's parts', each int as it is,
    a dataclass (a context, a rep context, biorth params) by its fields."""
    if dataclasses.is_dataclass(x):
        return [attempt_bits(getattr(x, f.name)) for f in dataclasses.fields(x)]
    if isinstance(x, (list, tuple)):
        return [attempt_bits(y) for y in x]
    if isinstance(x, complex):
        return [x.real.hex(), x.imag.hex()]
    return x.hex() if isinstance(x, float) else x


PINNED_WEIGHTS = (0.3 - 0.2j, -0.7 + 0.4j)
# name: (run, the sampler's stream key, one attempt drawn one at a time).
DRAW_RUNS = {
    "theta suite": (
        lambda cfg: suites.run_suite("theta", cfg), 0,
        lambda cfg, rng, got: per_draw.theta_attempt(cfg, rng),
    ),
    "relations suite": (
        lambda cfg: suites.run_suite("relations", cfg), 4,
        lambda cfg, rng, got: per_draw.relations_attempt(cfg, rng),
    ),
    "relations table": (
        lambda cfg: suites.relations_table(cfg, None, None, cfg.samples), 700,
        lambda cfg, rng, got: per_draw.relations_attempt(cfg, rng),
    ),
    "pinned relations table": (
        lambda cfg: suites.relations_table(cfg, *PINNED_WEIGHTS, cfg.samples), 700,
        lambda cfg, rng, got: per_draw.relations_attempt(cfg, rng, *PINNED_WEIGHTS),
    ),
    "unitarity suite": (
        lambda cfg: suites.run_suite("unitarity", cfg), 6,
        lambda cfg, rng, got: per_draw.unitarity_attempt(cfg, rng),
    ),
    "biorth suite": (
        lambda cfg: suites.run_suite("biorth", cfg), 7,
        lambda cfg, rng, got: per_draw.biorth_attempt(cfg, rng, got.N, got.M),
    ),
    "dual-biorth suite": (
        lambda cfg: suites.run_suite("dual-biorth", cfg), 8,
        lambda cfg, rng, got: per_draw.biorth_attempt(cfg, rng, got.N, got.M),
    ),
    "biorth table": (
        lambda cfg: suites.biorth_table(cfg, 3, 1, cfg.samples, False), 231,
        lambda cfg, rng, got: per_draw.biorth_attempt(cfg, rng, 3, 1),
    ),
    "dual biorth table": (
        lambda cfg: suites.biorth_table(cfg, 3, 1, cfg.samples, True), 531,
        lambda cfg, rng, got: per_draw.biorth_attempt(cfg, rng, 3, 1),
    ),
    "corep table": (
        lambda cfg: suites.corep_table(cfg, 2, cfg.samples), 102,
        lambda cfg, rng, got: per_draw.unitarity_attempt(cfg, rng),
    ),
    "series suite": (
        lambda cfg: suites.run_suite("series", cfg), 1,
        lambda cfg, rng, got: per_draw.series_attempt(cfg, rng),
    ),
    "bailey suite": (
        lambda cfg: suites.run_suite("bailey", cfg), 2,
        lambda cfg, rng, got: per_draw.bailey_attempt(cfg, rng),
    ),
    "qdybe suite": (
        lambda cfg: suites.run_suite("qdybe", cfg), 3,
        lambda cfg, rng, got: per_draw.qdybe_attempt(cfg, rng),
    ),
    "corep suite": (
        lambda cfg: suites.run_suite("corep", cfg), 5,
        lambda cfg, rng, got: per_draw.corep_attempt(cfg, rng),
    ),
    "bailey table": (
        lambda cfg: suites.bailey_table(cfg, None, cfg.samples), 399,
        lambda cfg, rng, got: per_draw.bailey_attempt(cfg, rng),
    ),
    "pinned bailey table": (
        lambda cfg: suites.bailey_table(cfg, 4, cfg.samples), 304,
        lambda cfg, rng, got: per_draw.bailey_attempt(cfg, rng, 4),
    ),
    "qdybe table": (
        lambda cfg: suites.qdybe_table(cfg, cfg.samples), 600,
        lambda cfg, rng, got: per_draw.qdybe_attempt(cfg, rng),
    ),
}


@pytest.mark.parametrize("case", DRAW_RUNS)
def test_batched_draws_equal_drawing_one_at_a_time(monkeypatch, case):
    # Every attempt a drawn-ahead sampler hands its batches, drawn a batch
    # at a time (``sampling.draw_batch``), equals, bit for bit and in order,
    # the attempt drawn one at a time with one ``rng.uniform`` per slot from
    # a fresh generator on the sampler's stream: at three seeds, with the
    # base drawn and pinned.  Twelve samples take a batch of ``AHEAD`` and
    # then smaller ones.
    run, stream, reference = DRAW_RUNS[case]
    batches = evaluated(monkeypatch)
    for seed in (20240, 7, 3164770343):
        for pinned in ({}, {"p": 0.11, "q": 0.66}):
            cfg = suites.RunConfig(seed=seed, samples=12, **pinned)
            batches.clear()
            run(cfg)
            drawn = [attempt for attempts, _ in batches for attempt in attempts]
            rng = np.random.default_rng([seed, stream])
            want = [reference(cfg, rng, got) for got in drawn]
            assert len(batches) > 1 and len(drawn) >= 12
            assert attempt_bits(drawn) == attempt_bits(want), (seed, pinned)


def test_a_failed_corep_attempt_leaves_every_later_attempt_unchanged(monkeypatch):
    # The corep suite's first attempt fails, its tower patched to raise at
    # N = 1.  Every attempt draws the tensor checks' points, whether it runs
    # them or not, so attempt t draws the numbers it draws when none fails:
    # the towers' draw, which the patch records, and every number the
    # batches are handed.
    tower = suites._corep_tower

    def run(fail: bool):
        towers, calls = [], itertools.count()

        def recorded(rc, z, n_level, *bound):
            if n_level == 1:
                towers.append(attempt_bits((rc, z)))
                if fail and next(calls) == 0:
                    raise PoleError("first attempt")
            return tower(rc, z, n_level, *bound)

        with monkeypatch.context() as patch:
            patch.setattr(suites, "_corep_tower", recorded)
            batches = evaluated(patch)
            report = suites.run_suite("corep", suites.RunConfig(seed=20240, samples=4))
        drawn = [attempt_bits(attempt) for attempts, _ in batches for attempt in attempts]
        return report, towers, drawn

    clean, failed = run(False), run(True)
    assert clean[0]["pass"] and failed[0]["pass"]
    assert (failed[0]["samples"], failed[0]["rejected"]) == (4, 0)
    for want, got in zip(clean[1:], failed[1:]):
        assert len(want) == 4 and len(got) > 4
        assert got[:4] == want
