"""Corepresentation matrix elements: oracle tower, coproduct, unitarity."""

import importlib

import numpy as np
import pytest

from ellu2.corep import (
    TOWER_M,
    check_coproduct,
    check_counit_exact,
    check_inversion_words,
    check_tensor_relation,
    check_unitarity,
    closed_tower,
    gamma_cf,
    gamma_factor,
    inv_gamma_factor,
    linear_independence_ratio,
    t_word,
    tau_closed,
    tau_plan,
    tau_product,
    tau_series_parts,
    tau_tilde_closed,
    tau_tilde_plan,
    tau_tilde_series_parts,
)
from ellu2.rep import RepContext, apply_word, apply_word_scaled, relation_inventory
from ellu2.sampling import draw_z
from ellu2.series import vwp_sum
from ellu2.suites import RunConfig, _corep_tower, run_suite
from ellu2.theta import PoleError, Rec, ThetaContext, ThetaProduct, qarg
from ellu2.words import star
from per_draw import rep_attempt

corep_mod = importlib.import_module("ellu2.corep")
suites_mod = importlib.import_module("ellu2.suites")
theta_mod = importlib.import_module("ellu2.theta")


def draw_rc(ctx, rng):
    om = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
    lam0 = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
    z = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return RepContext(om, lam0, ctx), z


def spread(vals):
    scale = max(max(abs(v) for v in vals), 1e-300)
    return max(abs(a - b) for a in vals for b in vals) / scale


def test_matrix_element_tower(ctx, rng):
    rc, z = draw_rc(ctx, rng)
    lam0, om = rc.lam0, rc.omega
    for N in range(1, 4):
        for k in range(N + 1):
            for j in range(N + 1):
                tw = t_word(N, k, j, z, ctx)
                for m in range(3):
                    vals = [
                        apply_word(tw, m, rc).get(m + k - j, 0.0 + 0.0j),
                        tau_product(N, k, j, m, lam0, z, om, ctx),
                        tau_closed(N, k, j, m, lam0, z, om, ctx),
                    ]
                    assert spread(vals) <= 1e-10


def test_conjugate_tower(ctx, rng):
    rc, z = draw_rc(ctx, rng)
    for N in range(1, 3):
        for k in range(N + 1):
            for j in range(N + 1):
                sw = star(t_word(N, k, j, z, ctx), ctx)
                for m in range(3):
                    vals = [
                        apply_word(sw, m, rc).get(m + j - k, 0.0 + 0.0j),
                        tau_tilde_closed(N, k, j, m, rc.lam0, z, rc.omega, ctx),
                    ]
                    assert spread(vals) <= 1e-10


def _outcome(fn, *args):
    """fn(*args), or the type and message of the error it raises."""
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)


def _summed_size(plan, parts, N, k, j, m, rc, z):
    """The size of what the closed form sums: |value|, or |head| times the
    largest term of its series where that is larger."""
    closed = plan(N, k, j, m, rc.lam0, z, rc.omega, rc.ctx)
    size = abs(closed.value())
    if isinstance(closed, corep_mod._HeadTimesSeries):
        a1, numer, denom, c, n = parts(N, k, j, m, rc.lam0, z, rc.omega, rc.ctx)
        _, max_term, _ = vwp_sum(rc.ctx, a1, numer, denom, n, merged=(c, j))
        size = max(size, abs(closed.parts[0].value()) * max_term)
    return size


@pytest.mark.parametrize(
    "plan, closed, parts",
    [
        (tau_plan, tau_closed, tau_series_parts),
        (tau_tilde_plan, tau_tilde_closed, tau_tilde_series_parts),
    ],
)
def test_the_bound_tower_is_the_scalar_closed_form(plan, closed, parts):
    # 20 seeded draws at N = 1-6, every other one at a zero guard of 0.05, so
    # that some denominators fail.  The compiled closed side bound at a draw
    # agrees with the scalar closed form to 1e-12 of the size of what the
    # series sums, and the same items fail with the same error.  Relative to
    # the value alone the two differ by up to 1.4e-10 at other seeds, where
    # the series cancels and the word action differs from both by as much.
    rng = np.random.default_rng(4711)
    compared = failed = 0
    for d in range(20):
        rc = rep_attempt(RunConfig(), rng, zero_guard=0.05 if d % 2 else 1e-12)
        z = draw_z(rng)
        for N in range(1, 7):
            read = closed_tower(plan, N, rc, z)
            for k in range(N + 1):
                for j in range(N + 1):
                    for m in range(TOWER_M):
                        want = _outcome(closed, N, k, j, m, rc.lam0, z, rc.omega, rc.ctx)
                        got = _outcome(read, k, j, m)
                        if isinstance(want, tuple) or isinstance(got, tuple):
                            assert got == want, (d, N, k, j, m)
                            failed += 1
                            continue
                        compared += 1
                        if abs(got - want) > 1e-12 * abs(want):
                            size = _summed_size(plan, parts, N, k, j, m, rc, z)
                            assert abs(got - want) <= 1e-12 * size, (d, N, k, j, m)
    assert compared > 10_000 and failed > 100


def test_the_tower_raises_where_its_scalar_closed_side_raised():
    # A pinned draw whose first failure is tau_closed's at (k, j, m) =
    # (0, 2, 2): the bound tower raises the same error at the same read.
    rng = np.random.default_rng(4)
    rc = rep_attempt(RunConfig(), rng, zero_guard=0.01)
    z = draw_z(rng)
    where, expected = _numeric_tower_failure(rc, z, 2)
    assert where == ("closed", 0, 2, 2)
    reads = []
    bind = closed_tower

    def recorded(*args):
        read = bind(*args)

        def recording(*key):
            reads.append(key)
            return read(*key)

        return recording

    with pytest.raises(type(expected)) as raised:
        _corep_tower(rc, z, 2, recorded(tau_plan, 2, rc, z))
    assert str(raised.value) == str(expected)
    assert reads[-1] == where[1:]
    # Each read of a failed item raises a fresh copy of its error.
    read = closed_tower(tau_plan, 2, rc, z)
    errors = []
    for _ in range(2):
        with pytest.raises(type(expected)) as raised:
            read(0, 2, 2)
        errors.append(raised.value)
    assert errors[0] is not errors[1] and str(errors[1]) == str(expected)


def _conjugate_word(N, k, j, z, ctx):
    return star(t_word(N, k, j, z, ctx), ctx)


def _numeric_word(word, sign, N, k, j, m, rc, z):
    """The word side of (k, j, m) over numbers: the word built, then acted on
    e_m; its coefficient of e_(m + sign * (k - j)) and its largest path."""
    got, peak = apply_word_scaled(word(N, k, j, z, rc.ctx), m, rc)
    return got.get(m + sign * (k - j), 0.0 + 0.0j), peak


@pytest.mark.parametrize(
    "plan, word, sign", [(tau_plan, t_word, 1), (tau_tilde_plan, _conjugate_word, -1)]
)
def test_the_bound_word_side_is_the_numeric_action(plan, word, sign):
    # 20 seeded draws at N = 1-6, every other one at a zero guard of 0.05, so
    # that some guards fail.  The word side bound at a draw agrees with
    # ``apply_word`` to 1e-12 of its largest single path, and the same items
    # fail with the same error, building the word or acting with it.
    rng = np.random.default_rng(4711)
    compared = failed = 0
    for d in range(20):
        rc = rep_attempt(RunConfig(), rng, zero_guard=0.05 if d % 2 else 1e-12)
        z = draw_z(rng)
        for N in range(1, 7):
            read = closed_tower(plan, N, rc, z)
            for k in range(N + 1):
                for j in range(N + 1):
                    for m in range(TOWER_M):
                        want = _outcome(_numeric_word, word, sign, N, k, j, m, rc, z)
                        got = _outcome(read, k, j, m, "word")
                        if isinstance(got, tuple) or isinstance(want[1], str):
                            assert got == want, (d, N, k, j, m)
                            failed += 1
                            continue
                        compared += 1
                        value, peak = want
                        assert abs(got - value) <= 1e-12 * peak, (d, N, k, j, m)
    assert compared > 9_000 and failed > 1_000


def _numeric_tower_failure(rc, z, N):
    """Where a numeric tower raises first, and the error; its word step
    builds the word as well as applying it."""
    ctx = rc.ctx
    for k in range(N + 1):
        for j in range(N + 1):
            for m in range(TOWER_M):
                steps = [
                    ("word", lambda: apply_word(t_word(N, k, j, z, ctx), m, rc)),
                    ("product", lambda: tau_product(N, k, j, m, rc.lam0, z, rc.omega, ctx)),
                    ("closed", lambda: tau_closed(N, k, j, m, rc.lam0, z, rc.omega, ctx)),
                ]
                for side, step in steps:
                    try:
                        step()
                    except ArithmeticError as exc:
                        return (side, k, j, m), exc
    return None, None


@pytest.mark.parametrize(
    "seed, where, message",
    [
        # An elliptic binomial of t_word(3, 0, 2): raised building the word.
        (4, (0, 2, 0), "denominator theta factor below zero guard"),
        # A letter's coefficient, at an item past the first.
        (10, (2, 1, 0), "representation coefficient denominator below zero guard"),
    ],
    ids=["binomial", "coefficient"],
)
def test_the_tower_raises_where_its_numeric_word_side_raised(seed, where, message):
    # Pinned draws at N = 3, zero guard 0.01, whose first failure is on the
    # word side: the bound tower raises the same error at the same read.
    rng = np.random.default_rng(seed)
    rc = rep_attempt(RunConfig(), rng, zero_guard=0.01)
    z = draw_z(rng)
    first, expected = _numeric_tower_failure(rc, z, 3)
    assert first == ("word", *where) and str(expected) == message
    reads = []
    bind = closed_tower

    def recorded(*args):
        read = bind(*args)

        def recording(*key):
            reads.append(key)
            return read(*key)

        return recording

    with pytest.raises(type(expected)) as raised:
        _corep_tower(rc, z, 3, recorded(tau_plan, 3, rc, z))
    assert str(raised.value) == message
    assert reads[-1] == (*where, "word")


def _hex_outcome(read, *key):
    """``read(*key)`` as the ``float.hex`` of its parts, or the type and
    message of the error it raises."""
    got = _outcome(read, *key)
    return got if isinstance(got, tuple) else (got.real.hex(), got.imag.hex())


def test_the_shared_product_reader_is_the_single_call():
    # 20 seeded draws at N = 1-6, every other one at a zero guard of 0.05, so
    # that some guards fail.  Every (k, j, m) read from one reader per draw
    # and level, in tower order and again in reverse order on a new reader,
    # is the value of a fresh ``tau_product`` bit for bit, or the same error.
    rng = np.random.default_rng(4711)
    compared = failed = 0
    for d in range(20):
        rc = rep_attempt(RunConfig(), rng, zero_guard=0.05 if d % 2 else 1e-12)
        z = draw_z(rng)
        for N in range(1, 7):
            keys = [(k, j, m) for k in range(N + 1) for j in range(N + 1) for m in range(TOWER_M)]
            want = {
                key: _hex_outcome(tau_product, N, *key, rc.lam0, z, rc.omega, rc.ctx)
                for key in keys
            }
            for order in (keys, keys[::-1]):
                read = corep_mod.product_tower(N, rc.lam0, z, rc.omega, rc.ctx)
                for key in order:
                    assert _hex_outcome(read, *key) == want[key], (d, N, key)
            compared += sum(type(w[0]) is str for w in want.values())
            failed += sum(type(w[0]) is type for w in want.values())
    assert compared > 9_000 and failed > 1_000


@pytest.mark.parametrize(
    "seed, N, where, message",
    [
        # A letter's coefficient, at an item past the first.
        (10, 3, (2, 1, 0), "representation coefficient denominator below zero guard"),
        # An elliptic binomial of the prefactor of (0, 2).
        (4, 4, (0, 2, 2), "denominator theta factor below zero guard"),
    ],
    ids=["coefficient", "prefactor"],
)
def test_the_tower_raises_where_its_product_side_raised(monkeypatch, seed, N, where, message):
    # Pinned draws at zero guard 0.01.  No draw at N = 3-4 fails first on the
    # product side: each of its letter coefficients is also one of the word
    # side's at the same (k, j, m), which the tower reads first, and the
    # prefactors it alone evaluates (those the word omits as identically
    # one) fail only after an earlier item has.  So the compiled sides are
    # replaced by ones that never fail, and the tower raises the error of the
    # first ``tau_product`` that a loop of single calls finds, at its read.
    rng = np.random.default_rng(seed)
    rc = rep_attempt(RunConfig(), rng, zero_guard=0.01)
    z = draw_z(rng)
    assert _numeric_tower_failure(rc, z, N)[0][0] == "word"
    first = None
    for key in [(k, j, m) for k in range(N + 1) for j in range(N + 1) for m in range(TOWER_M)]:
        got = _outcome(tau_product, N, *key, rc.lam0, z, rc.omega, rc.ctx)
        if isinstance(got, tuple):
            first = key, got
            break
    assert first == (where, (PoleError, message))
    reads = []
    bind = suites_mod.product_tower

    def recorded(*args):
        read = bind(*args)

        def recording(*key):
            reads.append(key)
            return read(*key)

        return recording

    monkeypatch.setattr(suites_mod, "product_tower", recorded)
    with pytest.raises(PoleError) as raised:
        _corep_tower(rc, z, N, lambda *key: 1.0 + 0.0j)
    assert str(raised.value) == message
    assert reads[-1] == where


def test_level_one_is_the_generator_matrix(ctx, rng):
    rc, z = draw_rc(ctx, rng)
    from ellu2.rep import coef_a, coef_b, coef_c, coef_d

    m = 2
    table = {(0, 0): coef_d, (0, 1): coef_c, (1, 0): coef_b, (1, 1): coef_a}
    for (k, j), fn in table.items():
        got = tau_closed(1, k, j, m, rc.lam0, z, rc.omega, ctx)
        ref = fn(m, rc.lam0, z, rc.omega, ctx)
        assert abs(got - ref) <= 1e-12 * max(abs(ref), 1e-300)


def test_coproduct_two_leg_expansion(ctx, rng):
    rc, z = draw_rc(ctx, rng)
    rc2 = RepContext(draw_rc(ctx, rng)[0].omega, rc.lam0, ctx)
    worst = 0.0
    for N in range(1, 3):
        for m in range(2):
            for n in range(2):
                worst = max(worst, check_coproduct(N, z, m, n, rc, rc2))
    assert worst <= 1e-9


def test_tensor_action_preserves_relations(ctx, rng):
    rc, z = draw_rc(ctx, rng)
    rc2 = RepContext(draw_rc(ctx, rng)[0].omega, rc.lam0, ctx)
    z1, z2 = draw_rc(ctx, rng)[1], draw_rc(ctx, rng)[1]
    worst = 0.0
    for name, lhs, rhs in relation_inventory(z1, z2, ctx)[:4]:
        for m in range(2):
            for n in range(2):
                worst = max(worst, check_tensor_relation(lhs, rhs, m, n, rc, rc2))
    assert worst <= 1e-10


def test_counit_structure_exact(ctx, rng):
    _, z = draw_rc(ctx, rng)
    for N in range(1, 6):
        assert check_counit_exact(N, z, ctx) == []


def test_unitarity_small_levels(ctx, rng):
    rc, z = draw_rc(ctx, rng)
    worst = 0.0
    for N in range(1, 3):
        for k in range(N + 1):
            for j in range(N + 1):
                for m in range(3):
                    worst = max(worst, check_unitarity(N, k, j, z, m, rc))
    assert worst <= 1e-9


def test_inversion_sums(ctx, rng):
    rc, z = draw_rc(ctx, rng)
    worst = 0.0
    for N in range(1, 3):
        for k in range(N + 1):
            for l in range(N + 1):
                for m in range(3):
                    worst = max(worst, check_inversion_words(N, k, l, z, m, rc))
    assert worst <= 1e-8


def test_linear_independence_of_top_row(ctx, rng):
    rc, _ = draw_rc(ctx, rng)
    points = [
        (rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)), int(rng.integers(0, 3)))
        for _ in range(6)
    ]
    for N in range(1, 4):
        ratio = linear_independence_ratio(N, rc.lam0, rc.omega, ctx, points[: N + 3])
        assert ratio > 1e-8


def test_gamma_factor_inverse_pair(ctx, rng):
    x = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
    for N in range(1, 4):
        for k in range(N + 1):
            direct = gamma_factor(N, k, x, ctx)
            via_cf = gamma_cf(N, k, ctx)(x)
            assert abs(direct - via_cf) <= 1e-12 * max(abs(direct), 1e-300)
            product = direct * inv_gamma_factor(N, k, ctx)(x)
            assert abs(product - 1.0) <= 1e-11


class ZeroHead(ThetaProduct):
    """A theta product with an extra factor theta(1) = 0.  The heads of the
    closed forms carry no exact zero at valid indices, so one is added."""

    def __init__(self, *args):
        super().__init__(*args)
        self.theta(qarg(0))


def no_series(*args, **kwargs):
    raise AssertionError("series built behind an exactly zero head")


@pytest.mark.parametrize("closed", [tau_closed, tau_tilde_closed])
def test_zero_head_builds_no_series(monkeypatch, ctx, closed):
    looked_up = []
    lookup = theta_mod.theta_vec_cached

    def recorded(zs, ctx):
        looked_up.append(len(zs))
        return lookup(zs, ctx)

    monkeypatch.setattr(corep_mod, "ThetaProduct", ZeroHead)
    monkeypatch.setattr(corep_mod, "vwp_plan", no_series)
    monkeypatch.setattr(theta_mod, "theta_vec_cached", recorded)
    N, k, j, m = 3, 1, 2, 2
    assert closed(N, k, j, m, 0.4 + 0.2j, 1.3 - 0.2j, 0.3 + 0.1j, ctx) == 0
    # One lookup, of the head's denominator blocks only: for tau, the factor
    # theta(q^2)^(k - j) = 1 / theta(q^2), three blocks of length j and one
    # each of lengths k, N - k - j and N; for tau tilde, whose theta(q^2)^(j - k)
    # is a numerator, four of length j, two of length k and two of length
    # N - j - k.
    dens = {
        tau_closed: 1 + 3 * j + k + (N - k - j) + N,
        tau_tilde_closed: 4 * j + 2 * k + 2 * (N - j - k),
    }
    assert looked_up == [dens[closed]]


@pytest.mark.parametrize("item", ["tau", "tilde"])
def test_zero_head_template_builds_no_series(monkeypatch, item):
    # The same heads built over records, as the biorthogonality items: the
    # template lists no series argument, and binding it makes one kernel call
    # on the head's distinct denominator arguments.
    biorth_mod = importlib.import_module("ellu2.biorth")
    calls = []
    kernel = theta_mod.theta_columns

    def counted(zs, ctxs):
        calls.append(len(zs))
        return kernel(zs, ctxs)

    monkeypatch.setattr(corep_mod, "ThetaProduct", ZeroHead)
    monkeypatch.setattr(corep_mod, "vwp_plan", no_series)
    monkeypatch.setattr(theta_mod, "theta_columns", counted)
    monkeypatch.setattr(biorth_mod, "_SWEEPS", {})
    bp = biorth_mod.BiorthParams(3, 0.4 + 0.2j, 1, 0.3 + 0.1j, 1.3 - 0.2j, ThetaContext(0.12, 0.67))
    key = (item, 1, 2)
    assert biorth_mod._item(bp, key) == 0
    plan = biorth_mod._ITEMS[item](biorth_mod._symbols(bp), 1, 2)
    assert calls == [len({a for a in plan.args if type(a) is Rec})]
    assert calls[0] <= {"tau": 11, "tilde": 10}[item]


def test_independence_ratio_is_scale_free_and_keeps_its_teeth(ctx, rng):
    rc, _ = draw_rc(ctx, rng)
    points = [(draw_rc(ctx, rng)[1], m) for m in range(5)]
    mat = corep_mod._top_row_samples(2, rc.lam0, rc.omega, ctx, points)
    ratio = corep_mod._scaled_ratio(mat)
    assert mat.shape == (5, 3) and ratio > 1e-4
    assert ratio == linear_independence_ratio(2, rc.lam0, rc.omega, ctx, points)
    # Columns rescaled by many orders: the same ratio, where the raw matrix's
    # ratio moves with them.
    rescaled = mat * np.array([1e-12, 1.0, 1e9])
    assert abs(corep_mod._scaled_ratio(rescaled) - ratio) <= 1e-12 * ratio
    raw = [np.linalg.svd(m, compute_uv=False) for m in (mat, rescaled)]
    assert raw[1][-1] / raw[1][0] < 1e-8 * raw[0][-1] / raw[0][0]
    # A duplicated column, or one that combines the others, still fails.
    for column in (1e7 * mat[:, 0], 2.0 * mat[:, 0] - 3e5 * mat[:, 1]):
        dependent = mat.copy()
        dependent[:, 2] = column
        assert corep_mod._scaled_ratio(dependent) < 1e-12
    assert corep_mod._scaled_ratio(mat[:2]) == 0.0


@pytest.mark.parametrize("seed", [6, 14, 21])
def test_corep_suite_independence_gate(monkeypatch, seed):
    # These seeds failed the 1e-8 floor on the raw matrix's ratio.  The ratio
    # comes from the first two draws, so two samples see the same matrices.
    cfg = RunConfig(seed=seed, samples=2)
    rec = run_suite("corep", cfg)
    assert rec["pass"], rec["notes"]
    if seed == 6:
        # With one column a copy of another, the same draws fail.
        samples = corep_mod._top_row_samples

        def duplicated(*args):
            mat = samples(*args)
            mat[:, -1] = mat[:, 0]
            return mat

        monkeypatch.setattr(corep_mod, "_top_row_samples", duplicated)
        rec = run_suite("corep", cfg)
        assert not rec["pass"]
        notes = [note for note in rec["notes"] if "independence ratio" in note]
        assert len(notes) == 1 and "<= 1e-08" in notes[0]


@pytest.mark.parametrize("k, j", [(2, 3), (3, 2), (-1, 0), (0, -1), (3, 3)])
def test_an_element_outside_the_level_raises_as_t_word_does(k, j):
    # (k, j) must lie in 0 <= k, j <= N = 2: every side refuses it with
    # t_word's error, rather than return a value (tau_closed gave -0.8195
    # and tau_product 0j at (2, 3)).
    ctx = ThetaContext(0.12, 0.67)
    args = (0, 0.2, 1.1, 0.3, ctx)
    calls = [
        lambda: t_word(2, k, j, 1.1, ctx),
        lambda: tau_closed(2, k, j, *args),
        lambda: tau_tilde_closed(2, k, j, *args),
        lambda: tau_product(2, k, j, *args),
        lambda: corep_mod.product_tower(2, 0.2, 1.1, 0.3, ctx)(k, j, 0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^need 0 <= k, j <= N$"):
            call()


def test_a_product_reader_evaluates_each_elliptic_binomial_once(monkeypatch):
    # Over a whole N = 6 tower, one reader evaluates each elliptic binomial
    # (n, l) once, as it does each prefactor and letter coefficient.
    calls = []
    binomial = corep_mod.elliptic_binomial

    def counted(n, l, ctx):
        calls.append((n, l))
        return binomial(n, l, ctx)

    monkeypatch.setattr(corep_mod, "elliptic_binomial", counted)
    N, ctx = 6, ThetaContext(0.12, 0.67)
    read = corep_mod.product_tower(N, 0.2 + 0.1j, 1.1 - 0.3j, 0.3 + 0.2j, ctx)
    for k in range(N + 1):
        for j in range(N + 1):
            for m in range(TOWER_M):
                read(k, j, m)
    assert len(calls) == len(set(calls)) > 20
