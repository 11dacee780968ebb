"""The program names and parameters the benchmark's tracer binds to.

``perfbench/tracer.py`` wraps module-level functions of the package from
outside and reads some of their arguments by position (the batch of
``theta_vec``, the context of ``theta``, the order of ``vwp_sum``, the key of
``BiorthCache.get``).  A renamed function, a moved parameter, or a wrapper
that hides its function's signature would break ``--trace 1`` runs or make
them count the wrong thing, so the signatures are pinned here.  The
benchmark is only read, never changed.
"""

import ast
import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from ellu2 import suites
from ellu2.theta import ThetaContext

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

# (module, name, parameters) of every function the tracer binds.
TRACED = [
    ("theta", "theta_vec", ("zs", "ctx")),
    ("theta", "theta", ("z", "ctx")),
    ("series", "vwp_sum", ("ctx", "a1", "numer", "denom", "n", "merged")),
    ("series", "eval_omega_termwise", ("spec",)),
    ("rmatrix", "r_entries", ("lam", "z", "ctx")),
    ("rmatrix", "qdybe_residual", ("lam", "z1", "z2", "z3", "ctx")),
    ("words", "star", ("el", "ctx")),
    ("words", "antipode", ("el", "ctx")),
    ("words", "coproduct", ("el",)),
    ("words", "counit", ("el",)),
    ("corep", "t_word", ("N", "k", "j", "z", "ctx")),
    ("corep", "tau_closed", ("N", "k", "j", "m", "lam", "z", "omega", "ctx")),
    ("corep", "tau_product", ("N", "k", "j", "m", "lam", "z", "omega", "ctx")),
    ("corep", "check_coproduct", ("N", "z", "m", "n", "rc1", "rc2")),
    ("corep", "check_tensor_relation", ("lhs", "rhs", "m", "n", "rc1", "rc2")),
    ("corep", "check_unitarity", ("N", "k", "j", "z", "m", "rc")),
    ("corep", "check_inversion_words", ("N", "k", "l", "z", "m", "rc")),
    ("corep", "check_counit_exact", ("N", "z", "ctx")),
    ("corep", "linear_independence_ratio", ("N", "lam", "omega", "ctx", "points")),
    ("rep", "apply_word", ("el", "m", "rc")),
    ("rep", "apply_word_scaled", ("el", "m", "rc")),
    ("rep", "apply_word_states", ("el", "m", "rc")),
    ("rep", "coef_a", ("k", "lam", "z", "omega", "ctx")),
    ("rep", "coef_b", ("k", "lam", "z", "omega", "ctx")),
    ("rep", "coef_c", ("k", "lam", "z", "omega", "ctx")),
    ("rep", "coef_d", ("k", "lam", "z", "omega", "ctx")),
    ("biorth", "check_biorth", ("bp", "k", "l", "cache")),
    ("biorth", "check_dual_biorth", ("bp", "k", "l", "cache")),
    ("biorth", "weight_w1", ("bp", "i1", "i2", "merged")),
    ("biorth", "weight_w2", ("bp", "i1", "i2", "merged")),
    ("biorth", "norm_h", ("bp", "k")),
    ("biorth", "c_det_product", ("bp",)),
    ("sampling", "run_with_redraws", ("fn", "max_redraws")),
]


def _module(name):
    return importlib.import_module(f"ellu2.{name}")


def _params(fn):
    return tuple(inspect.signature(fn).parameters)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("mod,name,params", TRACED, ids=[f"{m}.{n}" for m, n, _ in TRACED])
def test_traced_function_keeps_its_parameters(mod, name, params):
    fn = getattr(_module(mod), name)
    assert callable(fn)
    assert _params(fn) == params


def test_traced_methods_keep_their_parameters():
    assert _params(_module("theta").ThetaProduct.value) == ("self",)
    cache_cls = _module("biorth").BiorthCache
    assert _params(cache_cls.get) == ("self", "key", "fn")
    # The tracer counts a hit by looking the key up in ``_store``.
    cache = cache_cls()
    assert cache.get(("k",), lambda: 1.5) == 1.5
    assert ("k",) in cache._store


def test_tracer_counts_coefficient_calls_and_restores_every_binding():
    rep, corep = _module("rep"), _module("corep")
    original = rep.coef_b
    assert corep.coef_b is original
    ctx = ThetaContext(0.13, 0.62)
    args = (2, 0.3 + 0.1j, 1.2 - 0.4j, 0.45 + 0.2j)
    tracer = _load_tracer().Tracer().install()
    try:
        assert rep.coef_b is not original and corep.coef_b is rep.coef_b
        first = rep.coef_b(*args, ctx)
        again = rep.coef_b(*args, ctx)
        metrics = tracer.metrics()
    finally:
        tracer.close()
    assert rep.coef_b is original and corep.coef_b is original
    assert first == again == original(*args, ThetaContext(0.13, 0.62))
    # Each call is counted, and each evaluates its four theta values afresh.
    assert metrics["rep.coef_calls"] == 2
    assert metrics["theta.scalar_calls"] == 8


def test_every_suite_and_table_draws_once_per_sample():
    # The battery checks drawn == registered: each requested sample is one
    # call of the ``run_with_redraws`` the suites module sees, which the
    # tracer's ``DrawCounter`` rebinds.  The biorth suites draw their count
    # at each of 15 (N, M) shapes.
    cfg = suites.RunConfig(seed=1, samples=2)
    runs = [
        (name, lambda name=name: suites.run_suite(name, cfg), 30 if "biorth" in name else 2)
        for name in suites.SUITE_NAMES
    ]
    runs += [
        ("corep table", lambda: suites.corep_table(cfg, 2, 3), 3),
        ("biorth table", lambda: suites.biorth_table(cfg, 2, 1, 3, False), 3),
        ("dual-biorth table", lambda: suites.biorth_table(cfg, 2, 0, 3, True), 3),
        ("bailey table", lambda: suites.bailey_table(cfg, None, 3), 3),
        ("qdybe table", lambda: suites.qdybe_table(cfg, 3), 3),
        ("relations table", lambda: suites.relations_table(cfg, None, None, 3), 3),
    ]
    original = suites.run_with_redraws
    draws = _load_tracer().DrawCounter().install()
    try:
        assert suites.run_with_redraws is not original
        drawn = {}
        for name, run, _ in runs:
            before = draws.samples
            run()
            drawn[name] = draws.samples - before
    finally:
        draws.close()
    assert suites.run_with_redraws is original
    assert drawn == {name: want for name, _, want in runs}


def test_the_package_gives_what_the_setup_code_calls_and_loads_every_module():
    # The setup code (``SETUP_CODE`` of perfbench/run.py, read as text)
    # calls ``ellu2.ThetaContext`` and ``ellu2.theta``.  And ``import ellu2``
    # must load ``suites``: the benchmark's ``DrawCounter.install`` rebinds
    # ``run_with_redraws`` only in the modules already loaded, so a suites
    # module loaded later would draw uncounted.
    (setup,) = [
        ast.literal_eval(node.value)
        for node in ast.parse((ROOT / "perfbench" / "run.py").read_text()).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SETUP_CODE"]
    ]
    code = setup + (
        "import sys\n"
        "assert 'ellu2.suites' in sys.modules\n"
        "assert ellu2.__all__ == ['ThetaContext', 'theta', '__version__']\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env={"PYTHONPATH": str(ROOT / "src")})
