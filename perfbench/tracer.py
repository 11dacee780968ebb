"""Counting and span tracing of the program's public functions, from outside.

Nothing here edits the program.  ``Tracer`` replaces every module-level
binding of a traced function in the loaded ``ellu2`` modules (the defining
module and each ``from .x import f`` copy) by a wrapper, and puts the
originals back on ``close``.  Each wrapper records a span; a span's self time
is its duration minus the time covered by the traced spans it encloses, and
the tracer's own bookkeeping is kept out of the enclosing span.

``DrawCounter`` is the one wrapper that stays on in untraced runs: it wraps
the closures the suites hand to ``sampling.run_with_redraws`` to count draw
attempts and classify each redraw by its ``PoleError`` cause.
"""

from __future__ import annotations

import importlib
import sys
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

PACKAGE = "ellu2"
BATCH_BUCKETS = ((1, "b1"), (8, "b8"), (64, "b64"), (None, "b1024"))
OVERFLOW = "exceeds double precision range"


def module(name: str):
    """A submodule of the package; ``import ellu2.theta`` would give the function."""
    return importlib.import_module(f"{PACKAGE}.{name}")


def _loaded_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def batch_bucket(n: int) -> str:
    for limit, label in BATCH_BUCKETS:
        if limit is None or n <= limit:
            return label
    raise AssertionError("unreachable")


def redraw_cause(exc: BaseException) -> str:
    text = str(exc)
    if OVERFLOW in text:
        return "overflow"
    if "condition" in text:
        return "condition"
    return "guard"


class DrawCounter:
    """Sample draws, attempts and redraws seen through ``run_with_redraws``."""

    def __init__(self, on_draw=None) -> None:
        self.on_draw = on_draw
        self.samples = 0
        self.attempts = 0
        self.rejected = 0
        self.redraws: Counter = Counter()
        self._restore: list = []

    def install(self) -> "DrawCounter":
        pole_error = module("theta").PoleError
        sampling = module("sampling")
        original = sampling.run_with_redraws

        def run_with_redraws(fn, max_redraws=50):
            self.samples += 1
            if self.on_draw:
                self.on_draw()

            def attempt():
                self.attempts += 1
                try:
                    return fn()
                except (pole_error, ZeroDivisionError) as exc:
                    self.redraws[redraw_cause(exc)] += 1
                    raise

            value, rejected = original(attempt, max_redraws)
            self.rejected += int(rejected)
            return value, rejected

        for mod in _loaded_modules():
            if getattr(mod, "run_with_redraws", None) is original:
                self._restore.append((mod, original))
                mod.run_with_redraws = run_with_redraws
        return self

    def close(self) -> None:
        for mod, original in self._restore:
            mod.run_with_redraws = original
        self._restore.clear()

    def metrics(self) -> dict[str, float]:
        return {
            "sampling.attempts": self.attempts,
            "sampling.redraws.overflow": self.redraws["overflow"],
            "sampling.redraws.condition": self.redraws["condition"],
            "sampling.redraws.guard": self.redraws["guard"],
            "sampling.rejected": self.rejected,
        }


class Tracer:
    """Spans and counts at the public functions of each layer."""

    def __init__(self) -> None:
        self.count: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.active = True
        self._stack: list[float] = []
        self._restore: list = []
        self._seen = {
            "vec": weakref.WeakKeyDictionary(),
            "scalar": weakref.WeakKeyDictionary(),
        }

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, key, before=None, after=None, span=True):
        """Wrapper recording a span, or only counting calls when ``span`` is false.

        ``before(args, kwargs)`` may return a key that overrides ``key``;
        ``after(result)`` sees the return value.  A call that raises the
        overflow ``PoleError`` is counted under ``key + ".overflow"``.  A
        count-only call leaves its time in the enclosing span's self time.
        """
        stack, busy, count, clock = self._stack, self.busy, self.count, time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t_in = clock()
            k = (before(args, kwargs) if before else None) or key
            count[k] += 1
            if not span:
                if stack:
                    stack[-1] += clock() - t_in
                result = fn(*args, **kwargs)
                if after:
                    after(result)
                return result
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if after:
                    after(result)
                return result
            except ArithmeticError as exc:
                if OVERFLOW in str(exc):
                    count[key + ".overflow"] += 1
                raise
            finally:
                busy[k] += clock() - t0 - stack.pop()
                if stack:
                    stack[-1] += clock() - t_in

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, name, wrapper) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _bind(self, fn, wrapper) -> None:
        """Replace every module-level binding of ``fn`` in the package."""
        for mod in _loaded_modules():
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, name, wrapper)

    def trace(self, mod_name: str, fn_name: str, key: str, **kw) -> None:
        fn = getattr(module(mod_name), fn_name)
        self._bind(fn, self._wrap(fn, key, **kw))

    def install(self) -> "Tracer":
        theta_mod = module("theta")
        biorth_mod = module("biorth")

        def seen(kind, ctx, values):
            store = self._seen[kind].setdefault(ctx, set())
            before = len(store)
            store.update(values)
            self.count[f"theta.{kind}_repeats"] += len(values) - (len(store) - before)

        def vec_before(args, kwargs):
            values = np.asarray(args[0], dtype=complex).ravel().tolist()
            bucket = batch_bucket(len(values))
            self.count["theta.vec_args"] += len(values)
            self.count[f"theta.vec_args.{bucket}"] += len(values)
            seen("vec", _ctx(args, kwargs), values)
            return f"theta.vec.{bucket}"

        self.trace("theta", "theta_vec", "theta.vec", before=vec_before)
        self.trace(
            "theta", "theta", "theta.scalar",
            before=lambda args, kwargs: seen("scalar", _ctx(args, kwargs), [args[0]]),
        )
        value = theta_mod.ThetaProduct.value
        self._patch(theta_mod.ThetaProduct, "value", self._wrap(value, "theta.product"))

        def vwp_before(args, kwargs):
            n = args[4] if len(args) > 4 else kwargs["n"]
            self.count["series.vwp_terms"] += int(n) + 1

        self.trace("series", "vwp_sum", "series.vwp", before=vwp_before)
        self.trace("series", "eval_omega_termwise", "series.termwise")

        self.trace("rmatrix", "r_entries", "rmatrix.r_entries", span=False)
        self.trace("rmatrix", "qdybe_residual", "rmatrix.qdybe")

        for name in ("star", "antipode", "coproduct", "counit"):
            self.trace("words", name, "words.build")
        self.trace("corep", "t_word", "words.build")

        for name in ("apply_word", "apply_word_scaled"):
            self.trace("rep", name, "rep.apply_word_outer")

        def paths(result):
            self.count["rep.paths"] += len(result)

        self.trace("rep", "apply_word_states", "rep.apply_word", after=paths)
        for name in ("coef_a", "coef_b", "coef_c", "coef_d"):
            self.trace("rep", name, "rep.coef", span=False)

        self.trace("corep", "tau_closed", "corep.tau_closed")
        self.trace("corep", "tau_product", "corep.tau_product")
        for name in (
            "check_coproduct",
            "check_tensor_relation",
            "check_unitarity",
            "check_inversion_words",
            "check_counit_exact",
            "linear_independence_ratio",
        ):
            self.trace("corep", name, "corep.checks")

        for name in ("check_biorth", "check_dual_biorth"):
            self.trace("biorth", name, "biorth.sweep")
        for name in ("weight_w1", "weight_w2", "norm_h", "c_det_product"):
            self.trace("biorth", name, "biorth.weights")

        get = biorth_mod.BiorthCache.get

        def cache_before(args, kwargs):
            if args[1] in args[0]._store:
                self.count["biorth.cache_hits"] += 1

        wrapped = self._wrap(get, "biorth.cache", before=cache_before, span=False)
        self._patch(biorth_mod.BiorthCache, "get", wrapped)
        return self

    def close(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        self._seen = {kind: weakref.WeakKeyDictionary() for kind in self._seen}

    @contextmanager
    def paused(self):
        """Let calls through uncounted, as while the benchmark makes inputs."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        c, b = self.count, self.busy
        buckets = [label for _, label in BATCH_BUCKETS]
        vec_calls = sum(c[f"theta.vec.{x}"] for x in buckets)
        out = {
            "theta.vec_calls": vec_calls,
            "theta.vec_args": c["theta.vec_args"],
            "theta.vec_self_s": sum(b[f"theta.vec.{x}"] for x in buckets),
            "theta.vec_repeat_ratio": _ratio(c["theta.vec_repeats"], c["theta.vec_args"]),
            "theta.scalar_calls": c["theta.scalar"],
            "theta.scalar_self_s": b["theta.scalar"],
            "theta.scalar_repeat_ratio": _ratio(c["theta.scalar_repeats"], c["theta.scalar"]),
            "theta.product_values": c["theta.product"],
            "theta.product_self_s": b["theta.product"],
        }
        for x in buckets:
            args = c[f"theta.vec_args.{x}"]
            out[f"theta.vec_ns_per_arg.{x}"] = 1e9 * b[f"theta.vec.{x}"] / args if args else 0.0
        out.update(
            {
                "series.vwp_calls": c["series.vwp"],
                "series.vwp_terms": c["series.vwp_terms"],
                "series.vwp_self_s": b["series.vwp"],
                "series.termwise_self_s": b["series.termwise"],
                "series.overflow_poles": c["series.vwp.overflow"],
                "rmatrix.r_entries_calls": c["rmatrix.r_entries"],
                "rmatrix.qdybe_self_s": b["rmatrix.qdybe"],
                "words.elements_built": c["words.build"],
                "words.build_self_s": b["words.build"],
                "rep.apply_word_calls": c["rep.apply_word"],
                "rep.paths": c["rep.paths"],
                "rep.coef_calls": c["rep.coef"],
                "rep.apply_word_self_s": b["rep.apply_word"] + b["rep.apply_word_outer"],
                "corep.tau_closed_self_s": b["corep.tau_closed"],
                "corep.tau_product_self_s": b["corep.tau_product"],
                "corep.checks_self_s": b["corep.checks"],
                "biorth.sweep_self_s": b["biorth.sweep"],
                "biorth.weights_self_s": b["biorth.weights"],
                "biorth.cache_hit_ratio": _ratio(c["biorth.cache_hits"], c["biorth.cache"]),
            }
        )
        return out


def _ctx(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["ctx"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
