"""The corep tables bind each level's tower once per batch of draws.

``suites.corep_table`` draws ahead (``suites._DrawAhead``) and binds the
tower at every draw of a batch in one ``corep.closed_towers`` call.  Its
report, its redraws and each attempt's outcome, the first error of a draw
included, must be those of binding one draw at a time (a batch of one).
"""

import importlib
from dataclasses import dataclass

import pytest

from ellu2.suites import RunConfig, canonical_json, corep_table

suites_mod = importlib.import_module("ellu2.suites")
theta_mod = importlib.import_module("ellu2.theta")


@dataclass(frozen=True)
class WideGuard(RunConfig):
    """A run whose draws take a zero guard of 0.05, so that some attempts
    fail a guard and are redrawn."""

    def draws(self, rng, k, kinds, zero_guard: float = 1e-12):
        return super().draws(rng, k, kinds, 0.05)


def _hex(value) -> tuple:
    return value.hex() if isinstance(value, float) else repr(value)


def attempts(monkeypatch, cfg, n_level: int, samples: int, ahead: int) -> tuple:
    """(report bytes, outcomes): ``corep_table`` with batches of at most
    ``ahead`` draws, and for each attempt in order its draw and the bits
    of its tower residuals, or the type and message of its error."""
    monkeypatch.setattr(suites_mod, "AHEAD", ahead)
    tower = suites_mod._corep_tower
    outcomes = []

    def _draw(rc, z):
        return (rc.ctx.p.hex(), rc.ctx.q.hex(), repr(rc.lam0), repr(rc.omega), repr(z))

    def recorded(rc, z, n, *bound):
        try:
            got = tower(rc, z, n, *bound)
        except ArithmeticError as exc:
            outcomes.append((_draw(rc, z), type(exc).__name__, str(exc)))
            raise
        outcomes.append((_draw(rc, z), sorted((key, _hex(v)) for key, v in got.items())))
        return got

    monkeypatch.setattr(suites_mod, "_corep_tower", recorded)
    report = canonical_json(corep_table(cfg, n_level, samples))
    monkeypatch.setattr(suites_mod, "_corep_tower", tower)
    return report, outcomes


@pytest.mark.parametrize("n_level", [2, 3])
def test_batched_binds_equal_binds_one_at_a_time(monkeypatch, n_level):
    # At a zero guard of 0.05 some attempts fail and are redrawn, and with
    # two redraws at most some samples are rejected.
    cfg = WideGuard(seed=1, max_redraws=2)
    batched = attempts(monkeypatch, cfg, n_level, 6, suites_mod.AHEAD)
    assert batched == attempts(monkeypatch, cfg, n_level, 6, 1)
    failed = [o for o in batched[1] if len(o) == 3]
    assert failed and len(failed) < len(batched[1])
    assert '"rejected":0' not in batched[0]


def test_a_draw_whose_theta_values_raise_fails_in_its_batch_bind(monkeypatch):
    # ``theta_columns`` fails the second draw of the first batch (here
    # forced): the batch is bound once, that draw fails with the error of
    # its first read and is redrawn in the next batch, and every other
    # draw is bound as it is alone.
    cfg = RunConfig(seed=26)
    _, outcomes = attempts(monkeypatch, cfg, 2, 4, suites_mod.AHEAD)
    broken_p = float.fromhex(outcomes[1][0][0])
    theta_columns = theta_mod.theta_columns
    binds = []

    def failing(zs, ctxs):
        values, failed = theta_columns(zs, ctxs)
        at = [k for k, ctx in enumerate(ctxs) if ctx.p == broken_p]
        values[:, at] = 1.0
        return values, sorted({*failed, *at})

    def counted(template, draws):
        binds.append(len(draws))
        return bind_all(template, draws)

    bind_all = theta_mod.Template.bind_all
    monkeypatch.setattr(theta_mod, "theta_columns", failing)
    monkeypatch.setattr(theta_mod.Template, "bind_all", counted)
    batched = attempts(monkeypatch, cfg, 2, 4, suites_mod.AHEAD)
    assert binds == [4, 1]
    assert batched == attempts(monkeypatch, cfg, 2, 4, 1)
    (failed,) = [o for o in batched[1] if len(o) == 3]
    assert failed == (outcomes[1][0], "PoleError", theta_mod.THETA_RANGE)
    assert batched[1][0] == outcomes[0] and len(batched[1]) == len(outcomes) + 1
