"""The counting hooks of ``tests/engine_hooks.py``: each replaces an engine
function at every binding of it, counts what the tests count, and puts
every binding back."""

import sys

import pytest

import engine_hooks
import nexus.cli  # noqa: F401  (loaded, so its bindings are in the snapshots)
from nexus import homs, oracles
from nexus.characterize import build_core_char
from nexus.errors import BudgetExceeded
from nexus.expansion import ess_member
from nexus.kb import SelectiveKB


def _bindings():
    """Every attribute of the loaded engine modules and of their classes."""
    owners = [module for name, module in sys.modules.items()
              if name == "nexus" or name.startswith("nexus.")]
    owners += [value for module in list(owners) for value in vars(module).values()
               if isinstance(value, type) and value.__module__.startswith("nexus")]
    return {(owner, name): value for owner in owners for name, value in vars(owner).items()}


def _changed(before, after):
    assert after.keys() == before.keys()
    return [key for key, value in before.items() if after[key] is not value]


HOOKS = {
    "replaced": lambda: engine_hooks.replaced(homs._run, lambda run: lambda *args: run(*args)),
    "calls": lambda: engine_hooks.calls(homs._membership_test),
    "calls-method": lambda: engine_hooks.calls(SelectiveKB.summary),
    "searches": engine_hooks.searches,
}


@pytest.mark.parametrize("hook", HOOKS.values(), ids=HOOKS.keys())
def test_every_binding_is_restored_on_exit_and_on_an_exception(hook):
    before = _bindings()
    with hook():
        assert _changed(before, _bindings())
    assert not _changed(before, _bindings())
    with pytest.raises(KeyError, match="inside"):
        with hook():
            raise KeyError("inside")
    assert not _changed(before, _bindings())


def test_a_function_with_no_engine_binding_is_refused():
    before = _bindings()
    with pytest.raises(LookupError):
        with engine_hooks.calls(lambda: None):
            pass
    assert not _changed(before, _bindings())


def _c5_membership(budget):
    """``ess_member`` on the 3-colorability reduction of a 5-cycle: one
    search of 35 nodes."""
    vertices = [f"v{i}" for i in range(5)]
    edges = [(f"v{i}", f"v{(i + 1) % 5}") for i in range(5)]
    kb, unit, tau = oracles.gen_3col_instance(vertices, edges, 1)
    return ess_member(unit, kb, tau, budget)


def test_a_call_through_a_binding_outside_homs_is_counted(parks_kb, parks_unit):
    """``ess_member`` calls ``_membership_test`` through the binding that
    ``expansion`` imported."""
    with engine_hooks.calls(homs._membership_test) as made:
        assert ess_member(parks_unit, parks_kb, ("Epcot",))
    assert len(made) == 1 and made[0][2] is parks_kb


def test_the_call_past_the_limit_fails(parks_kb, parks_unit):
    with pytest.raises(engine_hooks.LimitExceeded,
                       match="^more than 1 calls of _membership_test$"):
        with engine_hooks.calls(homs._membership_test, limit=1) as made:
            assert ess_member(parks_unit, parks_kb, ("Epcot",))
            ess_member(parks_unit, parks_kb, ("Gardaland",))
    assert len(made) == 2
    with pytest.raises(engine_hooks.LimitExceeded, match="^more than 0 kernel searches$"):
        with engine_hooks.searches(limit=0):
            _c5_membership(None)


def _cycles_core(budget):
    """The core of the 2*3*5 prime cycles: 53 searches of 729 nodes."""
    kb, unit = oracles.gen_prime_cycles(3)
    return build_core_char(unit, kb, budget)


@pytest.mark.parametrize("operation, budget, searches, nodes", [
    (_c5_membership, None, 1, 35),
    (_c5_membership, 20, 1, 21),  # runs out at its 21st node
    (_cycles_core, None, 53, 729),
])
def test_searches_count_the_nodes_that_spend_counts(operation, budget, searches, nodes):
    """Each node of a search calls its budget's ``spend`` once, the one
    that runs out too."""
    spend = homs._Budget.__dict__["spend"]
    with engine_hooks.searches() as meters, engine_hooks.calls(spend) as spent:
        try:
            operation(budget)
        except BudgetExceeded:
            assert budget is not None
    assert len(meters) == searches
    assert sum(m.cap - m.left for m in meters) == len(spent) == nodes
