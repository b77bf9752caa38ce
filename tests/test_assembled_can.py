"""Decisions search the canonical characterization as assembled, its
variables named after their product constants; only printed formulas are
canonically renamed.  A differential test requires every decision to answer
as the kernel does on ``build_can``'s renamed can, and a regression test
counts the renamings each operation pays for."""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

import nexus
from nexus.characterize import build_can
from nexus.errors import NexusError
from nexus.expansion import (
    INC, PREC, PREC_INV, SIM, build_expansion_graph, compare, ess_member, ess_set,
    is_definable,
)
from nexus.formulas import canonical_rename
from nexus.homs import instances, tuple_membership
from nexus.kb import duplicate_columns, validate_unit
from test_membership_reference import SELECTORS, make_kb


def outcome(decide, *args):
    try:
        return decide(*args)
    except NexusError as exc:
        return type(exc)


def renamed_member(unit, kb, tau):
    """tau in ess(unit), decided on the renamed can."""
    return tuple_membership(build_can(unit, kb), kb, tuple(tau))


def renamed_compare(kb, unit, tau, tau2):
    g1 = renamed_member(validate_unit(unit.tuples | {tau2}, kb.dataset), kb, tau)
    g2 = renamed_member(validate_unit(unit.tuples | {tau}, kb.dataset), kb, tau2)
    return {(True, True): SIM, (True, False): PREC, (False, True): PREC_INV,
            (False, False): INC}[g1, g2]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    selector=st.sampled_from(SELECTORS),
    arity=st.integers(1, 2),
    data=st.data(),
)
def test_decisions_answer_as_on_the_renamed_can(seed, selector, arity, data):
    kb = make_kb(seed, selector)
    consts = sorted(kb.dataset.domain)
    space = list(itertools.product(consts, repeat=arity))
    tuples = data.draw(st.lists(st.sampled_from(space), min_size=1, max_size=3, unique=True))
    assume(duplicate_columns(tuples, arity) is None)  # units must be proper
    unit = validate_unit(tuples, kb.dataset)

    want = instances(build_can(unit, kb), kb)
    assert ess_set(unit, kb) == want
    assert is_definable(unit, kb) == (want == unit.tuples)
    for tau in space:
        assert ess_member(unit, kb, tau) == (tau in want), tau

    outside = [tau for tau in space if tau not in unit.tuples]
    for _ in range(3):
        if len(outside) < 2:
            break
        tau, tau2 = data.draw(st.lists(st.sampled_from(outside), min_size=2, max_size=2,
                                       unique=True))
        assert outcome(compare, kb, unit, tau, tau2) == outcome(
            renamed_compare, kb, unit, tau, tau2), (tau, tau2)


@pytest.fixture
def rename_calls(monkeypatch):
    """Count the renamings made through every engine module's binding of
    ``canonical_rename``."""
    calls = []

    def counting(phi):
        calls.append(phi)
        return canonical_rename(phi)

    for module in (nexus.characterize, nexus.homs, nexus.expansion):
        for name, value in list(vars(module).items()):
            if value is canonical_rename:
                monkeypatch.setattr(module, name, counting)
    return calls


def test_decisions_rename_nothing(parks_kb, parks_unit, rename_calls):
    assert not ess_member(parks_unit, parks_kb, ("Gardaland",))
    assert ess_set(parks_unit, parks_kb) == parks_unit.tuples
    assert is_definable(parks_unit, parks_kb)
    assert compare(parks_kb, parks_unit, ("Gardaland",), ("Leolandia",)) == PREC
    assert rename_calls == []


def test_graph_renames_each_representative_and_its_core(
    parks_kb, parks_unit, rename_calls
):
    graph = build_expansion_graph(parks_unit, parks_kb)
    assert len(rename_calls) == 2 * len(graph.nodes)
