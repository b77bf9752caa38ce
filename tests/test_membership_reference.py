"""Differential tests: instance sweeps that reject, before selecting any
summary, the tuples the whole dataset rules out, against the membership
test that selected and indexed every tuple's summary
(``reference_homs.membership_test``) and against the brute oracles.
Single-tuple decisions, which skip that filter, are checked against the
same reference."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_homs
from nexus import homs
from nexus.characterize import build_can
from nexus.errors import ArityMismatch, NexusError, SelectorViolation, TupleOutsideDomain
from nexus.expansion import ess_member, is_definable
from nexus.formulas import parse_formula
from nexus.homs import evaluate, instances, membership_test, tuple_membership
from nexus.kb import Atom, SelectiveKB, SelectorSpec, close_under_top
from nexus.oracles import (
    RandomSkbConfig, brute_evaluate, brute_instances, random_formula, random_skb, random_unit,
)

SELECTORS = ["sigma0", "full", "neighborhood:1", "component", "table"]


def make_kb(seed: int, selector: str) -> SelectiveKB:
    """A random KB; under ``table`` some tuples get a pinned summary, a
    random sub-dataset holding their constants, and the rest the whole
    dataset."""
    kb = random_skb(RandomSkbConfig(
        max_constants=4, predicates=(("isa", 2), ("p", 2), ("q", 1)), atom_density=0.25,
        selector="full" if selector == "table" else selector, seed=seed,
    ))
    if selector != "table":
        return kb
    rng = random.Random(seed)
    dataset = kb.dataset
    consts = sorted(dataset.domain)
    table = {}
    for tau in itertools.chain(((c,) for c in consts), itertools.product(consts, repeat=2)):
        if rng.random() < 0.5:
            picked = [a for a in dataset.atoms if a.pred != "top" and rng.random() < 0.5]
            table[tau] = close_under_top(picked + [Atom("top", (c,)) for c in tau])
    return SelectiveKB(dataset, SelectorSpec.from_table(table))


def outcome(test, tau):
    try:
        return test(tau)
    except NexusError as exc:
        return type(exc)


def tuples_to_decide(kb, arity):
    """Every tuple of the space, then one with a constant outside the
    domain and one of the wrong arity."""
    consts = sorted(kb.dataset.domain)
    space = list(itertools.product(consts, repeat=arity))
    return space, space + [("nowhere",) + space[0][1:], space[0] + (consts[0],)]


def assert_same_sweeps(phi, kb):
    """Every tuple decided alike, by the sweep and by single decisions,
    and the same instance set."""
    got, want = membership_test(phi, kb), reference_homs.membership_test(phi, kb)
    space, tuples = tuples_to_decide(kb, phi.arity)
    for tau in tuples:
        expected = outcome(want, tau)
        assert outcome(got, tau) == expected, tau
        assert outcome(lambda t: tuple_membership(phi, kb, t), tau) == expected, tau
    assert instances(phi, kb) == {tau for tau in space if want(tau)}


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    selector=st.sampled_from(SELECTORS),
    arity=st.integers(1, 2),
)
def test_sweeps_match_reference_and_brute(seed, selector, arity):
    kb = make_kb(seed, selector)
    phi = random_formula(kb, random.Random(seed), max_atoms=4, max_arity=arity)
    assert_same_sweeps(phi, kb)
    assert instances(phi, kb) == brute_instances(phi, kb)
    assert evaluate(phi, kb.dataset) == brute_evaluate(phi, kb.dataset)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    selector=st.sampled_from(SELECTORS),
    arity=st.integers(1, 2),
)
def test_sweeps_of_cans_match_reference(seed, selector, arity):
    """Canonical characterizations are too big for the brute oracles, so
    they are checked against the reference alone."""
    kb = make_kb(seed, selector)
    unit = random_unit(kb, random.Random(seed), max_arity=arity, max_size=2)
    assert_same_sweeps(build_can(unit, kb), kb)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    selector=st.sampled_from(SELECTORS),
    arity=st.integers(1, 2),
)
def test_ess_member_matches_reference(seed, selector, arity):
    """``ess_member`` goes straight to each tuple's summary: the same
    answers and errors as the reference on the renamed can."""
    kb = make_kb(seed, selector)
    unit = random_unit(kb, random.Random(seed), max_arity=arity, max_size=2)
    want = reference_homs.membership_test(build_can(unit, kb), kb)
    for tau in tuples_to_decide(kb, unit.arity)[1]:
        assert outcome(lambda t: ess_member(unit, kb, t), tau) == outcome(want, tau), tau


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    selector=st.sampled_from(SELECTORS),
    arity=st.integers(1, 2),
)
def test_definability_matches_reference(seed, selector, arity):
    kb = make_kb(seed, selector)
    unit = random_unit(kb, random.Random(seed), max_arity=arity, max_size=2)
    can = build_can(unit, kb)
    member = reference_homs.membership_test(can, kb)
    space = itertools.product(sorted(kb.dataset.domain), repeat=unit.arity)
    want = not any(member(tau) for tau in space if tau not in unit.tuples)
    assert is_definable(unit, kb) == want


def test_filtered_tuples_keep_their_errors(parks_kb):
    """``located(x,Florida)`` rules out every constant but the Florida
    parks, so these tuples are all rejected before any summary; the
    errors are still raised."""
    phi = parse_formula("x <- located(x,Florida)")
    is_member = membership_test(phi, parks_kb)
    assert is_member(("Epcot",)) and not is_member(("Gardaland",))
    with pytest.raises(TupleOutsideDomain):
        is_member(("Atlantis",))
    with pytest.raises(ArityMismatch):
        is_member(("Gardaland", "Italy"))
    with pytest.raises(TupleOutsideDomain):
        tuple_membership(phi, parks_kb, ("Atlantis",))


def test_a_repeated_head_variable_decides_before_the_domain():
    """As before the filter: a tuple that gives a repeated head variable
    two values is no instance, even with a constant outside the dataset."""
    kb = random_skb(RandomSkbConfig(seed=3))
    phi = parse_formula("x,x <- top(x)")
    assert membership_test(phi, kb)(("e1", "nowhere")) is False
    assert reference_homs.membership_test(phi, kb)(("e1", "nowhere")) is False


def test_a_selector_violation_surfaces_only_for_searched_tuples(parks_dataset):
    """A custom selector that breaks the summary contract is only called
    for tuples the dataset does not rule out."""
    asked = []

    def bad(dataset, tau):
        asked.append(tau)
        return [Atom("made", ("up",))]

    kb = SelectiveKB(parks_dataset, SelectorSpec.custom(bad))
    is_member = membership_test(parse_formula("x <- located(x,Florida)"), kb)
    assert is_member(("Gardaland",)) is False
    assert asked == []
    with pytest.raises(SelectorViolation):
        is_member(("Epcot",))
    assert asked == [("Epcot",)]


def test_the_dataset_index_is_built_once(parks_dataset):
    """Every sweep over one dataset shares its index; a summary gets none."""
    kb = SelectiveKB(parks_dataset, SelectorSpec.sigma0())
    instances(parse_formula("x <- located(x,Florida)"), kb)
    index = parks_dataset.hom_index
    assert index is not None
    instances(parse_formula("x <- isa(x,ap)"), kb)
    evaluate(parse_formula("x <- isa(x,ap)"), parks_dataset)
    assert parks_dataset.hom_index is index
    assert all(summary.hom_index is None for summary in kb._cache.values())



@pytest.fixture()
def free_domain_calls(monkeypatch):
    calls = []
    free_domains = homs._free_domains

    def counted(*args):
        calls.append(args)
        return free_domains(*args)

    monkeypatch.setattr(homs, "_free_domains", counted)
    return calls


def test_single_decisions_skip_the_sweep_filter(parks_kb, parks_unit, free_domain_calls):
    """``ess_member`` and ``tuple_membership`` decide one tuple, so they
    compute no dataset-wide domains; a sweep computes them once."""
    assert ess_member(parks_unit, parks_kb, ("Epcot",))
    assert not ess_member(parks_unit, parks_kb, ("Gardaland",))
    phi = parse_formula("x <- located(x,Florida)")
    assert tuple_membership(phi, parks_kb, ("Epcot",))
    assert not tuple_membership(phi, parks_kb, ("Gardaland",))
    assert free_domain_calls == []
    membership_test(phi, parks_kb)
    assert len(free_domain_calls) == 1


def test_a_single_decision_consults_the_selector(parks_dataset):
    """With no filter in front of it, a custom selector is asked for the
    one tuple, even one that the dataset rules out."""
    asked = []

    def bad(dataset, tau):
        asked.append(tau)
        return [Atom("made", ("up",))]

    kb = SelectiveKB(parks_dataset, SelectorSpec.custom(bad))
    with pytest.raises(SelectorViolation):
        tuple_membership(parse_formula("x <- located(x,Florida)"), kb, ("Gardaland",))
    assert asked == [("Gardaland",)]
