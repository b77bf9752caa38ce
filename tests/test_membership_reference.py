"""Differential tests: instance sweeps that enumerate only the tuples the
whole dataset allows, against the membership test that selected and
indexed every tuple's summary (``reference_homs.membership_test``) and
against the brute oracles.  Single-tuple decisions (``tuple_membership``,
``ess_member``), which run no dataset-wide filter, are checked against the
same reference.  The
enumeration itself is checked against a brute per-tuple filter."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_homs
from nexus import homs
from nexus.characterize import build_can
from nexus.errors import ArityMismatch, NexusError, SelectorViolation, TupleOutsideDomain
from nexus.expansion import build_expansion_graph, ess_member, is_definable
from nexus.formulas import parse_formula
from nexus.homs import evaluate, instances, tuple_membership
from nexus.formulas import Formula
from nexus.kb import Atom, SelectiveKB, SelectorSpec, close_under_top, is_var
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
    want = reference_homs.membership_test(phi, kb)
    space, tuples = tuples_to_decide(kb, phi.arity)
    for tau in tuples:
        assert outcome(lambda t: tuple_membership(phi, kb, t), tau) == outcome(want, tau), tau
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
    parks; each tuple is decided in its own summary, and the errors are
    raised."""
    phi = parse_formula("x <- located(x,Florida)")
    assert tuple_membership(phi, parks_kb, ("Epcot",))
    assert not tuple_membership(phi, parks_kb, ("Gardaland",))
    with pytest.raises(TupleOutsideDomain):
        tuple_membership(phi, parks_kb, ("Atlantis",))
    with pytest.raises(ArityMismatch):
        tuple_membership(phi, parks_kb, ("Gardaland", "Italy"))


def test_a_repeated_head_variable_decides_before_the_domain():
    """As before the filter: a tuple that gives a repeated head variable
    two values is no instance, even with a constant outside the dataset."""
    kb = random_skb(RandomSkbConfig(seed=3))
    phi = parse_formula("x,x <- top(x)")
    assert tuple_membership(phi, kb, ("e1", "nowhere")) is False
    assert reference_homs.membership_test(phi, kb)(("e1", "nowhere")) is False


def test_a_selector_violation_surfaces_only_for_searched_tuples(parks_dataset):
    """A sweep asks a custom selector that breaks the summary contract only
    for the tuples the dataset allows: the first Florida park raises, and
    no constant before it in term order was asked."""
    asked = []

    def bad(dataset, tau):
        asked.append(tau)
        return [Atom("made", ("up",))]

    kb = SelectiveKB(parks_dataset, SelectorSpec.custom(bad))
    with pytest.raises(SelectorViolation):
        instances(parse_formula("x <- located(x,Florida)"), kb)
    assert asked == [("Discovery_Cove",)]
    assert sorted(parks_dataset.domain)[0] != "Discovery_Cove"


def test_a_sweep_checks_the_domain_only_of_searched_tuples(parks_dataset, monkeypatch):
    """The constants ``located(x,Florida)`` rules out are never
    enumerated, so only the two Florida parks reach ``check_domain``, once
    each, when their summaries are selected."""
    checked = []
    check_domain = SelectiveKB.check_domain

    def recording(self, tau):
        checked.append(tuple(tau))
        return check_domain(self, tau)

    monkeypatch.setattr(SelectiveKB, "check_domain", recording)
    kb = SelectiveKB(parks_dataset, SelectorSpec.sigma0())
    phi = parse_formula("x <- located(x,Florida)")
    assert instances(phi, kb) == {("Discovery_Cove",), ("Epcot",)}
    assert checked == [("Discovery_Cove",), ("Epcot",)]


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
    """The calls of ``homs._free_domains``, the dataset-wide domains,
    through every module attribute of the engine bound to it."""
    calls = []
    free_domains = homs._free_domains

    def counted(*args):
        calls.append(args)
        return free_domains(*args)

    for name, module in list(sys.modules.items()):
        if name == "nexus" or name.startswith("nexus."):
            for attr, value in list(vars(module).items()):
                if value is free_domains:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_single_decisions_skip_the_sweep_filter(parks_kb, parks_unit, free_domain_calls):
    """``ess_member``, ``tuple_membership`` and the expansion graph's
    classification decide one tuple at a time, so they compute no
    dataset-wide domains; a sweep computes them once.  So the graph
    computes them twice: for its ess(U) sweep and for the one that
    ``_check_invariants`` runs."""
    assert ess_member(parks_unit, parks_kb, ("Epcot",))
    assert not ess_member(parks_unit, parks_kb, ("Gardaland",))
    phi = parse_formula("x <- located(x,Florida)")
    assert tuple_membership(phi, parks_kb, ("Epcot",))
    assert not tuple_membership(phi, parks_kb, ("Gardaland",))
    assert free_domain_calls == []
    instances(phi, parks_kb)
    assert len(free_domain_calls) == 1
    free_domain_calls.clear()
    build_expansion_graph(parks_unit, parks_kb)
    assert len(free_domain_calls) == 2


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


def dataset_allows(phi: Formula, dataset, tau) -> bool:
    """The per-tuple test the sweeps once ran in front of every summary,
    by brute force: a repeated head variable takes one value, every atom
    holding a head variable unifies with some atom of the dataset, and
    each value is one that every atom holding its variable takes there,
    with the formula's constants fixed and its variables free."""
    pins: dict = {}
    for v, c in zip(phi.free_vars, tau):
        if pins.setdefault(v, c) != c:
            return False
    for a in phi.atoms:
        held = {t for t in a.args if is_var(t) and t in pins}
        if not held:
            continue
        matches = []
        for b in dataset.atoms:
            if b.pred != a.pred or len(b.args) != len(a.args):
                continue
            match: dict = {}
            if all(match.setdefault(t, c) == c if is_var(t) else t == c
                   for t, c in zip(a.args, b.args)):
                matches.append(match)
        if not matches or any(pins[v] not in {m[v] for m in matches} for v in held):
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    arity=st.integers(1, 2),
    repeat=st.booleans(),
    outside=st.booleans(),
    nullary=st.sampled_from([None, "z", "w"]),
)
def test_candidates_are_the_tuples_the_dataset_allows(seed, arity, repeat, outside, nullary):
    """``homs._candidates`` yields, in term order, exactly the tuples of
    the space that pass the brute per-tuple filter, for the formula as
    given and for the rows the sweeps fold it to.  Drawn over a signature
    with a nullary predicate, with head variables repeated, with a
    constant outside the dataset, and with a nullary atom the dataset
    may lack (``w`` never holds)."""
    kb = random_skb(RandomSkbConfig(
        max_constants=4, predicates=(("p", 2), ("q", 1), ("z", 0)), atom_density=0.3, seed=seed,
    ))
    phi = random_formula(kb, random.Random(seed), max_atoms=4, max_arity=arity)
    head, atoms = phi.free_vars, set(phi.atoms)
    if repeat:
        head = head + head[:1]
    if outside:
        atoms.add(Atom("p", (head[-1], "nowhere")))
    if nullary:
        atoms.add(Atom(nullary, ()))
    phi = Formula(head, atoms)
    dataset = kb.dataset
    space = itertools.product(sorted(dataset.domain), repeat=len(head))
    want = [tau for tau in space if dataset_allows(phi, dataset, tau)]
    terms, rows = homs._numbered(phi.atoms)
    for kept in (rows, homs._fold(terms, rows, head)):
        source = homs._Source(terms, kept, head)
        assert list(homs._candidates(source, head, dataset)) == want


BUDGET_SCRIPT = """
import sys
from nexus import homs
from nexus.errors import BudgetExceeded
from nexus.expansion import ess_set, is_definable
from nexus.kb import SelectiveKB, SelectorSpec, parse_facts, validate_unit

dataset = parse_facts(open(sys.argv[1]).read())
unit = validate_unit([("Discovery_Cove",), ("Leolandia",)], dataset)
meters = []


class Meter(homs._Budget):
    def __init__(self, cap):
        super().__init__(cap)
        meters.append(self)


homs._Budget = Meter
for sweep in (ess_set, is_definable):
    def run(budget):
        return sweep(unit, SelectiveKB(dataset, SelectorSpec.full()), budget)

    meters.clear()
    answer = run(None)
    most = max(meter.cap - meter.left for meter in meters)
    assert run(most) == answer
    try:
        run(most - 1)
    except BudgetExceeded:
        print(sweep.__name__, most)
"""


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_a_sweep_fits_the_budget_of_its_largest_search(hash_seed):
    """``budget`` caps each search of a sweep, not the sweep: ``ess_set``
    and ``is_definable`` of a parks unit under ``full`` finish with the
    node count M of their largest search and raise ``BudgetExceeded`` at
    M - 1, under either hash seed."""
    root = Path(__file__).resolve().parent.parent
    path = filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", BUDGET_SCRIPT, str(root / "data" / "parks.nxf")],
        env=env, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.split()
    assert lines[0::2] == ["ess_set", "is_definable"]
    assert all(int(most) > 0 for most in lines[1::2])


def test_one_variable_answers_share_the_datasets_tuples(parks_dataset):
    """An answer ``(c,)`` of a one-variable sweep is the argument tuple of
    the dataset's ``top(c)``, so answer sets that are kept hold no tuple of
    their own."""
    kb = SelectiveKB(parks_dataset, SelectorSpec.sigma0())
    top = {a.args[0]: a.args for a in parks_dataset.atoms if a.pred == "top"}
    answers = instances(parse_formula("x <- located(x,Florida)"), kb)
    assert answers == {("Discovery_Cove",), ("Epcot",)}
    assert all(tau is top[tau[0]] for tau in answers)
