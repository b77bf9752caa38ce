"""Differential tests: the indexed, iterative kernel against the recursive,
scan-based kernel it replaced (``reference_homs``).  Both must return the
same first solution or None, and run out of budget at the same node."""

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from nexus.errors import BudgetExceeded
from nexus.homs import _Budget, _search, _Target
from nexus.kb import Atom, Var

import reference_homs

SOURCE_VARS = [Var(n) for n in ("a", "b", "c", "d", "e", "f")]
CONSTS = ["c0", "c1", "c2", "c3"]
# ``p`` also appears at arity 1, as formula targets may have it
PREDS = [("p", 2), ("q", 1), ("r", 2), ("p", 1), ("t", 3), ("u", 3)]
# formula targets hold variables too; ``a`` is shared with the source
TARGET_VARS = [Var("a"), Var("z")]


@st.composite
def atoms_over(draw, preds, terms, min_size, max_size):
    out = []
    for _ in range(draw(st.integers(min_size, max_size))):
        pred, arity = draw(st.sampled_from(preds))
        out.append(Atom(pred, tuple(draw(st.sampled_from(terms)) for _ in range(arity))))
    return out


@st.composite
def problems(draw):
    # either the mixed signature, or one ternary predicate whose atoms
    # often have two fixed arguments and one open
    preds = draw(st.sampled_from([PREDS, PREDS[4:5]]))
    source = draw(atoms_over(preds, SOURCE_VARS + CONSTS[:2], 1, 7))
    target_terms = CONSTS + (TARGET_VARS if draw(st.booleans()) else [])
    target = draw(atoms_over(preds, target_terms, 0, 20))
    pins = {}
    for v in draw(st.lists(st.sampled_from(SOURCE_VARS + [Var("g")]), max_size=3)):
        pins[v] = draw(st.sampled_from(target_terms))
    if draw(st.booleans()):
        c = draw(st.sampled_from(CONSTS))
        pins[c] = c
    return source, target, pins, draw(st.booleans())


def _outcome(search, source, target, pins, injective, budget=None):
    try:
        return search(source, target, dict(pins), budget, injective)
    except BudgetExceeded:
        return "budget exceeded"


@settings(max_examples=400, deadline=None)
@given(problems())
def test_same_first_solution_as_reference(problem):
    source, target, pins, injective = problem
    expected = _outcome(reference_homs._search, source, target, pins, injective)
    assert _outcome(_search, source, target, pins, injective) == expected


@settings(max_examples=150, deadline=None)
@given(problems())
def test_same_budget_exhaustion_as_reference(problem):
    source, target, pins, injective = problem
    for budget in range(12):
        expected = _outcome(reference_homs._search, source, target, pins, injective, budget)
        assert _outcome(_search, source, target, pins, injective, budget) == expected, budget


@pytest.mark.parametrize("injective", [False, True])
def test_same_answers_on_a_backtracking_search(injective):
    """A directed wheel with a 5-cycle rim into K4 less two arcs: found
    after 34 nodes, or refuted when the map must be injective."""
    hub, *rim = (Var(n) for n in "abcdef")
    source = [Atom("r", (hub, v)) for v in rim]
    source += [Atom("r", (rim[i], rim[(i + 1) % 5])) for i in range(5)]
    missing = {("c0", "c3"), ("c1", "c3")}
    target = [Atom("r", (x, y)) for x in CONSTS for y in CONSTS
              if x != y and (x, y) not in missing]
    for budget in (None, *range(50)):
        expected = _outcome(reference_homs._search, source, target, {}, injective, budget)
        assert _outcome(_search, source, target, {}, injective, budget) == expected, budget


@st.composite
def problems_with_nullary(draw):
    """Problems whose signature also has a nullary predicate, ``s``: the
    reference checks ``s()`` against the target like any other atom."""
    preds = PREDS + [("s", 0)]
    source = draw(atoms_over(preds, SOURCE_VARS + CONSTS[:2], 1, 7))
    target = draw(atoms_over(preds, CONSTS + TARGET_VARS, 0, 20))
    pins = {v: draw(st.sampled_from(CONSTS))
            for v in draw(st.lists(st.sampled_from(SOURCE_VARS), max_size=2))}
    return source, target, pins, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(problems_with_nullary())
def test_same_outcome_as_reference_with_nullary_atoms(problem):
    source, target, pins, injective = problem
    for budget in (None, *range(12)):
        expected = _outcome(reference_homs._search, source, target, pins, injective, budget)
        assert _outcome(_search, source, target, pins, injective, budget) == expected, budget


DENSE_PREDS = [("r", 2), ("t", 3), ("u", 3)]


@st.composite
def dense_problems(draw):
    """Problems with 8-16 source atoms over the six variables alone,
    ternary ones and ones that repeat a variable among them, into a dense
    target over three constants: most atoms have all their variables
    assigned after one or two narrowings, so forward checking skips them."""
    source = draw(atoms_over(DENSE_PREDS, SOURCE_VARS, 7, 15))
    x, y = draw(st.sampled_from(SOURCE_VARS)), draw(st.sampled_from(SOURCE_VARS))
    source.append(Atom(draw(st.sampled_from(["t", "u"])), (x, y, x)))
    everything = [Atom(pred, args) for pred, arity in DENSE_PREDS
                  for args in itertools.product(CONSTS[:3], repeat=arity)]
    target = draw(st.lists(st.sampled_from(everything), min_size=20, max_size=60, unique=True))
    pins = {v: draw(st.sampled_from(CONSTS[:3]))
            for v in draw(st.lists(st.sampled_from(SOURCE_VARS), max_size=1))}
    return source, target, pins, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(dense_problems())
def test_same_outcome_as_reference_on_dense_problems(problem):
    source, target, pins, injective = problem
    for budget in (None, *range(16)):
        expected = _outcome(reference_homs._search, source, target, pins, injective, budget)
        assert _outcome(_search, source, target, pins, injective, budget) == expected, budget


A, B, G = Var("a"), Var("b"), Var("g")
# a and b must map next to c0; q(c3) puts c3 in the target and nowhere else
PIN_SOURCE = [Atom("r", (A, "c0")), Atom("r", ("c0", B))]
PIN_TARGET = [Atom("r", args) for args in
              (("c1", "c0"), ("c2", "c0"), ("c0", "c1"), ("c0", "c2"), ("c0", "c0"))]
PIN_TARGET.append(Atom("q", ("c3",)))


@pytest.mark.parametrize("pins, injective, found", [
    ({}, False, True),
    ({}, True, True),
    # a pin on a variable the source lacks is kept when the target has its value
    ({G: "c3"}, False, True),
    ({G: "c9"}, False, False),
    # a constant pinned to itself, in the source or not
    ({"c0": "c0"}, False, True),
    ({"c0": "c0"}, True, True),
    ({"c3": "c3"}, False, True),
    ({"c9": "c9"}, False, False),
    ({"c0": "c1"}, False, False),
    # an injective search may not give a pin a source constant's value
    ({A: "c0"}, True, False),
    ({G: "c0"}, True, False),
    ({G: "c3"}, True, True),
])
def test_pins_against_reference(pins, injective, found):
    expected = _outcome(reference_homs._search, PIN_SOURCE, PIN_TARGET, pins, injective)
    assert (expected is not None) == found
    assert _outcome(_search, PIN_SOURCE, PIN_TARGET, pins, injective) == expected


PAIR_PREDS = ["p", "r"]


@st.composite
def dense_binary_problems(draw):
    """Problems where every source variable is in at least 8 binary atoms
    over two predicates, both roles and every partner mixed, into a dense
    target over three or four constants: the kernel groups these atoms by
    predicate and role and asks one projection per group."""
    source = []
    for v in SOURCE_VARS:
        others = [u for u in SOURCE_VARS if u != v]
        shapes = st.tuples(st.sampled_from(PAIR_PREDS), st.sampled_from(others), st.booleans())
        for pred, u, first in draw(st.lists(shapes, min_size=8, max_size=10, unique=True)):
            source.append(Atom(pred, (v, u) if first else (u, v)))
    consts = CONSTS[:draw(st.integers(3, 4))]
    everything = [Atom(pred, args) for pred in PAIR_PREDS
                  for args in itertools.product(consts, repeat=2)]
    target = draw(st.lists(st.sampled_from(everything), min_size=8, unique=True))
    pins = {v: draw(st.sampled_from(consts))
            for v in draw(st.lists(st.sampled_from(SOURCE_VARS), max_size=2))}
    return source, target, pins, draw(st.booleans())


def _nodes(source, target, pins, injective):
    """The nodes ``_search`` spends on a problem, found or not."""
    spent = []
    spend = _Budget.spend

    def counting(meter):
        spent.append(None)
        spend(meter)

    with mock.patch.object(_Budget, "spend", counting):
        _search(source, target, dict(pins), None, injective)
    return len(spent)


@settings(max_examples=150, deadline=None)
@given(dense_binary_problems())
def test_same_outcome_as_reference_on_dense_binary_problems(problem):
    """A search of n nodes runs out of budget exactly at the budgets below
    n, so budgets up to 12 and n - 1 and n check every point."""
    source, target, pins, injective = problem
    nodes = _nodes(source, target, pins, injective)
    for budget in (None, *range(12), max(nodes - 1, 0), nodes):
        expected = _outcome(reference_homs._search, source, target, pins, injective, budget)
        assert _outcome(_search, source, target, pins, injective, budget) == expected, budget


@st.composite
def mirrored_pairs(draw, terms, min_size, max_size):
    """Pairs over ``terms`` with the reverses of none, all or some of them."""
    pairs = draw(st.lists(st.tuples(st.sampled_from(terms), st.sampled_from(terms)),
                          min_size=min_size, max_size=max_size, unique=True))
    mirrored = draw(st.sampled_from(["none", "all", "some"]))
    if mirrored == "all":
        pairs += [(b, a) for a, b in pairs]
    elif mirrored == "some" and pairs:
        pairs += [(b, a) for a, b in draw(st.lists(st.sampled_from(pairs)))]
    return list(dict.fromkeys(pairs))


@st.composite
def mirrored_binary_problems(draw):
    """Problems whose source holds binary atoms with their reverses, for
    all, some or none of them, into a target whose relations are
    symmetric, partly symmetric or not: a variable whose partners of a
    predicate are the same in both roles is one group, narrowed by the
    projection of T ∩ T⁻¹, and one whose roles differ is two."""
    source, target = [], []
    consts = CONSTS[:draw(st.integers(3, 4))]
    for pred in PAIR_PREDS:
        source += [Atom(pred, args) for args in draw(mirrored_pairs(SOURCE_VARS[:4], 3, 8))]
        target += [Atom(pred, args) for args in draw(mirrored_pairs(consts, 6, 9))]
    pins = {v: draw(st.sampled_from(consts))
            for v in draw(st.lists(st.sampled_from(SOURCE_VARS), max_size=2))}
    return source, target, pins, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(mirrored_binary_problems())
def test_same_outcome_as_reference_on_mirrored_binary_problems(problem):
    """The same first solution, and budget points, as the reference: the
    one projection of a both-roles group narrows a partner to what the two
    groups of its roles give in turn."""
    source, target, pins, injective = problem
    nodes = _nodes(source, target, pins, injective)
    for budget in (None, *range(12), max(nodes - 1, 0), nodes):
        expected = _outcome(reference_homs._search, source, target, pins, injective, budget)
        assert _outcome(_search, source, target, pins, injective, budget) == expected, budget


INDEX_PREDS = [("r", 2), ("t", 3)]
INDEX_ATOMS = [Atom(pred, args) for pred, arity in INDEX_PREDS
               for args in itertools.product(CONSTS[:3], repeat=arity)]
PROJECTIONS = [((pred, arity), p, val, q) for pred, arity in INDEX_PREDS
               for p in range(arity) for q in range(arity) if p != q for val in CONSTS[:3]]
# both roles of the binary relation: the projection of T ∩ T⁻¹
PROJECTIONS += [(("r", 2), None, val, None) for val in CONSTS[:3]]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(INDEX_ATOMS), max_size=20, unique=True),
       st.lists(st.sampled_from(INDEX_ATOMS), max_size=30))
def test_projections_follow_discard_and_add(start, toggles):
    """``_Target.project``, memoised, for one role and for both, against
    a recomputation from the atoms present, after each ``discard`` or
    ``add``: every toggle takes out an atom present or puts back one
    absent, as the core does."""
    target = _Target(start)
    atoms = set(start)

    def check():
        for key, p, val, q in PROJECTIONS:
            if p is None:
                values = {a.args[1] for a in atoms if (a.pred, len(a.args)) == key
                          and a.args[0] == val and Atom(a.pred, a.args[::-1]) in atoms}
            else:
                values = {a.args[q] for a in atoms
                          if (a.pred, len(a.args)) == key and a.args[p] == val}
            assert target.project(key, p, val, q) == (values or None), (key, p, val, q)

    check()
    for a in toggles:
        if a in atoms:
            target.discard(a.pred, a.args)
            atoms.discard(a)
        else:
            target.add(a.pred, a.args)
            atoms.add(a)
        check()
