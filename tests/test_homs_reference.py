"""Differential tests: the indexed, iterative kernel against the recursive,
scan-based kernel it replaced (``reference_homs``).  Both must return the
same first solution or None, and run out of budget at the same node.

The kernel has no injective mode.  An injective problem is run as the
search of the same atoms with a ≠ relation on both sides (``_kernel``),
as ``is_isomorphic`` runs it, against the reference's injective mode."""

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from nexus.errors import ArityMismatch, BudgetExceeded
from nexus.formulas import Formula
from nexus.homs import _Budget, _distinct, _search, _Target, equivalent, is_isomorphic, maps_to
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


def _terms_of(atoms) -> set:
    return {t for a in atoms for t in a.args}


def _kernel(source, target, pins, budget, injective):
    """``_search``; an injective problem adds a ≠ relation over the
    source's terms and pinned keys, and one over the target's terms."""
    if injective:
        source = source + _distinct(_terms_of(source) | pins.keys())
        target = target + _distinct(_terms_of(target))
    return _search(source, target, pins, budget)


def _outcome(search, source, target, pins, injective, budget=None):
    try:
        return search(source, target, dict(pins), budget, injective)
    except BudgetExceeded:
        return "budget exceeded"


def _same_outcome(problem, budgets):
    """The kernel's first solution, or its budget point, is the
    reference's at every budget.  Into a target of fewer than two terms
    the ≠ relation is empty, so the root pass refutes an injective
    problem that the reference refutes only after spending nodes: there
    only the answer must agree."""
    source, target, pins, injective = problem
    for budget in budgets:
        expected = _outcome(reference_homs._search, source, target, pins, injective, budget)
        got = _outcome(_kernel, source, target, pins, injective, budget)
        if injective and len(_terms_of(target)) < 2 and expected == "budget exceeded":
            assert got in (None, expected), budget
        else:
            assert got == expected, budget


@settings(max_examples=400, deadline=None)
@given(problems())
def test_same_first_solution_as_reference(problem):
    _same_outcome(problem, [None])


@settings(max_examples=150, deadline=None)
@given(problems())
def test_same_budget_exhaustion_as_reference(problem):
    _same_outcome(problem, range(12))


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
    _same_outcome((source, target, {}, injective), (None, *range(50)))


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
    _same_outcome(problem, (None, *range(12)))


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
    _same_outcome(problem, (None, *range(16)))


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
    assert _outcome(_kernel, PIN_SOURCE, PIN_TARGET, pins, injective) == expected


def test_injective_into_one_term_is_refuted_at_the_root():
    """Two terms cannot map injectively into one.  The reference spends a
    node to find that out; the ≠ relation of one term is empty, so the
    kernel's root pass refutes it before the first node."""
    problem = ([Atom("p", (A, B))], [Atom("p", ("c0", "c0"))], {}, True)
    assert _outcome(reference_homs._search, *problem, 0) == "budget exceeded"
    assert _outcome(_kernel, *problem, 0) is None
    assert _outcome(reference_homs._search, *problem) is None


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


def _nodes(search, *args):
    """The nodes ``search(*args)`` spends, found or not."""
    spent = []
    spend = _Budget.spend

    def counting(meter):
        spent.append(None)
        spend(meter)

    with mock.patch.object(_Budget, "spend", counting):
        search(*args)
    return len(spent)


@settings(max_examples=150, deadline=None)
@given(dense_binary_problems())
def test_same_outcome_as_reference_on_dense_binary_problems(problem):
    """A search of n nodes runs out of budget exactly at the budgets below
    n, so budgets up to 12 and n - 1 and n check every point."""
    source, target, pins, injective = problem
    nodes = _nodes(_kernel, source, target, dict(pins), None, injective)
    _same_outcome(problem, (None, *range(12), max(nodes - 1, 0), nodes))


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
    symmetric, partly symmetric or not: a variable may hold the same
    partners of a predicate in both roles, or different ones, and has a
    group per role either way."""
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
    """The same first solution, and budget points, as the reference: a
    partner held in both roles is narrowed by the projection of each role
    in turn."""
    source, target, pins, injective = problem
    nodes = _nodes(_kernel, source, target, dict(pins), None, injective)
    _same_outcome(problem, (None, *range(12), max(nodes - 1, 0), nodes))


INDEX_PREDS = [("r", 2), ("t", 3)]
INDEX_VALUES = CONSTS[:3]
INDEX_ATOMS = [Atom(pred, args) for pred, arity in INDEX_PREDS
               for args in itertools.product(INDEX_VALUES, repeat=arity)]
# compiled atoms (key, slots): distinct slots, and every way to repeat one
INDEX_SHAPES = [(("r", 2), (0, 1)), (("r", 2), (0, 0)), (("t", 3), (0, 1, 2)),
                (("t", 3), (0, 0, 1)), (("t", 3), (0, 1, 0)), (("t", 3), (1, 0, 0)),
                (("t", 3), (0, 0, 0))]
# every way to fix some slots of each shape
INDEX_QUERIES = [(key, slots, fixed) for key, slots in INDEX_SHAPES
                 for n in range(len(set(slots)) + 1)
                 for chosen in itertools.combinations(sorted(set(slots)), n)
                 for fixed in (dict(zip(chosen, values))
                               for values in itertools.product(INDEX_VALUES, repeat=n))]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(INDEX_ATOMS), max_size=20, unique=True),
       st.lists(st.sampled_from(INDEX_ATOMS), max_size=30))
def test_projections_follow_discard_and_add(start, toggles):
    """The index against a recomputation from the atoms present, after
    each ``discard`` or ``add``: every toggle takes out an atom present or
    puts back one absent, as the core does.  The first check builds every
    lookup, so the toggles must keep them in step: the binary partner
    sets through ``project`` at either position, the columns, and
    ``supports`` with every set of fixed slots, which reads the ternary
    tuple sets, for distinct and for repeated slots."""
    target = _Target(start)
    atoms = set(start)

    def check():
        rows = {key: [a.args for a in atoms if (a.pred, len(a.args)) == key]
                for key in INDEX_PREDS}
        for key, slots, fixed in INDEX_QUERIES:
            held = [tt for tt in rows[key]
                    if all(tt[p] == fixed.get(s, tt[slots.index(s)]) for p, s in enumerate(slots))]
            expected = held and [(s, {tt[slots.index(s)] for tt in held})
                                 for s in dict.fromkeys(slots) if s not in fixed]
            image = [fixed.get(s) for s in range(max(slots) + 1)]
            found = target.supports(key, slots, image)
            assert found == (expected if held else None), (slots, fixed)
        for key in INDEX_PREDS:
            for pos in range(key[1]):
                assert target.column(key, pos) == {tt[pos] for tt in rows[key]}, (key, pos)
        pairs = set(rows[("r", 2)])
        for val in INDEX_VALUES:
            ahead = {b for a, b in pairs if a == val}
            behind = {a for a, b in pairs if b == val}
            for p, values in ((0, ahead), (1, behind)):
                assert target.project(("r", 2), p, val) == (values or None), (p, val)

    check()
    for a in toggles:
        if a in atoms:
            target.discard(a.pred, a.args)
            atoms.discard(a)
        else:
            target.add(a.pred, a.args)
            atoms.add(a)
        check()


ISO_PREDS = [("p", 2), ("q", 1), ("t", 3)]


@st.composite
def formulas(draw):
    """Formulas over five variables and two constants, with repeated head
    variables."""
    atoms = draw(atoms_over(ISO_PREDS, SOURCE_VARS[:5] + CONSTS[:2], 1, 6))
    held = sorted({t for a in atoms for t in a.args if isinstance(t, Var)}, key=str)
    head = draw(st.lists(st.sampled_from(held), min_size=1, max_size=3)) if held else []
    return Formula(head, atoms)


def _permutation_formula(images, head):
    """``p(v, w)`` for every variable v and its image w under a
    permutation: every variable has one partner in each role, so only
    the search, not its root pass, tells two cycle types apart."""
    return Formula([head], [Atom("p", pair) for pair in zip(SOURCE_VARS, images)])


@st.composite
def formula_pairs(draw):
    """Two formulas of two permutations of six variables, isomorphic
    exactly when the cycle types are equal, or a formula and either an
    independent one, or its renaming onto
    other variable names in another name order, kept as it is
    ("renamed") or changed in one atom: a variable replaced by another,
    or the arguments reversed, and maybe the head rotated.  A change that
    keeps the sizes is often not an isomorphism."""
    kind = draw(st.sampled_from(["renamed", "changed", "other", "permutations"]))
    if kind == "permutations":
        return (*(_permutation_formula(draw(st.permutations(SOURCE_VARS)), SOURCE_VARS[0])
                  for _ in range(2)), kind)
    phi = draw(formulas())
    if kind == "other":
        return phi, draw(formulas()), kind
    names = draw(st.permutations([Var(n) for n in ("u", "v", "w", "x", "y", "z")]))
    renaming = dict(zip(sorted(phi.vars, key=str), names))
    atoms = [Atom(a.pred, tuple(renaming.get(t, t) for t in a.args)) for a in phi.atoms]
    head = [renaming[v] for v in phi.free_vars]
    if kind == "changed":
        i = draw(st.integers(0, len(atoms) - 1))
        args = atoms[i].args[::-1]
        others = [t for k, a in enumerate(atoms) if k != i for t in a.args]
        # a variable that occurs elsewhere, so that no variable is lost
        held = [j for j, t in enumerate(args)
                if isinstance(t, Var) and (t in others or args.count(t) > 1)]
        if held and draw(st.booleans()):
            j = draw(st.sampled_from(held))
            args = args[:j] + (draw(st.sampled_from(names[:len(renaming)])),) + args[j + 1:]
        atoms[i] = Atom(atoms[i].pred, args)
        if draw(st.booleans()):
            head = head[1:] + head[:1]
    return phi, Formula(head, atoms), kind


def _verdict(check, phi1, phi2, budget=None):
    try:
        return check(phi1, phi2, budget)
    except BudgetExceeded:
        return "budget exceeded"


@settings(max_examples=300, deadline=None)
@given(formula_pairs())
def test_is_isomorphic_as_reference(pair):
    """``is_isomorphic`` searches a ≠ relation where the reference runs
    its kernel's injective mode after the same checks: the same answer and
    budget point at every budget.  Equal term counts mean the ≠ relations
    are empty only when there is one term, and then neither side has one."""
    phi1, phi2, kind = pair
    if kind == "renamed":
        assert is_isomorphic(phi1, phi2)
    nodes = _nodes(is_isomorphic, phi1, phi2)
    for budget in (None, *range(12), max(nodes - 1, 0), nodes):
        expected = _verdict(reference_homs.is_isomorphic, phi1, phi2, budget)
        assert _verdict(is_isomorphic, phi1, phi2, budget) == expected, budget


@st.composite
def map_pairs(draw):
    """A pair of ``formula_pairs``, or a formula and a sub-formula of it,
    either way round.  The sub-formula keeps the head, so it maps into the
    formula, and the formula maps into it when the dropped atoms retract;
    or it takes another head over its variables, often with another
    pattern of repeated variables."""
    if draw(st.booleans()):
        phi1, phi2, _kind = draw(formula_pairs())
        return phi1, phi2
    phi = draw(formulas())
    atoms = sorted(phi.atoms, key=Atom.key)
    kept = [a for a in atoms if draw(st.booleans())] or atoms[:1]
    for v in phi.free_vars:
        if not any(v in a.args for a in kept):
            kept.append(next(a for a in atoms if v in a.args))
    head = phi.free_vars
    if head and draw(st.booleans()):
        held = sorted({t for a in kept for t in a.args if isinstance(t, Var)}, key=str)
        head = draw(st.lists(st.sampled_from(held), min_size=len(head), max_size=len(head)))
    sub = Formula(head, kept)
    return (phi, sub) if draw(st.booleans()) else (sub, phi)


def _map_verdict(check, phi1, phi2, budget=None):
    try:
        return _verdict(check, phi1, phi2, budget)
    except ArityMismatch:
        return "arity mismatch"


@settings(max_examples=300, deadline=None)
@given(map_pairs())
def test_maps_to_and_equivalent_as_reference(pair):
    """``maps_to`` asks ``homs._maps``, one ``_run`` behind the heads'
    pins; the reference runs its own kernel's ``_search`` behind the same
    pins.  ``maps_to`` and ``equivalent`` give the same answer, and run out
    at the same node, at budgets None, 0-11, n - 1 and n for a search of n
    nodes."""
    phi1, phi2 = pair
    for check, reference in ((maps_to, reference_homs.maps_to),
                             (equivalent, reference_homs.equivalent)):
        nodes = _nodes(_map_verdict, check, phi1, phi2)
        for budget in (None, *range(12), max(nodes - 1, 0), nodes):
            expected = _map_verdict(reference, phi1, phi2, budget)
            assert _map_verdict(check, phi1, phi2, budget) == expected, (check, budget)
