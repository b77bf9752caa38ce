"""Decisions search the canonical characterization as assembled, its
variables named after their product constants; only printed formulas are
canonically renamed.  A single membership (``ess_member``, so the
comparison gadgets) and a sweep (``ess_set``, ``is_definable``) compile
the search source straight from the rows of the product walk and build no
formula.

Differential tests require every decision to answer as the kernel does on
``build_can``'s renamed can, and the source compiled from the rows to equal,
slot for slot up to numbering, the one compiled from the formula that the
materialize-then-prune reference assembles.  Regression tests count the
renamings and formulas each operation pays for, and pin the node budget at
which each of a set of memberships runs out, under two hash seeds."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import engine_hooks
import reference_can
from nexus.characterize import _assemble, _can_from_tuples, build_can
from nexus.errors import BudgetExceeded, NexusError
from nexus.expansion import (
    INC, PREC, PREC_INV, SIM, _Can, build_expansion_graph, compare, ess_member, ess_set,
    is_definable,
)
from nexus.formulas import Formula, canonical_rename
from nexus.homs import _Source, equivalent, instances, maps_to, tuple_membership
from nexus.kb import (
    Atom, SelectiveKB, SelectorSpec, close_under_top, duplicate_columns, term_key,
    validate_unit,
)
from test_membership_reference import SELECTORS, make_kb

ROOT = Path(__file__).resolve().parent.parent


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
def rename_calls():
    """The renamings made through every engine binding of
    ``canonical_rename``."""
    with engine_hooks.calls(canonical_rename) as made:
        yield made


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


def source_shape(source: _Source):
    """A compiled source with every slot replaced by its term: equal for
    two compilations of the same atoms and pins, however numbered."""
    term = source.terms.__getitem__

    def atom(compiled):
        key, slots = compiled
        return key, tuple(map(term, slots))

    assert [source.slot[t] for t in source.terms] == list(range(len(source.terms)))
    return {
        "fixed_atoms": sorted(map(atom, source.fixed_atoms), key=repr),
        "by_columns": {cols: sorted(map(term, slots), key=term_key)
                       for cols, slots in source.by_columns.items()},
        "by_rank": [term(s).name for s in source.by_rank],
        "by_var": {term(s): sorted(map(atom, source.by_var[s]), key=repr)
                   for s in source.by_rank},
        "pairs": {term(s): sorted(((key, p, sorted(map(term, partners), key=term_key))
                                   for key, p, partners in source.pairs[s]), key=repr)
                  for s in source.by_rank},
        "template": sorted(zip(map(repr, source.terms), map(repr, source.template))),
    }


def assert_compiles_as_the_formula(tuples, kb):
    """The rows of ``_assemble`` compile to the source of the formula that
    the reference assembles, before it renames it."""
    with mock.patch.object(reference_can, "canonical_rename", lambda phi: phi):
        want = reference_can._can_from_tuples(tuples, kb)
    head, terms, rows = _assemble(tuples, kb)
    assert tuple(head) == want.free_vars
    assert sorted({s for _pred, args in rows for s in args}) == list(range(len(terms)))
    assert _can_from_tuples(tuples, kb) == want
    got = _Source(terms, rows, head)
    assert len(rows) == len(want.atoms)
    assert source_shape(got) == source_shape(_Source.of_atoms(want.atoms, head))


RANDOM_CANS = dict(
    seed=st.integers(0, 10_000),
    selector=st.sampled_from(["full", "sigma0", "component", "neighborhood:1"]),
    arity=st.integers(1, 3),
    gene=st.booleans(),
    data=st.data(),
)


def draw_kb_and_tuples(seed, selector, arity, gene, data):
    """A random KB, its constants, and one to three tuples over them,
    with one column a free gene when ``gene`` is set."""
    rng = random.Random(seed)
    consts = [f"e{i}" for i in range(1, rng.randint(3, 5) + 1)]
    atoms = [Atom(p, (s, o)) for p in ("p", "r") for s in consts for o in consts
             if rng.random() < 0.2]
    atoms += [Atom("q", (c,)) for c in consts if rng.random() < 0.3]
    kb = SelectiveKB(close_under_top(atoms + [Atom("top", (c,)) for c in consts]),
                     SelectorSpec.parse(selector))
    # a free gene: one column holds the same constant on every tuple
    column = data.draw(st.integers(0, arity - 1)) if gene else None
    b = data.draw(st.sampled_from(consts))
    row = st.tuples(*[st.just(b) if i == column else st.sampled_from(consts)
                      for i in range(arity)])
    return kb, consts, data.draw(st.lists(row, min_size=1, max_size=3, unique=True))


@settings(max_examples=150, deadline=None)
@given(**RANDOM_CANS)
def test_assembled_rows_compile_as_the_formula(seed, selector, arity, gene, data):
    kb, _consts, tuples = draw_kb_and_tuples(seed, selector, arity, gene, data)
    assert_compiles_as_the_formula(sorted(tuples), kb)


NODES = 20_000  # a search between the cans of two arbitrary tuples can be hard


def answer_and_nodes(search, *args):
    """A search's outcome within ``NODES`` nodes, and the nodes it spent."""
    with engine_hooks.searches() as meters:
        answer = outcome(search, *args, NODES)
    return answer, sum(m.cap - m.left for m in meters)


@settings(max_examples=100, deadline=None)
@given(**RANDOM_CANS)
def test_compiled_cans_map_as_their_formulas(seed, selector, arity, gene, data):
    """The expansion graph's equivalence check on compiled cans answers
    as ``maps_to`` between the formulas of can(U + tau) and can(U + sigma),
    both ways, with the same node count n, and runs out of budget at the
    same points.  A search of n nodes raises ``BudgetExceeded`` exactly at
    the budgets below n, so budgets 0, n - 1 and n check every point.  A
    search past ``NODES`` must run out there on both sides."""
    kb, consts, unit = draw_kb_and_tuples(seed, selector, arity, gene, data)
    extra = st.tuples(*[st.sampled_from(consts)] * arity)
    tau, sigma = data.draw(extra), data.draw(extra)
    sides = [sorted(set(unit) | {t}) for t in (tau, sigma)]
    cans = [_Can.of(tuples, kb) for tuples in sides]
    formulas = [_can_from_tuples(tuples, kb) for tuples in sides]
    for i, j in ((0, 1), (1, 0)):
        answer, nodes = answer_and_nodes(maps_to, formulas[i], formulas[j])
        assert answer_and_nodes(cans[i].maps_to, cans[j]) == (answer, nodes)
        if answer is BudgetExceeded:
            continue
        for budget in {0, max(nodes - 1, 0), nodes}:
            want = outcome(maps_to, formulas[i], formulas[j], budget)
            assert want == (BudgetExceeded if budget < nodes else answer)
            assert outcome(cans[i].maps_to, cans[j], budget) == want, (i, budget)


@pytest.mark.parametrize("selector", ["sigma0", "neighborhood:1", "full"])
@pytest.mark.parametrize("tuples", [
    [("Discovery_Cove",), ("Epcot",)],
    # the Florida column is a free gene: its clones take the nearly-connected part
    [("Discovery_Cove", "Florida"), ("Epcot", "Florida")],
    [("Discovery_Cove", "Florida"), ("Epcot", "Florida"), ("Gardaland", "Italy")],
])
def test_parks_rows_compile_as_the_formula(parks_dataset, tuples, selector):
    assert_compiles_as_the_formula(tuples, SelectiveKB(parks_dataset, SelectorSpec.parse(selector)))


@pytest.fixture
def built():
    """The calls of ``_can_from_tuples`` and ``homs.equivalent`` through
    every engine binding of them, and the ``Formula``s constructed."""
    with (engine_hooks.calls(_can_from_tuples) as cans,
          engine_hooks.calls(equivalent) as equivalents,
          engine_hooks.calls(Formula.__init__) as formulas):
        yield cans, equivalents, formulas


def test_decisions_build_no_formula(parks_kb, parks_dataset, parks_unit, built):
    """``ess_member``, ``compare`` and the sweeps ``is_definable`` and
    ``ess_set`` compile the rows of the product walk: no call of
    ``_can_from_tuples`` through any engine binding of it, and no
    ``Formula`` at all."""
    cans, equivalents, formulas = built
    arity2 = validate_unit([("Discovery_Cove", "Florida"), ("Epcot", "Florida")], parks_dataset)
    assert ess_member(parks_unit, parks_kb, ("Epcot",))
    assert not ess_member(parks_unit, parks_kb, ("Gardaland",))
    assert ess_member(arity2, parks_kb, ("Epcot", "Florida"))
    assert compare(parks_kb, parks_unit, ("Gardaland",), ("Leolandia",)) == PREC
    assert cans == equivalents == formulas == []
    assert is_definable(parks_unit, parks_kb)
    assert ess_set(parks_unit, parks_kb) == {("Discovery_Cove",), ("Epcot",)}
    assert cans == equivalents == formulas == []


@pytest.mark.parametrize("tuples, classes", [
    ([("Discovery_Cove",), ("Epcot",)], 6),
    ([("Discovery_Cove", "Florida"), ("Epcot", "Florida")], 32),
], ids=["shipped", "florida-pairs"])
def test_the_graph_builds_formulas_only_for_its_classes(parks_kb, parks_dataset, built,
                                                        tuples, classes):
    """The expansion graph classifies and checks compiled cans: four
    formulas per class (the representative, its renaming, its core and
    the core's renaming), no ``_can_from_tuples`` and no ``equivalent``."""
    cans, equivalents, formulas = built
    graph = build_expansion_graph(validate_unit(tuples, parks_dataset), parks_kb)
    assert len(graph.nodes) == classes
    assert cans == equivalents == [] and len(formulas) == 4 * classes


# Memberships that reach a search: the 3-col reductions of small graphs
# under ``full`` and extensions of the parks units, each with its answer
# and the nodes its search took when cans were still compiled from a
# sorted formula.  The script prints, per membership, whether a budget of
# that many nodes gives the answer and one node fewer runs out.
BUDGET_SCRIPT = r"""
import itertools
import sys
from pathlib import Path

from nexus import oracles
from nexus.errors import BudgetExceeded
from nexus.expansion import ess_member
from nexus.kb import SelectiveKB, SelectorSpec, parse_facts, validate_unit

K4 = list(itertools.combinations(["v0", "v1", "v2", "v3"], 2))
GRAPHS = [
    (["v0", "v1", "v2"], [("v0", "v1"), ("v1", "v2"), ("v0", "v2")], 1, True, 15),
    (["v0", "v1", "v2"], [("v0", "v1"), ("v1", "v2"), ("v0", "v2")], 2, True, 15),
    (["v0", "v1", "v2", "v3"], K4, 1, False, 15),
    ([f"v{i}" for i in range(5)], [(f"v{i}", f"v{(i + 1) % 5}") for i in range(5)], 1, True, 35),
    ([f"v{i}" for i in range(6)],
     [(f"v{i}", f"v{(i + 1) % 5}") for i in range(5)] + [("v5", f"v{i}") for i in range(5)],
     1, False, 147),
]
cases = []
for vertices, edges, k, colorable, nodes in GRAPHS:
    kb, unit, tau = oracles.gen_3col_instance(vertices, edges, k)
    cases.append((kb, unit, tau, colorable, nodes))
dataset = parse_facts(Path(sys.argv[1]).read_text())
PARKS = [
    ("sigma0", [("Discovery_Cove",), ("Epcot",)], ("Epcot",), True, 2),
    ("sigma0", [("Discovery_Cove",), ("Epcot",), ("Gardaland",)], ("Epcot",), True, 7),
    ("sigma0", [("Discovery_Cove", "Florida"), ("Epcot", "Florida")], ("Epcot", "Florida"), True, 2),
    ("neighborhood:1", [("Discovery_Cove",), ("Epcot",), ("Pacific_Park",)], ("Prater",), True, 4),
    ("neighborhood:1", [("Discovery_Cove", "Florida"), ("Epcot", "Florida")], ("Epcot", "Florida"),
     True, 3),
]
for selector, tuples, tau, member, nodes in PARKS:
    kb = SelectiveKB(dataset, SelectorSpec.parse(selector))
    cases.append((kb, validate_unit(tuples, dataset), tau, member, nodes))
for kb, unit, tau, member, nodes in cases:
    answers = ess_member(unit, kb, tau, budget=nodes) is member
    try:
        ess_member(unit, kb, tau, budget=nodes - 1)
        ran_out = False
    except BudgetExceeded:
        ran_out = True
    print(sorted(unit.tuples), tau, nodes, answers, ran_out)
"""


def test_memberships_run_out_of_budget_where_they_did():
    """Each membership answers within the node count that its search took
    when the can was still compiled from a sorted formula, and runs out
    one node earlier, whatever order the rows come in."""
    for hash_seed in ("0", "4242"):
        path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(path))
        done = subprocess.run(
            [sys.executable, "-c", BUDGET_SCRIPT, str(ROOT / "data" / "parks.nxf")],
            env=env, capture_output=True, text=True, check=True,
        )
        lines = done.stdout.splitlines()
        assert len(lines) == 10
        for line in lines:
            assert line.endswith(" True True"), (hash_seed, line)
