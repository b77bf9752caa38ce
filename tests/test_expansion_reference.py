"""Differential tests: the expansion graph classified by closure inference
against the builder that swept every tuple's full instance set
(``reference_expansion``).  Both must group the tuples identically, with
each class's tuples in space order, and print identical JSON and DOT.
Also a property test of the theorem the builder's arcs rest on: strict
fingerprint inclusion is the hom-order between class cans."""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

import engine_hooks
import reference_expansion
from nexus import expansion, homs
from nexus.characterize import _can_from_tuples
from nexus.errors import BudgetExceeded
from nexus.formulas import canonical_rename
from nexus.homs import core_of_formula, equivalent, instances, maps_to
from nexus.kb import (
    SelectiveKB, SelectorSpec, atom, close_under_top, duplicate_columns, validate_unit,
)
from nexus.oracles import RandomSkbConfig, random_skb
from test_membership_reference import make_kb


def classified(unit, kb):
    """The graph and each fingerprint's tuples in the order classified."""
    groups: dict = {}
    with engine_hooks.calls(expansion._class_of_tuple) as made:
        graph = expansion.build_expansion_graph(unit, kb)
    for _unit, _kb, tau, closures, _budget in made:
        groups.setdefault(closures.known[tau], []).append(tau)
    return graph, groups


def searches(unit, kb) -> int:
    """Membership decisions run while classifying the tuples: the tuples
    that ``_Closures.infer`` hands to the decision it compiles, and none
    of a sweep's."""
    decided = []

    def counting(membership_test):
        def compiled(*args):
            is_member = membership_test(*args)
            return lambda tau: decided.append(tau) or is_member(tau)
        return compiled

    def inferring(infer):
        def counted(*args):
            with engine_hooks.replaced(homs._membership_test, counting):
                return infer(*args)
        return counted

    with engine_hooks.replaced(expansion._Closures.infer, inferring):
        expansion.build_expansion_graph(unit, kb)
    return len(decided)


def assert_same_graph(unit, kb):
    graph, groups = classified(unit, kb)
    want, want_groups = reference_expansion.build_expansion_graph(unit, kb)
    assert groups == want_groups
    assert graph == want
    assert graph.to_json() == want.to_json()
    assert graph.to_dot() == want.to_dot()


def test_parks_shipped_unit(parks_kb, parks_unit):
    assert_same_graph(parks_unit, parks_kb)


def test_parks_arity_two(parks_kb, parks_dataset):
    unit = validate_unit([("Discovery_Cove", "Florida"), ("Epcot", "Florida")], parks_dataset)
    assert_same_graph(unit, parks_kb)


def test_parks_classification_stays_far_below_the_full_sweep(parks_kb, parks_dataset):
    """169 tuples would take 169 x 169 = 28,561 searches one sweep per
    tuple; the known supersets and their intersection settle all but a
    few.  The count is above 0, so the hook is one that classification
    calls."""
    unit = validate_unit([("Discovery_Cove", "Florida"), ("Epcot", "Florida")], parks_dataset)
    assert 0 < searches(unit, parks_kb) < 1_500


def test_every_tuple_in_ess_runs_no_classification_search():
    """Over a complete graph ess(U) is the whole space, so every tuple
    takes ess(U) itself."""
    kb = SelectiveKB(
        close_under_top([atom("r", s, o) for s in "ab" for o in "ab"]),
        SelectorSpec.full(),
    )
    unit = validate_unit([("a", "b"), ("b", "a")], kb.dataset)
    graph, groups = classified(unit, kb)
    assert list(groups.values()) == [[("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]]
    assert len(graph.nodes) == 1
    assert searches(unit, kb) == 0
    assert_same_graph(unit, kb)


def test_representative_is_the_first_tuple_in_space_order():
    """Hom-equivalent cores can print differently: here (e1,e1) and (e3,e1)
    share a class, but their cores come out renamed differently, so only
    the first tuple's core prints as the exhaustive builder printed it."""
    kb = random_skb(RandomSkbConfig(
        max_constants=4, predicates=(("isa", 2), ("p", 2)), atom_density=0.2,
        selector="full", seed=6893,
    ))
    assert_same_graph(validate_unit([("e1", "e3"), ("e2", "e2")], kb.dataset), kb)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    selector=st.sampled_from(["sigma0", "full", "neighborhood:1"]),
    arity=st.integers(1, 2),
    data=st.data(),
)
def test_matches_reference_on_random_skbs(seed, selector, arity, data):
    # At most 4 constants, 2 random predicates, and under ``full`` at most
    # 2 tuples: ``full`` multiplies whole copies of the KB, and on bigger
    # inputs both builders spend tens of seconds on the class cores, which
    # they compute alike, not on the grouping under test.
    size = data.draw(st.integers(1, 2 if selector == "full" else 3))
    kb = random_skb(RandomSkbConfig(
        max_constants=4,
        predicates=(("isa", 2), ("p", 2)),
        atom_density=0.2,
        selector=selector,
        seed=seed,
    ))
    consts = sorted(kb.dataset.domain)
    row = st.tuples(*[st.sampled_from(consts)] * arity)
    tuples = data.draw(st.lists(row, min_size=1, max_size=size, unique=True))
    assume(duplicate_columns(tuples, arity) is None)  # units must be proper
    assert_same_graph(validate_unit(tuples, kb.dataset), kb)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    selector=st.sampled_from(["sigma0", "full", "neighborhood:1", "component", "table"]),
    arity=st.integers(1, 2),
    data=st.data(),
)
def test_fingerprint_inclusion_is_the_hom_order(seed, selector, arity, data):
    """The builder reads its arcs off the fingerprints: for the classes of
    unit + tau, strict inclusion of instance sets holds exactly when the
    more general class's can maps into the more specific one's, and equal
    instance sets mean hom-equivalent cans.  Checked on the cans, which
    the builder's cores are hom-equivalent to."""
    kb = make_kb(seed, selector)
    consts = sorted(kb.dataset.domain)
    row = st.tuples(*[st.sampled_from(consts)] * arity)
    tuples = data.draw(st.lists(row, min_size=1, max_size=2, unique=True))
    assume(duplicate_columns(tuples, arity) is None)  # units must be proper
    unit = validate_unit(tuples, kb.dataset)
    classes: dict = {}  # fingerprint -> the can of its first tuple
    for tau in itertools.product(consts, repeat=arity):
        can = _can_from_tuples(sorted(unit.tuples | {tau}), kb)
        rep = classes.setdefault(frozenset(instances(can, kb)), can)
        assert equivalent(can, rep)
    for (fp_i, can_i), (fp_j, can_j) in itertools.permutations(classes.items(), 2):
        assert (fp_i < fp_j) == maps_to(can_j, can_i)


@pytest.mark.xfail(raises=BudgetExceeded, strict=True,
                   reason="heavy-tailed core search; ROADMAP item 3")
def test_heavy_tailed_class_core_within_a_small_budget():
    """A class can that ``test_matches_reference_on_random_skbs`` can draw:
    seed 10000 under sigma0, the unit {(e3,e4),(e4,e2),(e2,e3)} plus the
    tuple (e1,e1), 814 atoms over 126 variables in one block.  Each block
    search before the hard one takes at most about 500 nodes; the hard one
    exceeds the default 10M, so ``build_expansion_graph`` raises
    ``BudgetExceeded`` on this unit.  The input is the canonically renamed
    can, the one the graph builder cores: the kernel breaks ties by
    variable name, and the can as assembled, with its product-constant
    names, finishes within this budget."""
    kb = random_skb(RandomSkbConfig(
        max_constants=4, predicates=(("isa", 2), ("p", 2)), atom_density=0.2,
        selector="sigma0", seed=10_000,
    ))
    tuples = sorted({("e3", "e4"), ("e4", "e2"), ("e2", "e3"), ("e1", "e1")})
    can = canonical_rename(_can_from_tuples(tuples, kb))
    assert (len(can.atoms), len(can.vars)) == (814, 126)
    core_of_formula(can, budget=1_000)


def test_matches_reference_on_seeded_corpus():
    """Units of arity 1-2 and size 1-3 on a seeded corpus, under each
    selector."""
    for seed, selector in itertools.product(range(12), ["sigma0", "full", "neighborhood:1"]):
        kb = random_skb(RandomSkbConfig(
            max_constants=4, predicates=(("isa", 2), ("p", 2)), atom_density=0.2,
            selector=selector, seed=900 + seed,
        ))
        consts = sorted(kb.dataset.domain)
        space = list(itertools.product(consts, repeat=1 + seed % 2))
        tuples = {space[(7 * i + seed) % len(space)] for i in range(1 + seed % 3)}
        if duplicate_columns(tuples, len(space[0])) is None:
            assert_same_graph(validate_unit(tuples, kb.dataset), kb)
