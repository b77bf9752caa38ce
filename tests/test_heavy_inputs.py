"""The heavy-input corpus: for each random KB known to stall a class core
of the expansion graph, its hardest single class can, cored in about a
second, and for one known to stall a map test, the self-map of its class
can.  Each can to be cored is built as the graph builder builds it, with
``_can_from_tuples`` and ``canonical_rename``, and the can to be mapped
as the test that drew it builds it, as assembled; none goes through the
whole graph.  Work is bounded by a count (kernel searches or a node
budget), not by a timer.  A strict xfail is an input whose search is
still past its budget; the change that makes one pass turns it into a
plain test."""

import pytest

from nexus.characterize import _can_from_tuples
from nexus.errors import BudgetExceeded
from nexus.formulas import canonical_rename
from nexus.homs import core_of_formula, maps_to
from nexus.oracles import RandomSkbConfig, random_skb
from test_membership_reference import make_kb


def class_can(seed, selector, unit, tau):
    """The renamed can of ``unit`` + ``tau`` over the random KB that
    ``test_matches_reference_on_random_skbs`` draws for ``seed``."""
    kb = random_skb(RandomSkbConfig(
        max_constants=4, predicates=(("isa", 2), ("p", 2)), atom_density=0.2,
        selector=selector, seed=seed,
    ))
    return canonical_rename(_can_from_tuples(sorted(unit | {tau}), kb))


def test_seed_10000_class_core_within_100_searches(kernel_runs):
    """Seed 10000 under sigma0, the unit {(e3,e4),(e4,e2),(e2,e3)} and the
    tuple (e3,e2): 2,657 atoms folding to 59.  The retraction witness
    answers most tests, so the core takes 53 searches; testing every
    atom takes 2,642 and tens of seconds."""
    can = class_can(10_000, "sigma0", {("e3", "e4"), ("e4", "e2"), ("e2", "e3")}, ("e3", "e2"))
    assert (len(can.atoms), len(can.vars)) == (2_657, 252)
    kernel_runs(limit=100)
    assert len(core_of_formula(can).atoms) == 59


@pytest.mark.xfail(raises=BudgetExceeded, strict=True,
                   reason="heavy-tailed core search; ROADMAP items 4 and 6")
def test_seed_356_class_core_within_a_small_budget():
    """Seed 356 under neighborhood:1, the unit {(e2,e2),(e1,e3),(e1,e4)}
    and the tuple (e3,e1): 378 atoms over 126 variables.  Its fourth block
    search exceeds 20,000 nodes, and still 1,000,000."""
    can = class_can(356, "neighborhood:1", {("e2", "e2"), ("e1", "e3"), ("e1", "e4")}, ("e3", "e1"))
    assert (len(can.atoms), len(can.vars)) == (378, 126)
    core_of_formula(can, budget=20_000)


@pytest.mark.xfail(raises=BudgetExceeded, strict=True,
                   reason="heavy-tailed core search; ROADMAP items 4 and 6")
def test_seed_2727_class_core_within_a_small_budget():
    """Seed 2727 under neighborhood:1, the unit {(e3,e2),(e1,e2),(e2,e1)}
    and the tuple (e3,e3): 221 atoms over 78 variables, the one class
    core of that graph that exceeds 20,000 nodes (in its fourth block
    search), as the whole graph exceeds the default budget."""
    can = class_can(2727, "neighborhood:1", {("e3", "e2"), ("e1", "e2"), ("e2", "e1")}, ("e3", "e3"))
    assert (len(can.atoms), len(can.vars)) == (221, 78)
    core_of_formula(can, budget=20_000)


@pytest.mark.xfail(raises=BudgetExceeded, strict=True,
                   reason="heavy-tailed core search; ROADMAP items 4 and 6")
def test_seed_151_class_core_within_a_small_budget():
    """Seed 151 under neighborhood:1, the unit {(e4,e4),(e2,e4),(e1,e4)}
    and the tuple (e2,e2): 287 atoms over 81 variables.  Its first block
    search exceeds 20,000 nodes, and still 2,000,000."""
    can = class_can(151, "neighborhood:1", {("e4", "e4"), ("e2", "e4"), ("e1", "e4")}, ("e2", "e2"))
    assert (len(can.atoms), len(can.vars)) == (287, 81)
    core_of_formula(can, budget=20_000)


@pytest.mark.xfail(raises=BudgetExceeded, strict=True,
                   reason="heavy-tailed core search; ROADMAP items 4 and 6")
def test_seed_8373_class_core_within_a_small_budget():
    """Seed 8373 under neighborhood:1, the unit {(e1,e3),(e2,e1),(e4,e3)}
    and the tuple (e4,e4): 1,027 atoms over 207 variables.  Its 114th
    block search exceeds 20,000 nodes, and still 1,000,000."""
    can = class_can(8373, "neighborhood:1", {("e1", "e3"), ("e2", "e1"), ("e4", "e3")}, ("e4", "e4"))
    assert (len(can.atoms), len(can.vars)) == (1_027, 207)
    core_of_formula(can, budget=20_000)


@pytest.mark.xfail(raises=BudgetExceeded, strict=True,
                   reason="heavy-tailed map search; ROADMAP item 6")
def test_seed_967_class_can_maps_to_itself_within_a_small_budget():
    """Seed 967 of ``make_kb`` under component, the unit {(e2,e1),(e2,e4)}
    and the tuple (e1,e1), as ``test_fingerprint_inclusion_is_the_hom_order``
    draws it: the can as assembled has 345 atoms over 60 variables.  The
    identity map exists, but the search for a self-map exceeds 20,000
    nodes, and still 1,000,000."""
    kb = make_kb(967, "component")
    can = _can_from_tuples(sorted({("e2", "e1"), ("e2", "e4"), ("e1", "e1")}), kb)
    assert (len(can.atoms), len(can.vars)) == (345, 60)
    maps_to(can, can, budget=20_000)
