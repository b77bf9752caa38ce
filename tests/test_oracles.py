import itertools
import random

import pytest

from nexus.characterize import build_can, build_core_char
from nexus.errors import ParseError, ReservedSymbolCollision, TooLarge
from nexus.expansion import ess_member, ess_set, is_definable
from nexus.formulas import parse_formula, top_formula
from nexus.homs import instances
from nexus.kb import SelectiveKB, SelectorSpec, atom, close_under_top, validate_unit
from nexus.oracles import (
    RandomSkbConfig,
    brute_definable_units,
    brute_ess,
    brute_evaluate,
    brute_instances,
    color_graph,
    gadget_double,
    gadget_fc,
    gadget_off,
    gadget_tw,
    gen_3col_instance,
    gen_prime_cycles,
    lift_tuple,
    parse_edgelist,
    prime_cycle_expected_size,
    random_skb,
    random_unit,
)


def test_brute_instances_phi3_empty(parks_kb):
    phi3 = parse_formula("y <- located(?x,y), partOf(y,US)")
    assert brute_instances(phi3, parks_kb) == set()


def test_random_skb_deterministic_per_seed():
    cfg = RandomSkbConfig(max_constants=5, atom_density=0.3, seed=123)
    assert random_skb(cfg).dataset == random_skb(cfg).dataset


def test_brute_instances_top(parks_kb):
    assert brute_instances(top_formula(1), parks_kb) == {(c,) for c in parks_kb.dataset.domain}


def test_brute_guard():
    kb = random_skb(RandomSkbConfig(max_constants=5, atom_density=0.5, seed=3))
    phi = parse_formula(
        "x <- " + ", ".join(f"p(x,?v{i})" for i in range(12))
    )
    with pytest.raises(TooLarge):
        brute_evaluate(phi, kb.dataset, guard=1000)


def test_engine_agrees_with_brute_on_cans():
    rng = random.Random(21)
    for i in range(30):
        kb = random_skb(RandomSkbConfig(max_constants=4, atom_density=0.2, seed=700 + i))
        unit = random_unit(kb, rng)
        can = build_can(unit, kb)
        assert instances(can, kb) == brute_instances(can, kb), i


def test_definable_units_contains_full_space():
    kb = random_skb(RandomSkbConfig(max_constants=3, atom_density=0.3, seed=9))
    definable = brute_definable_units(kb, 1)
    full = frozenset((c,) for c in kb.dataset.domain)
    assert full in definable


def test_definable_units_matches_engine_definability():
    checked = 0
    for seed in range(20):
        kb = random_skb(RandomSkbConfig(max_constants=3, atom_density=0.22, seed=seed))
        try:
            definable = brute_definable_units(kb, 1)
        except TooLarge:
            continue
        space = [(c,) for c in sorted(kb.dataset.domain)]
        for size in range(1, len(space) + 1):
            for combo in itertools.combinations(space, size):
                unit = validate_unit(combo, kb.dataset)
                assert is_definable(unit, kb) == (frozenset(combo) in definable)
        checked += 1
        if checked == 5:
            break
    assert checked == 5


def test_ess_by_intersection_parks_shape():
    """A shrunken parks-style SKB: the essential expansion
    computed by the engine equals the intersection of all definable
    supersets found by the brute oracle."""
    ds = close_under_top(
        [
            atom("isa", "e1", "tp"),
            atom("isa", "e1", "ap"),
            atom("isa", "e2", "tp"),
            atom("isa", "e2", "ap"),
            atom("isa", "e3", "ap"),
            atom("located", "e1", "f"),
            atom("located", "e2", "f"),
            atom("located", "e3", "g"),
        ]
    )
    kb = SelectiveKB(ds, SelectorSpec.sigma0())
    u = validate_unit([("e1",), ("e2",)], ds)
    assert ess_set(u, kb) == u.tuples
    assert brute_ess(kb, u) == u.tuples


def test_ess_by_intersection_on_seeds():
    """The canonical-characterization instance set equals the smallest
    definable superset found by power-set enumeration; infeasible seeds
    (brute guard) are skipped deterministically."""
    rng = random.Random(31)
    checked = 0
    for i in range(40):
        kb = random_skb(RandomSkbConfig(max_constants=3, atom_density=0.22, seed=800 + i))
        unit = random_unit(kb, rng, max_arity=1)
        try:
            oracle = brute_ess(kb, unit)
        except TooLarge:
            continue
        assert ess_set(unit, kb) == oracle, i
        checked += 1
        if checked == 12:
            break
    assert checked == 12


# ---------------------------------------------------------------------------
# Gadgets


def test_gadget_tw_literal():
    assert gadget_tw({"c"}, 2) == {atom("top", "c^2"), atom("twin_2", "c", "c^2")}
    assert gadget_tw({"c"}, 1) == set()


def test_gadget_fc():
    assert gadget_fc([]) == set()
    assert gadget_fc(["b", "a"]) == {atom("focus", "a"), atom("focus", "b")}


def test_gadget_double_literal():
    d = close_under_top([atom("p", "a", "b")])
    out = gadget_double(d, "a")
    assert out.atoms == {
        atom("p", "a", "b"),
        atom("p", "alias", "b"),
        atom("top", "a"),
        atom("top", "alias"),
        atom("top", "b"),
    }


def test_gadget_off():
    assert gadget_off(("c^2", "alias", "d"), "a") == ("c", "a", "d")
    assert lift_tuple(("a",), 3) == ("a", "a^2", "a^3")


def test_gadget_reserved_collision():
    with pytest.raises(ReservedSymbolCollision):
        gadget_tw({"alias"}, 2)
    d = close_under_top([atom("focus", "a")])
    with pytest.raises(ReservedSymbolCollision):
        gadget_double(d, "a")


# ---------------------------------------------------------------------------
# Prime cycles


@pytest.mark.parametrize("mbar,size", [(1, 4), (2, 12), (3, 60)])
def test_prime_cycle_sizes(mbar, size):
    assert prime_cycle_expected_size(mbar) == size
    kb, unit = gen_prime_cycles(mbar)
    can = build_can(unit, kb)
    core = build_core_char(unit, kb)
    assert can.size == size
    assert core.size == size


def test_prime_cycles_cap():
    with pytest.raises(TooLarge):
        gen_prime_cycles(5)


def test_prime_cycle_summaries_are_single_cycles():
    kb, unit = gen_prime_cycles(3)
    for i, p in enumerate((2, 3, 5), start=1):
        summary = kb.summary((f"c1^{i}",))
        assert len(summary) == 2 * p


# ---------------------------------------------------------------------------
# 3-colorability reduction


TRIANGLE = (["u", "v", "w"], [("u", "v"), ("u", "w"), ("v", "w")])
K4 = (
    ["u", "v", "w", "z"],
    [("u", "v"), ("u", "w"), ("u", "z"), ("v", "w"), ("v", "z"), ("w", "z")],
)
C5 = (
    ["v1", "v2", "v3", "v4", "v5"],
    [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5"), ("v1", "v5")],
)


def test_color_graph_basics():
    assert color_graph(*TRIANGLE) is not None
    assert color_graph(*K4) is None
    assert color_graph(*C5) is not None
    coloring = color_graph(*C5)
    adjacency = {frozenset(e) for e in C5[1]}
    for u, v in adjacency:
        assert coloring[u] != coloring[v]


def test_color_graph_needs_no_deep_recursion():
    """A path of 3,000 vertices, three times the default recursion limit,
    is colored; K4 still is not."""
    path = [f"v{i:04d}" for i in range(3000)]
    edges = list(zip(path, path[1:]))
    coloring = color_graph(path, edges)
    assert coloring.keys() == set(path)
    assert set(coloring.values()) <= {0, 1, 2}
    assert all(coloring[u] != coloring[v] for u, v in edges)
    assert color_graph(*K4) is None


@pytest.mark.parametrize("graph,expected",[(TRIANGLE, True), (K4, False), (C5, True)])
@pytest.mark.parametrize("k", [1, 2])
def test_threecol_reduction(graph, expected, k):
    vertices, edges = graph
    kb, unit, query = gen_3col_instance(vertices, edges, k)
    assert ess_member(unit, kb, query) is expected


def test_threecol_rejects_bad_vertices():
    with pytest.raises(ReservedSymbolCollision):
        gen_3col_instance(["a", "b.c"], [("a", "b.c")], 1)


def test_parse_edgelist():
    vs, es = parse_edgelist("# graph\nu v\nv w\nlonely\n")
    assert set(vs) == {"u", "v", "w", "lonely"}
    assert es == [("u", "v"), ("v", "w")]
    with pytest.raises(ParseError):
        parse_edgelist("a b c\n")
