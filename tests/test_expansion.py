import itertools
import os
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest

from nexus import expansion
from nexus.characterize import build_can
from nexus.errors import InvariantViolation, MixedArity, OverlapWithUnit, TupleSpaceTooLarge
from nexus.expansion import (
    INC,
    PREC,
    PREC_INV,
    SIM,
    build_expansion_graph,
    compare,
    ess_member,
    ess_set,
    gad1,
    gad2,
    is_definable,
)
from nexus.homs import canonical_class, is_isomorphic
from nexus.kb import validate_unit
from nexus.oracles import RandomSkbConfig, brute_instances, random_skb, random_unit


def test_parks_unit_definable(parks_kb, parks_unit):
    assert is_definable(parks_unit, parks_kb)


def test_parks_unit_plus_florida_not_definable(parks_kb, parks_dataset):
    u = validate_unit(
        [("Discovery_Cove",), ("Epcot",), ("Florida",)], parks_dataset
    )
    assert not is_definable(u, parks_kb)


def test_full_space_definable(parks_kb, parks_dataset):
    u = validate_unit([(c,) for c in parks_dataset.domain], parks_dataset)
    assert is_definable(u, parks_kb)


def test_ess_member_examples(parks_kb, parks_unit):
    assert not ess_member(parks_unit, parks_kb, ("Gardaland",))
    for tau in parks_unit:
        assert ess_member(parks_unit, parks_kb, tau)


def test_ess_set_parks_unit(parks_kb, parks_unit):
    assert ess_set(parks_unit, parks_kb) == parks_unit.tuples


def test_ess_set_prater_leolandia(parks_kb, parks_dataset):
    u = validate_unit([("Prater",), ("Leolandia",)], parks_dataset)
    expected = {
        ("Prater",),
        ("Leolandia",),
        ("Pacific_Park",),
        ("Gardaland",),
        ("Discovery_Cove",),
        ("Epcot",),
    }
    assert ess_set(u, parks_kb) == expected
    assert brute_instances(build_can(u, parks_kb), parks_kb) == expected


def test_ess_set_full_space(parks_kb, parks_dataset):
    u = validate_unit([(c,) for c in parks_dataset.domain], parks_dataset)
    assert ess_set(u, parks_kb) == u.tuples


def test_ess_contains_unit_on_seeds():
    rng = random.Random(55)
    for i in range(20):
        kb = random_skb(RandomSkbConfig(max_constants=4, atom_density=0.2, seed=500 + i))
        unit = random_unit(kb, rng)
        assert unit.tuples <= ess_set(unit, kb)


def test_gadgets(parks_kb, parks_unit):
    assert gad1(parks_kb, parks_unit, ("Prater",), ("Leolandia",))
    assert not gad1(parks_kb, parks_unit, ("Gardaland",), ("Pacific_Park",))
    assert gad2(parks_kb, parks_unit, ("Prater",), ("Leolandia",))
    # tau == tau2 is allowed and trivially true
    assert gad1(parks_kb, parks_unit, ("Prater",), ("Prater",))
    assert gad2(parks_kb, parks_unit, ("Prater",), ("Prater",))


def test_gadgets_agree_with_brute_membership(parks_kb, parks_unit, parks_dataset):
    """The gadget verdicts re-derived by brute instance enumeration over
    the extended units."""
    for tau, tau2, expected in [
        (("Prater",), ("Leolandia",), True),
        (("Gardaland",), ("Pacific_Park",), False),
    ]:
        extended = validate_unit(parks_unit.tuples | {tau2}, parks_dataset)
        oracle = tau in brute_instances(build_can(extended, parks_kb), parks_kb)
        assert gad1(parks_kb, parks_unit, tau, tau2) is oracle is expected


def test_gadgets_reject_unit_overlap(parks_kb, parks_unit):
    with pytest.raises(OverlapWithUnit):
        gad1(parks_kb, parks_unit, ("Epcot",), ("Prater",))
    with pytest.raises(OverlapWithUnit):
        compare(parks_kb, parks_unit, ("Prater",), ("Epcot",))


@pytest.mark.parametrize("gadget, tau, tau2", [
    pytest.param(gad1, ("Prater",), ("Prater", "Epcot"), id="gad1"),
    pytest.param(gad2, ("Prater", "Epcot"), ("Prater",), id="gad2"),
])
def test_gadgets_reject_wrong_arity(parks_kb, parks_unit, gadget, tau, tau2):
    with pytest.raises(MixedArity, match="does not match the unit arity"):
        gadget(parks_kb, parks_unit, tau, tau2)


def test_compare_parks_entities(parks_kb, parks_unit):
    assert compare(parks_kb, parks_unit, ("Gardaland",), ("Leolandia",)) == PREC
    assert compare(parks_kb, parks_unit, ("Leolandia",), ("Gardaland",)) == PREC_INV
    assert compare(parks_kb, parks_unit, ("Prater",), ("Leolandia",)) == SIM
    assert compare(parks_kb, parks_unit, ("Gardaland",), ("Pacific_Park",)) == INC


def test_compare_antisymmetric_and_total(parks_kb, parks_unit):
    outside = [("Gardaland",), ("Leolandia",), ("Prater",), ("Pacific_Park",), ("tp",), ("US",)]
    swap = {PREC: PREC_INV, PREC_INV: PREC, SIM: SIM, INC: INC}
    for t1, t2 in itertools.combinations(outside, 2):
        verdict = compare(parks_kb, parks_unit, t1, t2)
        assert verdict in (PREC, PREC_INV, SIM, INC)
        assert compare(parks_kb, parks_unit, t2, t1) == swap[verdict]


def test_compare_agrees_with_ess_containment(parks_kb, parks_unit):
    """The gadget decision rule against the definition by strict
    containment of essential expansions."""
    outside = [("Gardaland",), ("Leolandia",), ("Pacific_Park",), ("US",)]
    for t1, t2 in itertools.permutations(outside, 2):
        e1 = ess_set(validate_unit(parks_unit.tuples | {t1}, parks_kb.dataset), parks_kb)
        e2 = ess_set(validate_unit(parks_unit.tuples | {t2}, parks_kb.dataset), parks_kb)
        verdict = compare(parks_kb, parks_unit, t1, t2)
        if e1 == e2:
            assert verdict == SIM
        elif e1 < e2:
            assert verdict == PREC
        elif e2 < e1:
            assert verdict == PREC_INV
        else:
            assert verdict == INC


# ---------------------------------------------------------------------------
# Expansion graph


def test_expansion_graph_parks_taxonomy(parks_kb, parks_unit, parks_cores):
    graph = build_expansion_graph(parks_unit, parks_kb)
    assert len(graph.nodes) == 6

    where = {}
    for name, phi in parks_cores.items():
        hits = [i for i, n in enumerate(graph.nodes) if is_isomorphic(n.core, phi)]
        assert len(hits) == 1, name
        where[name] = hits[0]

    assert graph.source == where["florida_tp"]
    expected_arcs = {
        (where["florida_tp"], where["us_ap"]),
        (where["florida_tp"], where["tp_anywhere"]),
        (where["tp_anywhere"], where["located_ap"]),
        (where["us_ap"], where["located_ap"]),
        (where["located_ap"], where["any_ap"]),
        (where["any_ap"], where["anything"]),
    }
    assert graph.arcs == expected_arcs

    deltas = {name: graph.nodes[i].direct for name, i in where.items()}
    assert deltas["florida_tp"] == parks_unit.tuples
    assert deltas["us_ap"] == {("Pacific_Park",)}
    assert deltas["tp_anywhere"] == {("Gardaland",)}
    assert deltas["located_ap"] == {("Prater",), ("Leolandia",)}
    assert deltas["any_ap"] == {("tp",)}
    assert deltas["anything"] == {
        ("Florida",), ("California",), ("US",), ("ap",), ("Austria",), ("Italy",)
    }


def test_expansion_graph_single_node(parks_kb, parks_dataset):
    u = validate_unit([(c,) for c in parks_dataset.domain], parks_dataset)
    graph = build_expansion_graph(u, parks_kb)
    assert len(graph.nodes) == 1
    assert graph.nodes[0].direct == u.tuples
    assert not graph.arcs


def test_expansion_graph_tuple_cap(parks_kb, parks_unit):
    with pytest.raises(TupleSpaceTooLarge):
        build_expansion_graph(parks_unit, parks_kb, tuple_cap=5)


def test_expansion_graph_invariants_on_seeds():
    """DAG / partition / unique-source / source-direct-equals-ess are
    checked inside the builder; this drives it over a seeded corpus."""
    rng = random.Random(66)
    for i in range(15):
        kb = random_skb(RandomSkbConfig(max_constants=4, atom_density=0.22, seed=600 + i))
        unit = random_unit(kb, rng)
        graph = build_expansion_graph(unit, kb)
        assert graph.nodes[graph.source].direct == frozenset(ess_set(unit, kb))


def test_expansion_graph_with_heavy_tailed_class_cores():
    """A heavy-tailed input, seed 907 under neighborhood:1: every block
    search of its class cores fits in a budget of 100k nodes."""
    kb = random_skb(RandomSkbConfig(
        seed=907, max_constants=4, atom_density=0.25, selector="neighborhood:1"
    ))
    unit = validate_unit([("e2", "e4"), ("e4", "e3")], kb.dataset)
    graph = build_expansion_graph(unit, kb, budget=100_000)
    assert len(graph.nodes) == 15


def test_sandwiched_units_share_class(parks_kb, parks_dataset):
    """Units between a unit and its essential expansion have the same
    core-characterization class."""
    u = validate_unit([("Prater",), ("Leolandia",)], parks_dataset)
    ess = ess_set(u, parks_kb)
    base = canonical_class(build_can(u, parks_kb))
    rng = random.Random(9)
    middles = sorted(t for t in ess if t not in u.tuples)
    for _ in range(4):
        extra = rng.sample(middles, rng.randint(1, len(middles)))
        between = validate_unit(u.tuples | set(extra), parks_dataset)
        assert canonical_class(build_can(between, parks_kb)) == base


def test_a_class_of_inequivalent_cans_is_refused(parks_kb, parks_unit, monkeypatch):
    """Every parks tuple given one fingerprint: the first tuple whose can
    is not hom-equivalent to its representative's stops the graph."""
    monkeypatch.setattr(expansion._Closures, "infer", lambda self, *args: self.base)
    with pytest.raises(InvariantViolation, match="landed in different classes"):
        build_expansion_graph(parks_unit, parks_kb)


def test_invariant_checks_survive_optimized_mode():
    """Under ``python -O`` a corrupted graph must still be refused: one
    whose direct instances miss a tuple, one with an arc reversed, and one
    whose classification puts every parks tuple in one class."""
    code = textwrap.dedent("""
        import dataclasses
        import sys
        from pathlib import Path
        from nexus import expansion
        from nexus.errors import InvariantViolation
        from nexus.expansion import _check_invariants, build_expansion_graph, ess_set
        from nexus.kb import (
            SelectiveKB, SelectorSpec, atom, close_under_top, parse_facts, validate_unit,
        )

        kb = SelectiveKB(
            close_under_top([atom("r", "a", "b"), atom("r", "b", "a"), atom("s", "a", "a")]),
            SelectorSpec.full(),
        )
        unit = validate_unit([("a",)], kb.dataset)
        graph = build_expansion_graph(unit, kb)
        nodes = list(graph.nodes)
        nodes[graph.source] = dataclasses.replace(nodes[graph.source], direct=frozenset())
        cyclic = graph.arcs | {(j, i) for i, j in graph.arcs}
        space = [(c,) for c in sorted(kb.dataset.domain)]
        ess = frozenset(ess_set(unit, kb))
        for broken in (dataclasses.replace(graph, nodes=tuple(nodes)),
                       dataclasses.replace(graph, arcs=cyclic)):
            try:
                _check_invariants(broken, space, ess)
            except InvariantViolation as exc:
                print("refused:", exc)

        parks = parse_facts(Path(sys.argv[1]).read_text())
        expansion._Closures.infer = lambda self, *args: self.base
        try:
            build_expansion_graph(validate_unit([("Discovery_Cove",), ("Epcot",)], parks),
                                  SelectiveKB(parks, SelectorSpec.sigma0()))
        except InvariantViolation as exc:
            print("refused:", exc)
    """)
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code, str(root / "data" / "parks.nxf")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines() == [
        "refused: direct instances must partition the tuple space",
        "refused: expansion graph has a cycle",
        "refused: tuples with equal instance sets landed in different classes",
    ]
