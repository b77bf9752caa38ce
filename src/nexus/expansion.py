"""Definability, essential expansions, pairwise tuple comparison, and the
expansion graph: an is-a taxonomy of core-characterization classes around
a unit.

All decision operations route through the canonical characterization
rather than the core: the two are hom-equivalent, so their instance sets
agree, and the canonical one is cheaper to build.  They search it as
assembled, its variables named after their product constants: a yes/no
answer or a tuple set does not depend on what the variables are called.
Only printed formulas are canonically renamed: ``build_can``,
``build_core_char``, and each class core of the expansion graph, whose
representative is also renamed right before it is cored, which keeps the
printed cores byte-identical.

Every decision about a unit has one compile path: the search source is
compiled straight from the numbered rows of the product walk of its can
(``characterize._assemble``), and no formula is built.  A single
membership (``ess_member``, so the comparison gadgets) compiles them as
they stand; a sweep over many tuples (``is_definable``, ``ess_set``, so
the graph builder's ess(U)) first folds them (``homs._sweep``), dropping
one-variable retractions with a root pass of the kernel per variable.
The graph's classification compiles each can of ``U + tau`` once, as it
stands, and checks it against its class representative too; it decides
each tuple as ``ess_member`` does, with no dataset-wide filter.  Only
class representatives become formulas, to be cored.
"""

from __future__ import annotations

import graphlib
import itertools
import json
from dataclasses import dataclass
from typing import NamedTuple

from .characterize import _assemble, _formula
from .errors import InvariantViolation, MixedArity, OverlapWithUnit, TupleSpaceTooLarge
from .formulas import Formula, canonical_rename, to_text
from .homs import _fold, _maps, _membership_test, _Source, _sweep, _Target, core_of_formula
from .kb import ConstTuple, SelectiveKB, Unit, validate_unit


def is_definable(unit: Unit, kb: SelectiveKB, budget: int | None = None) -> bool:
    """Does some explanation have exactly this unit as its instance set?

    Equivalently: no tuple outside the unit is an instance of its
    canonical characterization, swept as assembled (``homs._sweep``) until
    the first one is found; no unit tuple is searched.  The answer is that
    of the renamed ``build_can``; node counts and the point where
    ``budget`` runs out differ, since the kernel breaks ties by name.
    """
    return next(_sweep(*_assemble(unit.sorted_tuples(), kb), kb, budget, unit.tuples),
                None) is None


def ess_member(
    unit: Unit, kb: SelectiveKB, tau: ConstTuple, budget: int | None = None
) -> bool:
    """Is tau in the essential expansion: one pinned hom search of the
    canonical characterization, as assembled, into tau's summary.  The
    search source is compiled straight from the rows of the product walk
    (``characterize._assemble``), so no formula is built.  The answer is
    that of the renamed ``build_can``; node counts and the point where
    ``budget`` runs out differ, since the kernel breaks ties by name.
    Like ``homs.tuple_membership`` it runs no dataset-wide filter first,
    so a custom selector is consulted for tau.
    """
    head, terms, rows = _assemble(unit.sorted_tuples(), kb)
    return _membership_test(_Source(terms, rows, head), head, kb, budget)(tuple(tau))


def ess_set(unit: Unit, kb: SelectiveKB, budget: int | None = None) -> set[ConstTuple]:
    """The smallest definable superset of the unit: the instance set of
    its canonical characterization, swept as assembled (``homs._sweep``):
    only the tuples the dataset allows are searched.  The set is that of
    the renamed ``build_can``; node counts and the point where ``budget``
    runs out differ, since the kernel breaks ties by name.
    """
    return set(_sweep(*_assemble(unit.sorted_tuples(), kb), kb, budget))


def _extended(unit: Unit, kb: SelectiveKB, tau: ConstTuple) -> Unit:
    if len(tau) != unit.arity:
        raise MixedArity(
            f"tuple arity {len(tau)} does not match the unit arity {unit.arity}"
        )
    return validate_unit(unit.tuples | {tuple(tau)}, kb.dataset)


def _check_disjoint(unit: Unit, tau: ConstTuple, tau2: ConstTuple):
    for t in (tuple(tau), tuple(tau2)):
        if t in unit.tuples:
            raise OverlapWithUnit(f"comparison tuple {t!r} belongs to the unit")


def gad1(
    kb: SelectiveKB,
    unit: Unit,
    tau: ConstTuple,
    tau2: ConstTuple,
    budget: int | None = None,
) -> bool:
    """Does tau fall inside the essential expansion of unit + tau2?  One
    ``ess_member``: no formula is built."""
    _check_disjoint(unit, tau, tau2)
    return ess_member(_extended(unit, kb, tau2), kb, tuple(tau), budget)


def gad2(
    kb: SelectiveKB,
    unit: Unit,
    tau: ConstTuple,
    tau2: ConstTuple,
    budget: int | None = None,
) -> bool:
    """Does tau2 fall inside the essential expansion of unit + tau?
    ``gad1`` with the two tuples swapped."""
    return gad1(kb, unit, tau2, tau, budget)


PREC = "prec"
PREC_INV = "prec_inv"
SIM = "sim"
INC = "inc"


def compare(
    kb: SelectiveKB,
    unit: Unit,
    tau: ConstTuple,
    tau2: ConstTuple,
    budget: int | None = None,
) -> str:
    """How tau's shared properties with the unit relate to tau2's.

    sim: both gadgets accept (equal essential expansions); prec: only the
    first accepts (tau is the more specific side); prec_inv: only the
    second; inc: neither (incomparable expansions).
    """
    g1 = gad1(kb, unit, tau, tau2, budget)
    g2 = gad2(kb, unit, tau, tau2, budget)
    if g1 and g2:
        return SIM
    if g1:
        return PREC
    if g2:
        return PREC_INV
    return INC


# ---------------------------------------------------------------------------
# Expansion graph


@dataclass(frozen=True)
class ExpansionNode:
    """One core-characterization class with its instance bookkeeping."""

    core: Formula
    instance_set: frozenset[ConstTuple]
    direct: frozenset[ConstTuple]


@dataclass(frozen=True)
class ExpansionGraph:
    """Nodes, Hasse arcs of the hom-order, and direct-instance labels.

    Arcs point from the more specific class toward the immediately more
    general one; the unit's own class is the unique source.
    """

    nodes: tuple[ExpansionNode, ...]
    arcs: frozenset[tuple[int, int]]
    source: int

    def sorted_arcs(self) -> list[tuple[int, int]]:
        return sorted(self.arcs)

    def to_json(self) -> str:
        return json.dumps({
            "source": self.source,
            "nodes": [
                {
                    "id": i,
                    "core": to_text(n.core),
                    "instances": [list(t) for t in sorted(n.instance_set)],
                    "direct_instances": [list(t) for t in sorted(n.direct)],
                    "is_source": i == self.source,
                }
                for i, n in enumerate(self.nodes)
            ],
            "arcs": [list(a) for a in self.sorted_arcs()],
        }, indent=2, sort_keys=True) + "\n"

    def to_dot(self) -> str:
        def esc(s: str) -> str:
            return s.replace("\\", "\\\\").replace('"', '\\"')

        lines = ["digraph expansion {", "  node [shape=box];"]
        for i, n in enumerate(self.nodes):
            label = esc(to_text(n.core)) + "\\n" + esc(
                "{" + ", ".join("(" + ",".join(t) + ")" for t in sorted(n.direct)) + "}"
            )
            extra = ", peripheries=2" if i == self.source else ""
            lines.append(f'  n{i} [label="{label}"{extra}];')
        for i, j in self.sorted_arcs():
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


class _Closures:
    """What is known of E(t) = ess(U + t), the fingerprint of each tuple t,
    while the tuple space is classified in order.

    ess is a closure operator, so three facts hold for every t and s:
    ess(U) is a subset of E(t); t is in E(t); and s in E(t) implies that
    E(s) is a subset of E(t).  ``infer`` uses them to decide most of
    E(tau) without a search, and runs a pinned search of can(U + tau) only
    for the memberships no known fact settles.
    """

    def __init__(self, kb: SelectiveKB, space: list[ConstTuple], base: frozenset):
        self.kb = kb
        self.space = frozenset(space)
        self.base = base  # ess(U)
        self.known: dict[ConstTuple, frozenset] = {}  # classified tuple -> E
        self.members: dict[frozenset, list[ConstTuple]] = {}  # E -> its tuples

    def infer(self, tau: ConstTuple, can: _Can, budget: int | None) -> frozenset:
        """E(tau), from known facts and pinned searches of the compiled can
        of U + tau, each decided as ``ess_member`` decides it."""
        if tau in self.base:
            fingerprint = self.base
        else:
            # E(tau) lies inside every known E that holds tau, and a known t
            # whose E(t) is not inside that bound cannot be in E(tau)
            upper = frozenset.intersection(
                self.space, *(e for e in self.members if tau in e)
            )
            inside = set(self.base)
            inside.add(tau)
            outside = {
                t for e, members in self.members.items() if not e <= upper
                for t in members
            }
            # if the bound is a known class, E(tau) is it exactly when that
            # class's representative is in E(tau)
            first = self.members[upper][:1] if upper in self.members else []
            is_member = _membership_test(can.source, can.head, self.kb, budget)
            for sigma in itertools.chain(first, sorted(upper)):
                if sigma in inside or sigma in outside:
                    continue
                if is_member(sigma):
                    inside.add(sigma)
                    inside.update(self.known.get(sigma, ()))
                else:
                    # t with sigma in E(t) cannot be in E(tau)
                    outside.add(sigma)
                    for e, members in self.members.items():
                        if sigma in e:
                            outside.update(members)
            fingerprint = frozenset(inside)
        members = self.members.get(fingerprint)
        if members is None:
            self.members[fingerprint] = members = []
        else:  # one frozenset per class, not one per tuple
            fingerprint = self.known[members[0]]
        members.append(tau)
        self.known[tau] = fingerprint
        return fingerprint


class _Can(NamedTuple):
    """A can as assembled (``characterize._assemble``): the rows ``_fold``
    keeps compiled once with the head pinned, the source of its
    classification and map tests, and its rows indexed once as a search
    target."""

    head: list
    terms: list
    rows: list
    source: _Source
    target: _Target

    @classmethod
    def of(cls, tuples: list[ConstTuple], kb: SelectiveKB) -> _Can:
        head, terms, rows = _assemble(tuples, kb)
        target = _Target(())
        for pred, args in rows:
            target.add(pred, tuple([terms[t] for t in args]))
        return cls(head, terms, rows, _Source(terms, _fold(terms, rows, head), head), target)

    def maps_to(self, other: _Can, budget: int | None) -> bool:
        """``homs.maps_to`` of the cans' formulas: the same search, nodes and budget point."""
        return _maps(self.source, other.target, self.head, other.head, budget)


def _class_of_tuple(
    unit: Unit, kb: SelectiveKB, tau: ConstTuple, closures: _Closures, budget: int | None
):
    """The compiled canonical characterization of ``unit + tau``
    (``_Can``) and its instance set, the fingerprint its class is grouped by."""
    can = _Can.of(sorted(unit.tuples | {tau}), kb)
    return can, closures.infer(tau, can, budget)


def build_expansion_graph(
    unit: Unit,
    kb: SelectiveKB,
    tuple_cap: int | None = 100_000,
    budget: int | None = None,
) -> ExpansionGraph:
    """Classify every tuple over the dataset domain against the unit.

    Tuples are grouped by the instance set of their extended canonical
    characterization, E(tau) = ess(U + tau); equal classes always share it.
    E is inferred rather than swept over the whole space, from three
    closure facts: ess(U) is a subset of every E(tau), so a tau inside
    ess(U) takes ess(U) itself; tau is in E(tau); and sigma in E(tau)
    implies E(sigma) is a subset of E(tau), so one membership settles
    many (see ``_Closures``).  Still checked: every tuple's canonical
    characterization is confirmed hom-equivalent to its class
    representative, the first tuple of the class in space order; a class's
    direct instances, its tuples in no strictly smaller class, partition
    the space; and the source's direct instances are the ess(U) swept
    first (``_check_invariants``).  The unit's own class, the source, is
    the one whose fingerprint is ess(U): a tuple of the unit extends it
    to itself.

    Arcs are the cover relation of strict inclusion among fingerprints,
    which is that of the hom-order on class cores (ten Cate & Dalmau, *The
    product homomorphism problem and applications*, ICDT 2015).  If E_i is
    within E_j, can_j maps into the summary of each tuple of U + tau_i,
    pinned at it, so into their product pinned at its free constants; it
    is nearly connected and sends constants to genes, so the image lies in
    the reachable part, can_i.  A map can_j -> can_i in turn gives E_i
    within E_j.  Classification and equivalence search compiled cans
    (``_Can``); a class representative becomes a formula only to be
    renamed canonically and cored, as the core's greedy order follows atom
    names, and its core is renamed again for printing: so its printed core
    is that of ``build_core_char``.
    ``budget`` caps each classification, equivalence and core search.
    """
    n = unit.arity
    consts = sorted(kb.dataset.domain)
    if tuple_cap is not None and len(consts) ** n > tuple_cap:
        raise TupleSpaceTooLarge(
            f"{len(consts)}^{n} candidate tuples exceed the cap {tuple_cap}",
            cap=tuple_cap,
        )
    space = [tuple(t) for t in itertools.product(consts, repeat=n)]
    closures = _Closures(kb, space, frozenset(ess_set(unit, kb, budget)))

    # group by instance fingerprint, confirming each member by
    # hom-equivalence to the first one, searched as ``homs.equivalent`` does
    reps: dict[frozenset, _Can] = {}
    for tau in space:
        can, fingerprint = _class_of_tuple(unit, kb, tau, closures, budget)
        rep = reps.setdefault(fingerprint, can)
        if rep is not can and not (can.maps_to(rep, budget) and rep.maps_to(can, budget)):
            raise InvariantViolation(
                "tuples with equal instance sets landed in different classes"
            )
    classes = sorted(reps.items(), key=lambda item: sorted(item[0]))

    cores = []
    for _fp, can in classes:
        representative = canonical_rename(_formula(can.head, can.terms, can.rows))
        cores.append(canonical_rename(core_of_formula(representative, budget)))

    k = len(cores)
    fingerprints = [fingerprint for fingerprint, _can in classes]
    arcs = {
        (i, j)
        for i, j in itertools.permutations(range(k), 2)
        if fingerprints[i] < fingerprints[j]
        and not any(fingerprints[i] < e < fingerprints[j] for e in fingerprints)
    }

    direct = [fp.difference(*(e for e in fingerprints if e < fp)) for fp in fingerprints]

    source = fingerprints.index(closures.base)

    graph = ExpansionGraph(
        nodes=tuple(
            ExpansionNode(core=cores[i], instance_set=classes[i][0], direct=direct[i])
            for i in range(k)
        ),
        arcs=frozenset(arcs),
        source=source,
    )
    _check_invariants(graph, space, closures.base)
    return graph


def _check_invariants(graph: ExpansionGraph, space, ess: frozenset):
    k = len(graph.nodes)
    sorter = graphlib.TopologicalSorter()
    for i, j in graph.arcs:
        sorter.add(j, i)
    try:
        sorter.prepare()
    except graphlib.CycleError as err:
        raise InvariantViolation("expansion graph has a cycle") from err

    seen: set[ConstTuple] = set()
    total = 0
    for node in graph.nodes:
        total += len(node.direct)
        seen |= node.direct
    if total != len(space) or seen != set(space):
        raise InvariantViolation("direct instances must partition the tuple space")

    incoming = {j for (_i, j) in graph.arcs}
    sources = [i for i in range(k) if i not in incoming]
    if sources != [graph.source]:
        raise InvariantViolation("exactly one source node expected")

    if graph.nodes[graph.source].direct != ess:
        raise InvariantViolation(
            "the source's direct instances must equal the essential expansion"
        )
