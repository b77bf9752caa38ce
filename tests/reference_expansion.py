"""The expansion-graph builder that ``nexus`` used before closure
inference, kept verbatim as a test-only reference: every tuple's class
fingerprint is the full ``instances()`` sweep of can(U + tau), and every
ordered pair of classes is tested for the hom-order.  The only changes:
the ignored ``threads`` parameter is gone, and the grouping loop also
records each class's tuples in space order, and each can is canonically
renamed before it is cored, as ``_can_from_tuples`` once did itself.  The
differential tests require the current builder to group the tuples
identically and to print identical JSON and DOT.
"""

from __future__ import annotations

import itertools

from nexus.characterize import _can_from_tuples
from nexus.errors import TupleSpaceTooLarge
from nexus.expansion import ExpansionGraph, ExpansionNode, _check_invariants
from nexus.formulas import Formula, canonical_rename
from nexus.homs import (
    FormulaClass,
    canonical_class,
    core_of_formula,
    equivalent,
    instances,
    maps_to,
)
from nexus.kb import ConstTuple, SelectiveKB, Unit


def _class_of_tuple(unit: Unit, kb: SelectiveKB, tau: ConstTuple, budget: int | None):
    """The canonical characterization of ``unit + tau`` and its instance
    set, the fingerprint its class is grouped by."""
    can = _can_from_tuples(sorted(unit.tuples | {tau}), kb)
    return can, frozenset(instances(can, kb, budget))


def build_expansion_graph(
    unit: Unit,
    kb: SelectiveKB,
    tuple_cap: int | None = 100_000,
    budget: int | None = None,
) -> tuple[ExpansionGraph, dict[frozenset, list[ConstTuple]]]:
    """The graph, and each fingerprint's tuples in space order."""
    n = unit.arity
    consts = sorted(kb.dataset.domain)
    if tuple_cap is not None and len(consts) ** n > tuple_cap:
        raise TupleSpaceTooLarge(
            f"{len(consts)}^{n} candidate tuples exceed the cap {tuple_cap}",
            cap=tuple_cap,
        )
    space = [tuple(t) for t in itertools.product(consts, repeat=n)]

    # group by instance fingerprint, then confirm by hom-equivalence
    groups: dict[frozenset, list[Formula]] = {}
    tuples_of: dict[frozenset, list[ConstTuple]] = {}
    for tau in space:
        can, fingerprint = _class_of_tuple(unit, kb, tau, budget)
        groups.setdefault(fingerprint, []).append(can)
        tuples_of.setdefault(fingerprint, []).append(tau)

    classes: list[tuple[frozenset, Formula]] = []
    for fingerprint in sorted(groups, key=lambda f: sorted(f)):
        members = groups[fingerprint]
        reps: list[Formula] = []
        for can in members:
            if not any(equivalent(can, rep, budget) for rep in reps):
                reps.append(can)
        if len(reps) != 1:
            raise AssertionError(
                "tuples with equal instance sets landed in different classes"
            )
        classes.append((fingerprint, reps[0]))

    cores = [canonical_rename(core_of_formula(canonical_rename(can), budget))
             for _fp, can in classes]

    k = len(cores)
    reaches = [[False] * k for _ in range(k)]
    for i, j in itertools.permutations(range(k), 2):
        reaches[i][j] = maps_to(cores[j], cores[i], budget)
    arcs = {
        (i, j)
        for i in range(k)
        for j in range(k)
        if i != j
        and reaches[i][j]
        and not any(
            h != i and h != j and reaches[i][h] and reaches[h][j] for h in range(k)
        )
    }

    direct: list[frozenset] = []
    for j in range(k):
        preds = {i for (i, jj) in arcs if jj == j}
        covered = set().union(*(classes[i][0] for i in preds)) if preds else set()
        direct.append(frozenset(classes[j][0] - covered))

    source_class = canonical_class(
        canonical_rename(_can_from_tuples(unit.sorted_tuples(), kb)), budget
    )
    source_candidates = [
        i for i in range(k) if FormulaClass(cores[i]) == source_class
    ]
    if len(source_candidates) != 1:
        raise AssertionError("the unit's own class must appear once")
    source = source_candidates[0]

    graph = ExpansionGraph(
        nodes=tuple(
            ExpansionNode(core=cores[i], instance_set=classes[i][0], direct=direct[i])
            for i in range(k)
        ),
        arcs=frozenset(arcs),
        source=source,
    )
    _check_invariants(graph, unit, kb, space, budget)
    return graph, tuples_of
