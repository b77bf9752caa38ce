"""Direct products of tuples and datasets, and the canonical
characterization pipeline built on them.

The canonical characterization of a unit is assembled from the direct
product of the summaries of its tuples: product constants over the unit's
columns become the free variables, remaining product constants become
either bound variables or (when all their parts coincide) the underlying
base constant, atoms over all-parts-equal free positions are additionally
cloned onto the base constant, and finally everything that does not
connect to the free variables is discarded.  A product constant is the
tuple of its parts, one per operand.  The pipeline generates only the
product atoms connected to the free product constants, by a search from
those constants over per-operand indexes; ``product_datasets`` runs the
same search from every product constant to materialize the whole product.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from .errors import ArityConflict, MixedArity
from .formulas import Formula, canonical_rename, nearly_connected_part
from .homs import core_of_formula
from .kb import Atom, ConstTuple, Dataset, SelectiveKB, Unit, Var


def product_tuples(tuples: Sequence[ConstTuple]) -> list[tuple[str, ...]]:
    """Positionwise product: entry i collects the i-th constant of every
    tuple, in the given order."""
    if not tuples:
        raise MixedArity("product of zero tuples")
    arities = {len(t) for t in tuples}
    if len(arities) != 1:
        raise MixedArity(f"mixed arities {sorted(arities)} in tuple product")
    return list(zip(*tuples))


def product_datasets(datasets: Sequence[Dataset]) -> Dataset:
    """The materialized direct product, each product constant named ``d|``
    followed by its parts joined by ``|``; a dataset again because every
    operand carries the top atoms of its whole domain.

    It is the product reachable from every product constant, and that is
    the whole product: each product atom of positive arity holds a product
    constant, and a nullary one is a predicate nullary in every operand.
    """
    if not datasets:
        raise MixedArity("product of zero datasets")
    arities: dict[str, int] = {}
    for ds in datasets:
        for a in ds.atoms:
            if arities.setdefault(a.pred, a.arity) != a.arity:
                raise ArityConflict(
                    f"predicate {a.pred!r} has conflicting arities across operands",
                    predicate=a.pred,
                )
    seeds = list(itertools.product(*(sorted(ds.domain) for ds in datasets)))
    nullary = set.intersection(*({a.pred for a in ds.atoms if not a.args} for ds in datasets))
    return Dataset(
        [Atom(pred, tuple("d|" + "|".join(pc) for pc in args))
         for pred, args in _reachable_product(datasets, seeds)]
        + [Atom(pred, ()) for pred in nullary]
    )


# ---------------------------------------------------------------------------
# Canonical characterization


def _operand_index(summary: Dataset) -> dict[str, dict[tuple[str, int], list[tuple]]]:
    """value -> (pred, position) -> argument tuples of the summary's atoms
    that hold the value at the position."""
    index: dict[str, dict[tuple[str, int], list[tuple]]] = {}
    for a in summary.atoms:
        for pos, value in enumerate(a.args):
            index.setdefault(value, {}).setdefault((a.pred, pos), []).append(a.args)
    return index


def _reachable_product(
    summaries: Sequence[Dataset], frees: Sequence[tuple[str, ...]]
) -> set[tuple[str, tuple]]:
    """The atoms of the direct product that are connected to the free
    product constants, as ``(pred, args)`` with each argument a tuple of
    parts, one per operand.

    Breadth-first over product constants: the product atoms holding a
    constant c at position p are the same-predicate combinations of the
    operands' atoms holding c's j-th part at p, so joining one index list
    per operand yields exactly them, and the rest of the product is never
    built.
    """
    first, *rest = [_operand_index(s) for s in summaries]
    seen = set(frees)
    queue = list(frees)
    atoms: set[tuple[str, tuple]] = set()
    for c in queue:  # grows while it is walked
        others = [idx.get(part) for idx, part in zip(rest, c[1:])]
        if None in others:
            continue
        for slot, pool in first.get(c[0], {}).items():
            pools = [pool]
            for other in others:
                match = other.get(slot)
                if match is None:
                    break
                pools.append(match)
            else:
                for combo in itertools.product(*pools):
                    args = tuple(zip(*combo))
                    atoms.add((slot[0], args))
                    for t in args:
                        if t not in seen:
                            seen.add(t)
                            queue.append(t)
    return atoms


def _can_from_tuples(tuples: Sequence[ConstTuple], kb: SelectiveKB) -> Formula:
    """The product construction for an explicitly ordered tuple sequence.

    Only the part of the product connected to the free product constants
    is built.  That is exact: every assembled term comes from one product
    constant (``x|…`` from a free one, ``y|…`` from any other non-gene, a
    base constant b from the gene (b,…,b)), so assembled atoms sharing a
    term come from product atoms sharing a product constant.

    The nearly-connected part is taken only when some unit column is a
    free gene (all tuples share its constant b), because base clones of
    it, such as ``top(b)`` from ``top(x|b|b)``, can fall outside the free
    variables' component.  Without a free gene every product constant has
    exactly one assembled term, so each reachable product atom assembles
    to one atom, and the product atoms linking it to a free product
    constant assemble to atoms linking it, term by term, to a free
    variable: the nearly-connected part would keep everything.

    The can is returned as assembled, its variables named after their
    product constants (``x|a|b`` free, ``y|a|b`` bound), not canonically
    renamed: the decisions that search it answer the same whatever the
    variables are called, and only printed formulas pay for the renaming
    (``build_can``, the graph's class cores).  The kernel breaks ties by
    variable name, so a search of this can explores a different tree than
    one of its renamed presentation: its answer is the same, its node
    count and the point where a budget runs out are not.
    """
    summaries = [kb.summary(t) for t in tuples]
    frees = product_tuples(tuples)
    free_set = set(frees)

    # the assembled terms of each product constant: its variable or base
    # constant, plus the base constant for a free gene
    terms: dict[tuple[str, ...], tuple] = {}

    def choices(pc: tuple[str, ...]) -> tuple:
        hit = terms.get(pc)
        if hit is None:
            gene = len(set(pc)) == 1
            if pc in free_set:
                x = Var("x|" + "|".join(pc))
                hit = (x, pc[0]) if gene else (x,)
            elif gene:
                hit = (pc[0],)
            else:
                hit = (Var("y|" + "|".join(pc)),)
            terms[pc] = hit
        return hit

    atoms = {
        Atom(pred, combo)
        for pred, args in _reachable_product(summaries, frees)
        for combo in itertools.product(*map(choices, args))
    }
    head = [choices(pc)[0] for pc in frees]
    can = Formula(head, atoms)
    if any(len(set(pc)) == 1 for pc in frees):
        return nearly_connected_part(can)
    return can


def build_can(unit: Unit, kb: SelectiveKB) -> Formula:
    """The canonical characterization of a unit, canonically renamed for
    printing.

    The unit's tuples are ordered lexicographically before multiplying, so
    repeated runs produce the same formula.  The product is built by
    search from the free product constants, never materialized whole.
    Decisions search the can as assembled (``_can_from_tuples``) instead:
    the renaming changes no answer, only node counts and budget points.
    """
    return canonical_rename(_can_from_tuples(unit.sorted_tuples(), kb))


def build_core_char(unit: Unit, kb: SelectiveKB, budget: int | None = None) -> Formula:
    """The core characterization: the canonical one with every removable
    atom dropped."""
    return core_of_formula(build_can(unit, kb), budget)


def can_size_bound(unit: Unit, kb: SelectiveKB) -> int:
    """2^omega times the product of the summary sizes: an upper bound on
    the size of the canonical characterization."""
    bound = 2 ** kb.dataset.omega
    for t in unit.sorted_tuples():
        bound *= len(kb.summary(t))
    return bound
