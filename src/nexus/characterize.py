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
those constants over per-operand indexes, kept on each operand's
``Dataset``.  The search joins a binary atom by its partner and emits it
from its lower-numbered end, and joins a relation symmetric in every
operand at one of its positions only, emitting both atoms of each edge
there.  ``product_datasets`` runs the same search from every product
constant to materialize the whole product.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from .errors import ArityConflict, MixedArity
from .formulas import Formula, canonical_rename
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
    consts, rows = _reachable_product(datasets, seeds)
    names = ["d|" + "|".join(pc) for pc in consts]
    return Dataset(
        [Atom(pred, tuple([names[i] for i in args])) for pred, args in rows]
        + [Atom(pred, ()) for pred in nullary]
    )


# ---------------------------------------------------------------------------
# Canonical characterization


def _operand_index(
    atoms: Iterable[Atom],
) -> tuple[dict[str, dict[tuple, list]], frozenset[str]]:
    """The walk's index of one operand's atoms: value -> slot -> entries,
    one per atom that holds the value at the slot's position, and the
    binary predicates that are symmetric in the operand, each atom
    ``p(a, b)`` with its reverse ``p(b, a)``.  A binary atom's slot is
    ``(pred, position)`` and its entry the value at the other position,
    its partner; any other atom's slot is ``(pred, position, arity)`` and
    its entry the argument tuple.  Built once per ``Dataset``
    (``Dataset.index``)."""
    index: dict[str, dict[tuple, list]] = {}
    binary: dict[str, set[tuple]] = {}
    for a in atoms:
        if len(a.args) == 2:
            s, o = a.args
            index.setdefault(s, {}).setdefault((a.pred, 0), []).append(o)
            index.setdefault(o, {}).setdefault((a.pred, 1), []).append(s)
            binary.setdefault(a.pred, set()).add(a.args)
        else:
            for pos, value in enumerate(a.args):
                slot = (a.pred, pos, len(a.args))
                index.setdefault(value, {}).setdefault(slot, []).append(a.args)
    symmetric = frozenset(pred for pred, pairs in binary.items()
                          if all((o, s) in pairs for s, o in pairs))
    return index, symmetric


def _reachable_product(
    summaries: Sequence[Dataset], frees: Sequence[tuple[str, ...]]
) -> tuple[list[tuple[str, ...]], list[tuple[str, tuple[int, ...]]]]:
    """The atoms of the direct product that are connected to the free
    product constants.  A product constant is the tuple of its parts, one
    per operand, and is numbered as the walk finds it, the free ones first
    in the given order: the walk returns the product constants by number
    and the atoms, each once, as ``(pred, args)`` with each argument a
    number.

    Breadth-first over product constants: the product atoms holding a
    constant c at position p are the same-predicate combinations of the
    operands' atoms holding c's j-th part at p, so joining one index list
    per operand yields exactly them, and the rest of the product is never
    built.  A binary atom is joined by partner: the combination is the
    partner product constant itself, and the atom is emitted from its
    lower-numbered end only (from position 0 when both ends are c).  The
    walk is breadth-first in number order, so a partner numbered below c
    was walked before and has emitted the atom already: the repeat is
    still enumerated, but it costs one lookup and a compare, not a tuple
    built and hashed.  Atoms of other arities are joined into a set.

    A predicate symmetric in every operand is symmetric in the product,
    and its partners of c at position 0 are those at position 1 (the
    undirected-graph view of a symmetric relation; Hell & Nesetril,
    *Graphs and Homomorphisms*, 2004).  The same join serves it, run once
    per constant, at whichever position the walk meets first, which
    numbers new partners as the two joins did, and each edge emits both
    its atoms there: ``p(c, d)`` and ``p(d, c)`` for a partner d numbered
    above c, and ``p(c, c)`` once.
    """
    indexes = [s.index(_operand_index) for s in summaries]
    first, *rest = [index for index, _symmetric in indexes]
    # symmetric predicate -> the number of the constant last joined by it
    joined = dict.fromkeys(frozenset.intersection(*[sym for _index, sym in indexes]), -1)
    number = {c: i for i, c in enumerate(dict.fromkeys(frees))}
    consts = list(number)
    rows: list[tuple[str, tuple[int, ...]]] = []
    wide: set[tuple[str, tuple[int, ...]]] = set()  # atoms of arity other than 2
    for i, c in enumerate(consts):  # grows while it is walked
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
                if len(slot) == 2:
                    pred, pos = slot
                    symmetric = pred in joined  # symmetric in every operand
                    if symmetric:
                        if joined[pred] == i:
                            continue  # joined at the other position
                        joined[pred] = i
                    for partner in itertools.product(*pools):
                        j = number.get(partner)
                        if j is None:  # met for the first time
                            j = number[partner] = len(consts)
                            consts.append(partner)
                        elif j < i or (j == i and pos and not symmetric):
                            continue  # emitted from the lower-numbered end
                        rows.append((pred, (j, i) if pos and not symmetric else (i, j)))
                        if symmetric and j != i:
                            rows.append((pred, (j, i)))
                    continue
                for combo in itertools.product(*pools):
                    args = tuple(map(number.get, zip(*combo)))
                    if None in args:  # product constants met for the first time
                        for t in zip(*combo):
                            if t not in number:
                                number[t] = len(consts)
                                consts.append(t)
                        args = tuple(map(number.get, zip(*combo)))
                    wide.add((slot[0], args))
    rows += wide
    return consts, rows


def _assemble(
    tuples: Sequence[ConstTuple], kb: SelectiveKB
) -> tuple[list[Var], list, list[tuple[str, tuple[int, ...]]]]:
    """The canonical characterization of an explicitly ordered tuple
    sequence, read off the product walk with no ``Atom`` built and nothing
    sorted: its head, its terms, and its atoms as ``(pred, args)`` rows,
    each argument the number of a term.

    Only the part of the product connected to the free product constants
    is built.  That is exact: each product constant gets its terms once,
    ``x|…`` when it is free, ``y|…`` when it is bound, the base constant b
    for a gene (b,…,b), and both ``x|b|…|b`` and b for a free gene; so
    terms shared by assembled atoms come from shared product constants.
    Without a free gene each product constant has one term, numbered as
    the walk numbered it, and each reachable product atom is a row as it
    stands, linked term by term to a free variable: the can is nearly
    connected already.  With a free gene, each product atom gives a row
    per choice of terms, and the rows are restricted to the nearly
    connected part, because base clones such as ``top(b)`` from
    ``top(x|b|b)`` can fall outside the free variables' component; the
    terms left are numbered again.

    The variables keep the names of their product constants.  The kernel
    breaks ties by variable name, so a search of the assembled can
    explores a different tree than one of its canonically renamed
    presentation: its answer is the same, its node count and the point
    where a budget runs out are not.

    Every decision of a unit's can compiles these rows: ``ess_member``
    and the graph's classification as they stand, the sweeps folded
    (``homs._sweep``).  ``_formula`` turns them into a formula.
    """
    summaries = [kb.summary(t) for t in tuples]
    frees = product_tuples(tuples)
    consts, rows = _reachable_product(summaries, frees)
    n_free = len(set(frees))
    terms: list = []
    own: list[tuple[int, ...]] = []  # product constant -> numbers of its terms
    for i, pc in enumerate(consts):
        mine = [Var("x|" + "|".join(pc))] if i < n_free else []
        if len(set(pc)) == 1:
            mine.append(pc[0])
        elif i >= n_free:
            mine.append(Var("y|" + "|".join(pc)))
        own.append(tuple(range(len(terms), len(terms) + len(mine))))
        terms += mine
    head = [terms[own[consts.index(pc)][0]] for pc in frees]
    if len(terms) == len(consts):
        return head, terms, rows
    rows = [(pred, combo) for pred, args in rows
            for combo in itertools.product(*[own[i] for i in args])]
    # the nearly-connected part: rows linked to the head through shared terms
    holding: list[list[int]] = [[] for _ in terms]
    for r, (_pred, args) in enumerate(rows):
        for t in args:
            holding[t].append(r)
    reached = [own[i][0] for i in range(n_free)]
    number = {t: i for i, t in enumerate(reached)}  # reached term -> new number
    kept = []
    for t in reached:  # grows while it is walked
        for r in holding[t]:
            if rows[r] is not None:
                kept.append(rows[r])
                for u in rows[r][1]:
                    if u not in number:
                        number[u] = len(reached)
                        reached.append(u)
                rows[r] = None
    return (head, [terms[t] for t in reached],
            [(pred, tuple([number[t] for t in args])) for pred, args in kept])


def _formula(head: list[Var], terms: list, rows: list[tuple[str, tuple[int, ...]]]) -> Formula:
    """The formula of an ``_assemble`` result: its rows as atoms."""
    return Formula(head, (Atom(pred, tuple([terms[t] for t in args])) for pred, args in rows))


def _can_from_tuples(tuples: Sequence[ConstTuple], kb: SelectiveKB) -> Formula:
    """The canonical characterization of an explicitly ordered tuple
    sequence as assembled (``_assemble``), its variables named after their
    product constants (``x|a|b`` free, ``y|a|b`` bound).  Searches answer
    as on its renamed presentation; only printed formulas pay for the
    renaming (``build_can``, its one engine caller, and the graph's class
    cores, which ``_formula`` builds from the rows the graph holds)."""
    return _formula(*_assemble(tuples, kb))


def build_can(unit: Unit, kb: SelectiveKB) -> Formula:
    """The canonical characterization of a unit, canonically renamed for
    printing.

    The unit's tuples are ordered lexicographically before multiplying, so
    repeated runs produce the same formula.  The product is built by
    search from the free product constants, never materialized whole.
    Decisions search the can as assembled (``_assemble``) instead: the
    renaming changes no answer, only node counts and budget points.
    """
    return canonical_rename(_can_from_tuples(unit.sorted_tuples(), kb))


def build_core_char(unit: Unit, kb: SelectiveKB, budget: int | None = None) -> Formula:
    """The core characterization: the canonical one with every removable
    atom dropped, canonically renamed for printing."""
    return canonical_rename(core_of_formula(build_can(unit, kb), budget))


def can_size_bound(unit: Unit, kb: SelectiveKB) -> int:
    """2^omega times the product of the summary sizes: an upper bound on
    the size of the canonical characterization."""
    bound = 2 ** kb.dataset.omega
    for t in unit.sorted_tuples():
        bound *= len(kb.summary(t))
    return bound
