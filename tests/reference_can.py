"""The materialize-then-prune canonical characterization and the quadratic
canonical renaming that ``nexus`` used before the reachable product and the
heap-ordered renaming, kept verbatim as a test-only reference, together
with the full-product generator and the ``d|`` product constant names it
was built on.  The differential tests require the current pipeline to
return equal formulas with identical text on every input.

``_reachable_product`` is the product walk as it was before binary atoms
were joined by partner and emitted once: it builds every product atom
from each end that holds a product constant and drops the repeats in a
set.  The current walk must number the same product constants in the
same order and return the same atoms.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from nexus.errors import ArityConflict, MixedArity, ParseError
from nexus.formulas import Formula, nearly_connected_part
from nexus.kb import Atom, ConstTuple, Dataset, SelectiveKB, Var, is_var

PRODUCT_PREFIX = "d|"


@dataclass(frozen=True, slots=True)
class ProductConstant:
    """A constant of a direct product, one part per multiplied operand."""

    parts: tuple[str, ...]

    @property
    def name(self) -> str:
        return PRODUCT_PREFIX + "|".join(self.parts)

    @property
    def is_gene(self) -> bool:
        """All parts equal: the product constant shadows a base constant."""
        return len(set(self.parts)) == 1

    @classmethod
    def from_name(cls, name: str) -> "ProductConstant":
        if not name.startswith(PRODUCT_PREFIX):
            raise ParseError(f"not a product constant name: {name!r}", name=name)
        return cls(tuple(name[len(PRODUCT_PREFIX):].split("|")))

    def __repr__(self) -> str:
        return self.name


def product_tuples(tuples: Sequence[ConstTuple]) -> list[ProductConstant]:
    """Positionwise product: entry i collects the i-th constant of every
    tuple, in the given order."""
    if not tuples:
        raise MixedArity("product of zero tuples")
    arities = {len(t) for t in tuples}
    if len(arities) != 1:
        raise MixedArity(f"mixed arities {sorted(arities)} in tuple product")
    return [ProductConstant(tuple(t[i] for t in tuples)) for i in range(arities.pop())]


def _by_pred(ds: Dataset) -> dict[str, set[Atom]]:
    grouped: dict[str, set[Atom]] = {}
    for a in ds.atoms:
        grouped.setdefault(a.pred, set()).add(a)
    return grouped


def iter_product_atoms(datasets: Sequence[Dataset]) -> Iterator[Atom]:
    """Atoms of the direct product, streamed in deterministic order.

    One atom per same-predicate combination across all operands; argument
    j of the result is the product constant of the operands' j-th
    arguments.
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
    grouped = [_by_pred(ds) for ds in datasets]
    shared = sorted(set.intersection(*(set(g) for g in grouped)))
    for pred in shared:
        arity = arities[pred]
        pools = [sorted(g[pred], key=Atom.key) for g in grouped]
        for combo in itertools.product(*pools):
            args = tuple(
                ProductConstant(tuple(a.args[j] for a in combo)).name
                for j in range(arity)
            )
            yield Atom(pred, args)


def canonical_rename(phi: Formula) -> Formula:
    """Deterministically rename variables: head becomes x1,x2,... and body
    variables get y1,y2,... following a traversal that prefers atoms
    already anchored to named variables and constants.

    Stable for a fixed input; isomorphic inputs may still print
    differently (class equality goes through homomorphisms instead).
    """
    taken = set(phi.constants)
    mapping: dict[Var, Var] = {}
    for v in phi.distinct_free_vars():
        name = f"x{len(mapping) + 1}"
        while name in taken:
            name += "_"
        mapping[v] = Var(name)

    def render_key(a: Atom):
        parts = []
        for t in a.args:
            if not is_var(t):
                parts.append((0, t))
            elif t in mapping:
                parts.append((1, mapping[t].name))
            else:
                parts.append((2, t.name))
        return (a.pred, len(a.args), tuple(parts))

    pending = [a for a in phi.atoms if any(is_var(t) and t not in mapping for t in a.args)]
    body_count = 0
    while pending:
        nxt = min(pending, key=render_key)
        for t in nxt.args:
            if is_var(t) and t not in mapping:
                body_count += 1
                name = f"y{body_count}"
                while name in taken:
                    name += "_"
                mapping[t] = Var(name)
        pending = [
            a for a in pending
            if any(is_var(t) and t not in mapping for t in a.args)
        ]
    return phi.rename(mapping)


def _can_from_tuples(tuples: Sequence[ConstTuple], kb: SelectiveKB) -> Formula:
    """The product construction for an explicitly ordered tuple sequence."""
    summaries = [kb.summary(t) for t in tuples]
    frees = product_tuples(tuples)
    free_names = {pc.name for pc in frees}
    product_atoms = Dataset(iter_product_atoms(summaries)).sorted_atoms()

    var_of: dict[str, Var] = {}

    def mapped(term: str):
        """The assembled formula's term for a product or base constant."""
        if not term.startswith(PRODUCT_PREFIX):
            return term
        hit = var_of.get(term)
        if hit is not None:
            return hit
        pc = ProductConstant.from_name(term)
        if term in free_names:
            out = Var("x" + term[1:])
        elif pc.is_gene:
            return pc.parts[0]
        else:
            out = Var("y" + term[1:])
        var_of[term] = out
        return out

    def expansions(term: str):
        """The clone set of an argument: a free all-parts-equal constant
        additionally spawns its base constant."""
        if term.startswith(PRODUCT_PREFIX) and term in free_names:
            pc = ProductConstant.from_name(term)
            if pc.is_gene:
                return (term, pc.parts[0])
        return (term,)

    atoms: set[Atom] = set()
    for raw in product_atoms:
        for combo in itertools.product(*(expansions(t) for t in raw.args)):
            atoms.add(Atom(raw.pred, tuple(mapped(t) for t in combo)))

    head = [mapped(pc.name) for pc in frees]
    assembled = Formula(head, atoms)
    return canonical_rename(nearly_connected_part(assembled))


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
) -> tuple[list[tuple[str, ...]], set[tuple[str, tuple[int, ...]]]]:
    """The atoms of the direct product that are connected to the free
    product constants.  A product constant is the tuple of its parts, one
    per operand, and is numbered as the walk finds it, the free ones first
    in the given order: the walk returns the product constants by number
    and the atoms as ``(pred, args)`` with each argument a number.

    Breadth-first over product constants: the product atoms holding a
    constant c at position p are the same-predicate combinations of the
    operands' atoms holding c's j-th part at p, so joining one index list
    per operand yields exactly them, and the rest of the product is never
    built.
    """
    first, *rest = [_operand_index(s) for s in summaries]
    number = {c: i for i, c in enumerate(dict.fromkeys(frees))}
    consts = list(number)
    atoms: set[tuple[str, tuple[int, ...]]] = set()
    for c in consts:  # grows while it is walked
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
                    args = tuple(map(number.get, zip(*combo)))
                    if None in args:  # product constants met for the first time
                        for t in zip(*combo):
                            if t not in number:
                                number[t] = len(consts)
                                consts.append(t)
                        args = tuple(map(number.get, zip(*combo)))
                    atoms.add((slot[0], args))
    return consts, atoms
