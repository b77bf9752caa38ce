"""Brute-force oracles and structured instance generators.

The oracles re-decide instance membership by exhaustive assignment
enumeration, with none of the search machinery of the hom engine, so the
two sides can be compared on seeded random inputs.  The generators build
the hard-instance families used to exercise size laws and reductions:
prime-length relation cycles and a 3-colorability encoding.
"""

from __future__ import annotations

import itertools
import random
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .characterize import build_can
from .errors import NexusError, ParseError, ReservedSymbolCollision, TooLarge
from .formulas import Formula, in_nxl, nearly_connected_part
from .kb import (
    TOP,
    Atom,
    ConstTuple,
    Dataset,
    SelectiveKB,
    SelectorSpec,
    Unit,
    Var,
    close_under_top,
    is_var,
    term_key,
    validate_unit,
)

BRUTE_GUARD = 10_000_000


def _assignment_space(phi: Formula, n_values: int, guard: int) -> None:
    n_vars = len(phi.vars)
    if n_values ** n_vars > guard:
        raise TooLarge(
            f"{n_values}^{n_vars} assignments exceed the brute-force guard",
            guard=guard,
        )


def brute_evaluate(phi: Formula, dataset: Dataset, guard: int = BRUTE_GUARD):
    """Formula output by enumerating every total variable assignment.

    No search, no propagation: every assignment of every variable is
    tried, each checked atom by atom (non-top atoms first, since top
    atoms almost never filter anything).
    """
    _assignment_space(phi, len(dataset.domain), guard)
    variables = sorted(phi.vars, key=lambda v: v.name)
    index_of = {v: i for i, v in enumerate(variables)}
    domain = sorted(dataset.domain)
    fact_set = {(a.pred, a.args) for a in dataset.atoms}
    ordered = sorted(
        phi.atoms,
        key=lambda a: (a.pred == TOP, a.pred, tuple(term_key(t) for t in a.args)),
    )
    # per atom: how to assemble its image from a value vector
    specs = [
        (a.pred, tuple((True, t) if not is_var(t) else (False, index_of[t]) for t in a.args))
        for a in ordered
    ]
    head_idx = [index_of[v] for v in phi.free_vars]
    out = set()
    for values in itertools.product(domain, repeat=len(variables)):
        ok = True
        for pred, slots in specs:
            image = tuple(payload if fixed else values[payload] for fixed, payload in slots)
            if (pred, image) not in fact_set:
                ok = False
                break
        if ok:
            if phi.arity == 0:
                return True
            out.add(tuple(values[i] for i in head_idx))
    return False if phi.arity == 0 else out


def brute_instances(phi: Formula, kb: SelectiveKB, guard: int = BRUTE_GUARD):
    """Instance set by brute evaluation inside every tuple's own summary.

    Tuples sharing a summary share one evaluation; the result is the
    literal per-tuple definition either way.  The enumeration guard is
    enforced per summary, where the actual work happens.
    """
    out = set()
    memo: dict[frozenset, set] = {}
    for tau in itertools.product(sorted(kb.dataset.domain), repeat=phi.arity):
        summary = kb.summary(tau)
        output = memo.get(summary.atoms)
        if output is None:
            output = brute_evaluate(phi, summary, guard)
            memo[summary.atoms] = output
        if tau in output:
            out.add(tau)
    return out


def brute_definable_units(
    kb: SelectiveKB,
    arity: int,
    tuple_space_cap: int = 12,
    guard: int = BRUTE_GUARD,
) -> dict[frozenset, Formula]:
    """Every definable unit of the given arity with a witnessing formula.

    A candidate is definable exactly when the brute instance set of its
    canonical characterization gives the candidate back, so the witness
    returned is that characterization.
    """
    space = sorted(itertools.product(sorted(kb.dataset.domain), repeat=arity))
    if len(space) > tuple_space_cap:
        raise TooLarge(
            f"{len(space)} candidate tuples exceed the power-set cap",
            cap=tuple_space_cap,
        )
    found: dict[frozenset, Formula] = {}
    for size in range(1, len(space) + 1):
        for combo in itertools.combinations(space, size):
            try:
                unit = validate_unit(combo, kb.dataset)
            except NexusError:
                continue  # improper candidate: not a unit at all
            can = build_can(unit, kb)
            if brute_instances(can, kb, guard) == unit.tuples:
                found[frozenset(combo)] = can
    return found


def brute_ess(
    kb: SelectiveKB, unit: Unit, tuple_space_cap: int = 12, guard: int = BRUTE_GUARD
) -> set[ConstTuple]:
    """Essential expansion as the intersection of all definable supersets."""
    definable = brute_definable_units(kb, unit.arity, tuple_space_cap, guard)
    supersets = [u for u in definable if unit.tuples <= u]
    out = set.intersection(*(set(u) for u in supersets))
    return out


# ---------------------------------------------------------------------------
# Random instances


@dataclass(frozen=True)
class RandomSkbConfig:
    """Deterministic-per-seed knob set for tiny random SKBs."""

    max_constants: int = 5
    predicates: tuple[tuple[str, int], ...] = (("p", 2), ("r", 2))
    atom_density: float = 0.18
    selector: str = "sigma0"
    seed: int = 0

    def __post_init__(self):
        if not 2 <= self.max_constants <= 6:
            raise TooLarge("max_constants must stay within 2..6")
        if any(arity > 2 for _n, arity in self.predicates):
            raise TooLarge("random predicates are capped at arity 2")
        if not 0 < self.atom_density <= 1:
            raise TooLarge("atom_density must lie in (0, 1]")


def random_skb(config: RandomSkbConfig) -> SelectiveKB:
    rng = random.Random(config.seed)
    n = rng.randint(2, config.max_constants)
    consts = [f"e{i}" for i in range(1, n + 1)]
    atoms = []
    for pred, arity in config.predicates:
        for combo in itertools.product(consts, repeat=arity):
            if rng.random() < config.atom_density:
                atoms.append(Atom(pred, combo))
    if not atoms:
        pred, arity = config.predicates[0]
        atoms.append(Atom(pred, tuple(rng.choice(consts) for _ in range(arity))))
    return SelectiveKB(close_under_top(atoms), SelectorSpec.parse(config.selector))


def random_unit(
    kb: SelectiveKB, rng: random.Random, max_arity: int = 2, max_size: int = 2
) -> Unit:
    consts = sorted(kb.dataset.domain)
    arity = rng.randint(1, max_arity)
    size = rng.randint(1, max_size)
    for _attempt in range(50):
        tuples = {
            tuple(rng.choice(consts) for _ in range(arity)) for _ in range(size)
        }
        try:
            return validate_unit(tuples, kb.dataset)
        except NexusError:
            continue
    return validate_unit({(consts[0],)}, kb.dataset)


def random_formula(
    kb: SelectiveKB,
    rng: random.Random,
    max_atoms: int = 3,
    max_arity: int = 2,
) -> Formula:
    """A small random member of the explanation language over the KB's
    signature, produced by trimming a random conjunction down to its
    nearly connected part."""
    consts = sorted(kb.dataset.domain)
    signature = sorted({(a.pred, a.arity) for a in kb.dataset.atoms})
    pool = [Var("x1"), Var("x2"), Var("u1"), Var("u2")]
    for _attempt in range(200):
        n_free = rng.randint(1, max_arity)
        head = pool[:n_free]
        atoms = []
        for _ in range(rng.randint(1, max_atoms)):
            pred, arity = rng.choice(signature)
            args = tuple(
                rng.choice(pool) if rng.random() < 0.7 else rng.choice(consts)
                for _ in range(arity)
            )
            atoms.append(Atom(pred, args))
        occurring = {t for a in atoms for t in a.args if is_var(t)}
        if not all(v in occurring for v in head):
            continue
        phi = nearly_connected_part(Formula(head, atoms))
        if in_nxl(phi):
            return phi
    return Formula([Var("x1")], [Atom(TOP, (Var("x1"),))])


def enumerate_nxl_formulas(
    signature: Sequence[tuple[str, int]],
    constants: Sequence[str],
    arity: int,
    extra_vars: int,
    max_atoms: int,
):
    """Every explanation of the given arity over a tiny signature, up to
    variable renaming: head x1..xn plus at most `extra_vars` bound
    variables, at most `max_atoms` atoms.  Only usable for very small
    inputs; the caller is responsible for keeping the space tiny."""
    head = [Var(f"x{i}") for i in range(1, arity + 1)]
    terms = list(head) + [Var(f"y{i}") for i in range(1, extra_vars + 1)]
    terms += list(constants)
    universe = [
        Atom(pred, combo)
        for pred, ar in sorted(signature)
        for combo in itertools.product(terms, repeat=ar)
    ]
    for size in range(1, max_atoms + 1):
        for atoms in itertools.combinations(universe, size):
            occurring = {t for a in atoms for t in a.args if is_var(t)}
            if not all(v in occurring for v in head):
                continue
            phi = Formula(head, atoms)
            if in_nxl(phi):
                yield phi


# ---------------------------------------------------------------------------
# Reduction gadgets


_TWIN_RE = re.compile(r"twin_\d+$")
RESERVED_GADGET_CONSTANTS = ("alias",)


def _lifted(c: str, s: int) -> str:
    return f"{c}^{s}"


def _check_gadget_free(names: Iterable[str], preds: Iterable[str] = ()):
    bad = [c for c in names if c in RESERVED_GADGET_CONSTANTS or "^" in c]
    bad += [p for p in preds if p == "focus" or _TWIN_RE.match(p)]
    if bad:
        raise ReservedSymbolCollision(
            f"input already uses gadget symbols: {sorted(set(bad))}",
            symbols=sorted(set(bad)),
        )


def gadget_tw(constants: Iterable[str], k: int) -> set[Atom]:
    """Twin layers: top(c^s) and twin_s(c, c^s) for s in 2..k."""
    constants = sorted(set(constants))
    _check_gadget_free(constants)
    out = set()
    for c in constants:
        for s in range(2, k + 1):
            lifted = _lifted(c, s)
            out.add(Atom(TOP, (lifted,)))
            out.add(Atom(f"twin_{s}", (c, lifted)))
    return out


def gadget_fc(constants: Iterable[str]) -> set[Atom]:
    """Focus marks: focus(c) for every given constant."""
    constants = sorted(set(constants))
    _check_gadget_free(constants)
    return {Atom("focus", (c,)) for c in constants}


def gadget_double(dataset: Dataset, a: str) -> Dataset:
    """Alias expansion: every occurrence of `a` may also read `alias`."""
    _check_gadget_free(dataset.domain, {at.pred for at in dataset.atoms})
    out = set()
    for at in dataset.atoms:
        choices = [(arg, "alias") if arg == a else (arg,) for arg in at.args]
        for combo in itertools.product(*choices):
            out.add(Atom(at.pred, combo))
    return close_under_top(out)


def gadget_off(tau: ConstTuple, a: str) -> ConstTuple:
    """Undo the lifting: c^s reads back as c, alias reads back as `a`."""
    out = []
    for c in tau:
        if c == "alias":
            out.append(a)
        else:
            out.append(c.split("^", 1)[0] if "^" in c else c)
    return tuple(out)


def lift_tuple(tau: ConstTuple, k: int) -> ConstTuple:
    """<a>^k for unary tuples: (a, a^2, ..., a^k)."""
    (c,) = tau
    return (c,) + tuple(_lifted(c, s) for s in range(2, k + 1))


# ---------------------------------------------------------------------------
# Prime-cycle family (size lower-bound witnesses)


_PRIMES = (2, 3, 5, 7)


def gen_prime_cycles(mbar: int) -> tuple[SelectiveKB, Unit]:
    """Disjoint relation cycles of prime lengths whose canonical and core
    characterizations coincide and have exactly 2^(1-mbar) * prod(2 p_i)
    atoms: one cycle of length prod(p_i), plus a top atom per node.

    Each cycle is one connected component, so the component selector
    reproduces the intended per-tuple summaries.  The single-cycle member
    of the family uses two tuples from the same cycle: a one-tuple unit
    would make every product constant collapse onto its base constant and
    the size law would not hold.
    """
    if not 1 <= mbar <= 4:
        raise TooLarge("the prime-cycle family is capped at 4 cycles")
    atoms = []
    for i in range(1, mbar + 1):
        p = _PRIMES[i - 1]
        nodes = [f"c{j}^{i}" for j in range(1, p + 1)]
        for j in range(p):
            atoms.append(Atom("r", (nodes[j], nodes[(j + 1) % p])))
    kb = SelectiveKB(close_under_top(atoms), SelectorSpec.component())
    if mbar == 1:
        unit_tuples = [("c1^1",), ("c2^1",)]
    else:
        unit_tuples = [(f"c1^{i}",) for i in range(1, mbar + 1)]
    return kb, validate_unit(unit_tuples, kb.dataset)


def prime_cycle_expected_size(mbar: int) -> int:
    out = 2
    for i in range(mbar):
        out *= _PRIMES[i]
    return out


# ---------------------------------------------------------------------------
# 3-colorability reduction


def parse_edgelist(text: str) -> tuple[list[str], list[tuple[str, str]]]:
    """Whitespace-separated vertex pairs, one edge per line; an isolated
    vertex may be listed alone on a line."""
    vertices: dict[str, None] = {}
    edges = []
    for raw in text.splitlines():
        line = raw.split("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            vertices.setdefault(parts[0])
            continue
        if len(parts) != 2:
            raise ParseError(f"cannot read edge line {line!r}")
        u, v = parts
        vertices.setdefault(u)
        vertices.setdefault(v)
        if u != v:
            edges.append((u, v) if u <= v else (v, u))
    return list(vertices), sorted(set(edges))


def gen_3col_instance(
    vertices: Sequence[str], edges: Sequence[tuple[str, str]], k: int = 1
) -> tuple[SelectiveKB, Unit, ConstTuple]:
    """An SKB, unit, and query tuple whose essential-expansion membership
    holds exactly when the graph is 3-colorable.

    Two disjoint copies of the graph each gain an apex vertex adjacent to
    everything; the 4-clique b1..b4 is the color target; twin layers lift
    the construction to arity k.
    """
    if k < 1:
        raise TooLarge("the arity lift needs k >= 1")
    vertices = list(dict.fromkeys(vertices))
    _check_gadget_free(vertices, preds=())
    bad = sorted(v for v in vertices if "." in v)
    if bad:
        raise ReservedSymbolCollision(
            f"graph vertices may not contain '.': {bad}", symbols=bad
        )
    atoms = []
    vertex_set = set(vertices)
    for u, v in edges:
        if u == v or u not in vertex_set or v not in vertex_set:
            raise ParseError(f"not a simple-graph edge: {(u, v)!r}")
        for i in (1, 2):
            atoms.append(Atom("arc", (f"{u}.{i}", f"{v}.{i}")))
            atoms.append(Atom("arc", (f"{v}.{i}", f"{u}.{i}")))
    for i, z in itertools.permutations(range(1, 5), 2):
        atoms.append(Atom("arc", (f"b{i}", f"b{z}")))
    for v in vertices:
        for i in (1, 2):
            atoms.append(Atom("arc", (f"a{i}", f"{v}.{i}")))
            atoms.append(Atom("arc", (f"{v}.{i}", f"a{i}")))
    atoms.extend(gadget_tw({"b1", "b2", "b3", "b4", "a1", "a2"}, k))
    kb = SelectiveKB(close_under_top(atoms), SelectorSpec.full())
    unit = validate_unit([lift_tuple(("a1",), k), lift_tuple(("a2",), k)], kb.dataset)
    return kb, unit, lift_tuple(("b1",), k)


def color_graph(
    vertices: Sequence[str], edges: Sequence[tuple[str, str]], colors: int = 3
):
    """Plain backtracking graph coloring; returns a coloring or None.
    Vertices are colored in sorted order, each with the least color that
    no colored neighbor has; a vertex out of colors takes the previous one
    back to its next color.  Iterative, so a deep graph needs no deep
    recursion."""
    order = sorted(dict.fromkeys(vertices))
    adj = {v: set() for v in order}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    coloring: dict[str, int] = {}
    i, c = 0, 0  # the vertex to color, and the first color to try
    while i < len(order):
        v = order[i]
        c = next((k for k in range(c, colors)
                  if all(coloring.get(w) != k for w in adj[v])), None)
        if c is not None:
            coloring[v] = c
            i, c = i + 1, 0
        elif i == 0:
            return None
        else:
            i -= 1
            c = coloring.pop(order[i]) + 1
    return coloring
