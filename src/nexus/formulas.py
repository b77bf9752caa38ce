"""The nexus explanation language: open conjunctive formulas whose atoms
all connect (directly or through other atoms) to the free variables.

A formula `x1,...,xn <- a1,...,am` keeps its free variables as an ordered
sequence (repetitions allowed) and its atoms as a set.  Membership in the
language requires the formula to be open and at least nearly connected.
"""

from __future__ import annotations

import heapq
import re
from collections.abc import Callable, Iterable

from .errors import ArityMismatch, ParseError
from .kb import TOP, Atom, Var, check_name, is_var

CONNECTED = "connected"
NEARLY_CONNECTED_ONLY = "nearly_connected_only"
DISCONNECTED = "disconnected"


class Formula:
    """An open conjunctive formula with an ordered free-variable head."""

    __slots__ = ("free_vars", "atoms")

    def __init__(self, free_vars: Iterable[Var], atoms: Iterable[Atom]):
        self.free_vars = tuple(free_vars)
        self.atoms = frozenset(atoms)
        if not self.atoms:
            raise ParseError("a formula needs at least one atom")
        occurring = {t for a in self.atoms for t in a.args if is_var(t)}
        for v in self.free_vars:
            if not isinstance(v, Var):
                raise ParseError(f"head entry {v!r} is not a variable")
            if v not in occurring:
                raise ParseError(f"free variable {v.name!r} occurs in no atom")

    @property
    def arity(self) -> int:
        return len(self.free_vars)

    @property
    def size(self) -> int:
        return len(self.atoms)

    @property
    def vars(self) -> frozenset[Var]:
        return frozenset(t for a in self.atoms for t in a.args if is_var(t))

    @property
    def constants(self) -> frozenset[str]:
        return frozenset(t for a in self.atoms for t in a.args if not is_var(t))

    def distinct_free_vars(self) -> list[Var]:
        """Free variables in order of first head occurrence."""
        return list(dict.fromkeys(self.free_vars))

    def sorted_atoms(self) -> list[Atom]:
        return sorted(self.atoms, key=Atom.key)

    def rename(self, mapping: dict[Var, Var]) -> "Formula":
        def sub(t):
            return mapping.get(t, t) if is_var(t) else t

        return Formula(
            (mapping.get(v, v) for v in self.free_vars),
            (Atom(a.pred, tuple(sub(t) for t in a.args)) for a in self.atoms),
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Formula)
            and self.free_vars == other.free_vars
            and self.atoms == other.atoms
        )

    def __hash__(self) -> int:
        return hash((self.free_vars, self.atoms))

    def __repr__(self) -> str:
        return to_text(self)


def top_formula(n: int) -> Formula:
    """`x1,...,xn <- top(x1),...,top(xn)` — interprets every n-ary unit."""
    if n < 1:
        raise ArityMismatch("top_formula needs arity >= 1")
    head = [Var(f"x{i}") for i in range(1, n + 1)]
    return Formula(head, [Atom(TOP, (v,)) for v in head])


# ---------------------------------------------------------------------------
# Connectivity


def _atom_components(
    atoms: Iterable[Atom], links: Callable[[object], bool] | None = None
) -> list[set[Atom]]:
    """Connected components of the term-sharing graph over atoms; with
    ``links``, only the terms it accepts connect atoms."""
    atoms = list(atoms)
    held = [a.args if links is None else [t for t in a.args if links(t)] for a in atoms]
    by_term: dict[object, list[int]] = {}
    for i, terms in enumerate(held):
        for t in terms:
            by_term.setdefault(t, []).append(i)
    seen: set[int] = set()
    comps = []
    for start in range(len(atoms)):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            i = stack.pop()
            for t in held[i]:
                for j in by_term[t]:
                    if j not in seen:
                        seen.add(j)
                        comp.add(j)
                        stack.append(j)
        comps.append({atoms[i] for i in comp})
    return comps


def classify_connectivity(phi: Formula) -> str:
    """connected / nearly_connected_only / disconnected.

    The formula is nearly connected when its atoms become one component
    after adding a dummy atom holding all free variables.
    """
    comps = _atom_components(phi.atoms)
    if len(comps) == 1:
        return CONNECTED
    free = set(phi.free_vars)
    if free:
        touched = sum(
            1 for comp in comps if any(not free.isdisjoint(a.args) for a in comp)
        )
        if touched == len(comps):
            return NEARLY_CONNECTED_ONLY
    return DISCONNECTED


def in_nxl(phi: Formula) -> bool:
    return phi.arity >= 1 and classify_connectivity(phi) != DISCONNECTED


def nearly_connected_part(phi: Formula) -> Formula:
    """Restrict to atoms reachable from the dummy free atom.

    Idempotent; keeps every atom that mentions a free variable.
    """
    if phi.arity < 1:
        raise ArityMismatch("nearly_connected_part needs an open formula")
    free = set(phi.free_vars)
    kept = {comp_atom
            for comp in _atom_components(phi.atoms)
            if any(not free.isdisjoint(a.args) for a in comp)
            for comp_atom in comp}
    return Formula(phi.free_vars, kept)


# ---------------------------------------------------------------------------
# Conjunction


def _fresh_names(base: str, count: int, taken: set[str]) -> list[str]:
    names = []
    for i in range(1, count + 1):
        name = f"{base}{i}"
        while name in taken:
            name += "_"
        names.append(name)
    return names


def conjoin(phi1: Formula, phi2: Formula) -> Formula:
    """Conjunction with renaming: shared fresh head z1..zn, body variables
    tagged per operand (y -> y@1 / y@2).

    Head positions where either operand repeats a variable share one z,
    so the instances of the result are exactly the intersection of the
    operands' instances.
    """
    if phi1.arity != phi2.arity:
        raise ArityMismatch(
            f"cannot conjoin arities {phi1.arity} and {phi2.arity}"
        )
    n = phi1.arity
    # union-find over head positions merged by a repeated head variable
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for phi in (phi1, phi2):
        first_pos: dict[Var, int] = {}
        for i, v in enumerate(phi.free_vars):
            if v in first_pos:
                ri, rj = find(first_pos[v]), find(i)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
            else:
                first_pos[v] = i

    roots = sorted({find(i) for i in range(n)})
    taken = {c for phi in (phi1, phi2) for c in phi.constants}
    z_by_root = dict(zip(roots, _fresh_names("z", len(roots), taken)))
    head = [Var(z_by_root[find(i)]) for i in range(n)]

    parts = []
    for tag, phi in (("1", phi1), ("2", phi2)):
        mapping: dict[Var, Var] = {}
        for i, v in enumerate(phi.free_vars):
            mapping[v] = head[find(i)]
        for v in phi.vars:
            if v not in mapping:
                mapping[v] = Var(f"{v.name}@{tag}")
        parts.append(phi.rename(mapping))

    return Formula(head, parts[0].atoms | parts[1].atoms)


# ---------------------------------------------------------------------------
# Canonical renaming


def canonical_rename(phi: Formula) -> Formula:
    """Deterministically rename variables: head becomes x1,x2,... and body
    variables get y1,y2,... following a traversal that prefers atoms
    already anchored to named variables and constants.

    Each step takes the pending atom (one with an unnamed variable) that
    is least under ``render_key`` and names its unnamed variables in
    argument order.  The key is injective, so the order is total.  A heap
    holds the pending atoms by key; naming a variable re-pushes only the
    atoms holding it, under their new key, and an entry whose key is no
    longer current is dropped when popped.

    Stable for a fixed input; isomorphic inputs may still print
    differently (class equality goes through homomorphisms instead).
    """
    taken = set(phi.constants)
    named: dict[str, str] = {}  # variable name -> its new name
    for v in phi.distinct_free_vars():
        name = f"x{len(named) + 1}"
        while name in taken:
            name += "_"
        named[v.name] = name

    def render_key(a: Atom):
        parts = tuple([
            (0, t) if not isinstance(t, Var)
            else (1, named[t.name]) if t.name in named
            else (2, t.name)
            for t in a.args
        ])
        return (a.pred, len(a.args), parts)

    atoms: list[Atom] = []
    unnamed: list[list[str]] = []  # per pending atom, its unnamed variables
    holding: dict[str, list[int]] = {}
    for a in phi.atoms:
        names = [t.name for t in a.args if isinstance(t, Var) and t.name not in named]
        if names:
            for name in set(names):
                holding.setdefault(name, []).append(len(atoms))
            atoms.append(a)
            unnamed.append(names)
    current = [render_key(a) for a in atoms]
    heap = [(key, i) for i, key in enumerate(current)]
    heapq.heapify(heap)
    body_count = 0
    while heap:
        key, i = heapq.heappop(heap)
        if current[i] is not key:
            continue
        current[i] = None
        touched: set[int] = set()
        for old in unnamed[i]:
            if old not in named:
                body_count += 1
                name = f"y{body_count}"
                while name in taken:
                    name += "_"
                named[old] = name
                touched.update(holding[old])
        for j in touched:
            if current[j] is None:
                continue
            if any(old not in named for old in unnamed[j]):
                current[j] = render_key(atoms[j])
                heapq.heappush(heap, (current[j], j))
            else:
                current[j] = None
    return phi.rename({v: Var(named[v.name]) for v in phi.vars})


# ---------------------------------------------------------------------------
# Text format and structured export


def _render_term(t, head_names: set[str]) -> str:
    if is_var(t):
        return t.name if t.name in head_names else f"?{t.name}"
    return t


def to_text(phi: Formula) -> str:
    """`x1,x2 <- p(x1,c), q(?y,x2)`; atoms in sorted order."""
    head_names = {v.name for v in phi.free_vars}
    head = ",".join(v.name for v in phi.free_vars)
    body = ", ".join(
        f"{a.pred}({','.join(_render_term(t, head_names) for t in a.args)})"
        for a in phi.sorted_atoms()
    )
    return f"{head} <- {body}"


def to_struct(phi: Formula) -> dict:
    """JSON-ready structure with explicit term kinds."""
    return {
        "free_vars": [v.name for v in phi.free_vars],
        "atoms": [
            {
                "pred": a.pred,
                "args": [
                    {"kind": "variable", "name": t.name}
                    if is_var(t)
                    else {"kind": "constant", "name": t}
                    for t in a.args
                ],
            }
            for a in phi.sorted_atoms()
        ],
    }


_FORMULA_ATOM_RE = re.compile(r"([^\s(),|]+)\s*\(([^()]*)\)")


def parse_formula(text: str) -> Formula:
    """Parse the text format; the head list fixes free-variable order."""
    if "<-" not in text:
        raise ParseError(f"formula needs '<-': {text!r}")
    head_text, body_text = text.split("<-", 1)
    head_names = []
    head_text = head_text.strip()
    if head_text:
        for tok in head_text.split(","):
            name = check_name(tok.strip(), "variable")
            if name == TOP or name.startswith("?"):
                raise ParseError(f"{name!r} is not a legal head variable")
            head_names.append(name)
    head_set = set(head_names)

    atoms = []
    rest = body_text.strip()
    pos = 0
    expect_atom = True
    while pos < len(rest):
        if rest[pos].isspace():
            pos += 1
            continue
        if not expect_atom:
            if rest[pos] != ",":
                raise ParseError(f"expected ',' near {rest[pos:pos + 25]!r}")
            pos += 1
            expect_atom = True
            continue
        m = _FORMULA_ATOM_RE.match(rest, pos)
        if not m:
            raise ParseError(f"cannot parse formula body near {rest[pos:pos + 25]!r}")
        pred = check_name(m.group(1), "predicate")
        if pred.startswith("?"):
            raise ParseError(f"{pred!r} is not a legal predicate")
        raw_args = [t.strip() for t in m.group(2).split(",")] if m.group(2).strip() else []
        if not raw_args:
            raise ParseError(f"atom {m.group(0)!r} has no arguments")
        args = []
        for tok in raw_args:
            if tok.startswith("?"):
                name = check_name(tok[1:], "variable")
                if name == TOP:
                    raise ParseError(f"{TOP!r} cannot name a variable")
                args.append(Var(name))
            else:
                name = check_name(tok, "term")
                args.append(Var(name) if name in head_set else name)
        atoms.append(Atom(pred, tuple(args)))
        pos = m.end()
        expect_atom = False
    if expect_atom and atoms:
        raise ParseError("trailing ',' in formula body")
    if not atoms:
        raise ParseError("a formula needs at least one atom")
    return Formula([Var(n) for n in head_names], atoms)

