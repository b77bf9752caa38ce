"""Test-only references for the homomorphism layer, each kept verbatim
from the code it was replaced by:

* the recursive, scan-based kernel that ``nexus.homs`` used before its
  indexed, iterative rewrite.  The differential tests require the current
  kernel to return the same first solution, and to run out of budget at
  the same node, on every input.  Its search depth equals the number of
  source variables, so callers keep the inputs small enough for the
  default recursion limit;
* ``core_of_formula`` as it was before block-wise cores: every test
  searches the whole formula, into a fresh index of all atoms but the one
  tested;
* ``membership_test`` as it was before the dataset filter: every tuple's
  summary is selected and indexed;
* ``fold_formula`` as it was before the fold asked the kernel's index:
  its own ``(pred, arity, pos, term)`` index, its own term numbering in
  ``term_key`` order, and ``_folds`` trying each candidate image in turn;
* ``is_isomorphic`` as it was before the ≠ reduction: the same checks,
  then one search in the kernel's injective mode, here the reference
  kernel's;
* ``maps_to`` and ``equivalent`` as they were before the one head-pinned
  map test (``homs._maps``): the heads' pins, then ``_search``, here the
  reference kernel's, of the atoms ``fold_formula`` keeps, as
  ``homs.maps_to`` searches the rows ``homs._fold`` keeps.
"""

from __future__ import annotations

import heapq
from collections import Counter
from collections.abc import Callable, Iterable

from nexus.errors import ArityMismatch
from nexus.formulas import Formula, canonical_rename
from nexus.homs import (
    DEFAULT_BUDGET, _Budget, _free_pins, _run, _signature, _Source, _Target, _terms,
)
from nexus.kb import Atom, ConstTuple, SelectiveKB, Var, is_var, term_key


def _target_index(target_atoms: Iterable[Atom]):
    index: dict[str, list[tuple]] = {}
    domain = set()
    for a in target_atoms:
        index.setdefault(a.pred, []).append(a.args)
        domain.update(a.args)
    for p in index:
        index[p].sort(key=lambda t: tuple(term_key(x) for x in t))
    return index, domain


def _atom_supports(atom: Atom, assignment: dict, index: dict):
    """Target tuples compatible with the currently fixed arguments.

    Returns None when the atom cannot be satisfied, otherwise a dict
    mapping each still-unassigned variable of the atom to its supported
    values (empty dict when the atom is fully checked).
    """
    tuples = index.get(atom.pred)
    if not tuples:
        return None
    fixed = []
    open_positions: dict[Var, list[int]] = {}
    for pos, t in enumerate(atom.args):
        if is_var(t) and t not in assignment:
            open_positions.setdefault(t, []).append(pos)
        else:
            fixed.append((pos, assignment.get(t, t) if is_var(t) else t))
    arity = len(atom.args)
    supports = {v: set() for v in open_positions}
    found = False
    for tt in tuples:
        if len(tt) != arity:
            continue
        if any(tt[p] != val for p, val in fixed):
            continue
        ok = True
        for v, positions in open_positions.items():
            first = tt[positions[0]]
            if any(tt[p] != first for p in positions[1:]):
                ok = False
                break
        if not ok:
            continue
        found = True
        for v, positions in open_positions.items():
            supports[v].add(tt[positions[0]])
    if not found:
        return None
    return supports


def _search(
    source_atoms: Iterable[Atom],
    target_atoms: Iterable[Atom],
    pins: dict,
    budget: int | None = None,
    injective: bool = False,
):
    source = sorted(set(source_atoms), key=Atom.key)
    index, target_domain = _target_index(target_atoms)
    meter = _Budget(DEFAULT_BUDGET if budget is None else budget)

    assignment: dict = {}
    for a in source:
        for t in a.args:
            if not is_var(t):
                assignment[t] = t
    for k, v in pins.items():
        if assignment.get(k, v) != v:
            return None
        assignment[k] = v
    if any(v not in target_domain for v in assignment.values()):
        return None
    if injective:
        used = set(assignment.values())
        if len(used) != len(assignment):
            return None

    by_var: dict[Var, list[Atom]] = {}
    variables = []
    for a in source:
        for t in a.args:
            if is_var(t) and t not in assignment:
                if t not in by_var:
                    by_var[t] = []
                    variables.append(t)
                if a not in by_var[t]:
                    by_var[t].append(a)

    # root pass: every atom must have support, var domains start narrowed
    domains: dict[Var, set] = {v: None for v in variables}
    for a in source:
        supports = _atom_supports(a, assignment, index)
        if supports is None:
            return None
        for v, values in supports.items():
            domains[v] = set(values) if domains[v] is None else domains[v] & values
    for v in variables:
        if domains[v] is None:
            domains[v] = set(target_domain)
        if injective:
            domains[v] = domains[v] - set(assignment.values())
        if not domains[v]:
            return None

    def propagate(var: Var, domains_now: dict):
        """Forward check the atoms of `var`; returns updated domains or None."""
        new_domains = domains_now
        for a in by_var[var]:
            supports = _atom_supports(a, assignment, index)
            if supports is None:
                return None
            for u, values in supports.items():
                narrowed = new_domains[u] & values
                if not narrowed:
                    return None
                if len(narrowed) != len(new_domains[u]):
                    if new_domains is domains_now:
                        new_domains = dict(domains_now)
                    new_domains[u] = narrowed
        return new_domains

    unassigned = set(variables)

    def backtrack(domains_now: dict):
        if not unassigned:
            return True
        var = min(unassigned, key=lambda u: (len(domains_now[u]), u.name))
        unassigned.discard(var)
        values = sorted(domains_now[var], key=term_key)
        for val in values:
            meter.spend()
            if injective and val in assignment.values():
                continue
            assignment[var] = val
            narrowed = propagate(var, domains_now)
            if narrowed is not None:
                if injective:
                    narrowed = dict(narrowed)
                    for u in unassigned:
                        narrowed[u] = narrowed[u] - {val}
                    if any(not narrowed[u] for u in unassigned):
                        del assignment[var]
                        continue
                if backtrack(narrowed):
                    return True
            del assignment[var]
        unassigned.add(var)
        return False

    if backtrack(domains):
        return dict(assignment)
    return None


def core_of_formula(
    phi: Formula, budget: int | None = None, rename: bool = True
) -> Formula:
    """The minimal hom-equivalent sub-formula, canonically renamed.

    One pass over the atoms in sorted order: drop an atom whenever the
    current formula still maps into the remainder (the remainder always
    maps back, being a subset).  A single pass suffices because every
    intermediate formula stays equivalent to the input.  With
    ``rename=False`` the literal sub-formula is returned instead of its
    canonically renamed presentation.
    """
    if phi.arity < 1:
        raise ArityMismatch("cores are computed for open formulas")
    atoms = set(phi.atoms)
    free = set(phi.free_vars)
    pins = {v: v for v in free}
    source = _Source.of_atoms(atoms, pins)
    # atoms holding each free variable; the last one of a variable stays
    holding = Counter(t for a in atoms for t in set(a.args) if t in free)
    for alpha in sorted(phi.atoms, key=Atom.key):
        if len(atoms) == 1:
            break
        if any(holding[t] == 1 for t in set(alpha.args) if t in free):
            continue
        candidate = atoms - {alpha}
        if _run(source, _Target(candidate), pins, budget) is not None:
            atoms = candidate
            source = _Source.of_atoms(atoms, pins)
            holding.subtract(t for t in set(alpha.args) if t in free)
    out = Formula(phi.free_vars, atoms)
    return canonical_rename(out) if rename else out


def membership_test(
    phi: Formula, kb: SelectiveKB, budget: int | None = None
) -> Callable[[ConstTuple], bool]:
    """Compile phi once; the returned function decides, for one tuple, what
    ``tuple_membership`` decides: one pinned hom search into its summary."""
    source = _Source.of_atoms(phi.atoms, phi.free_vars)
    free_vars, arity = phi.free_vars, phi.arity

    def is_instance(tau: ConstTuple) -> bool:
        if len(tau) != arity:
            raise ArityMismatch(f"tuple arity {len(tau)} != formula arity {arity}")
        pins: dict = {}
        for v, c in zip(free_vars, tau):
            if pins.get(v, c) != c:
                return False
            pins[v] = c
        summary = kb.summary(tau)
        return _run(source, _Target(summary.atoms), pins, budget) is not None

    return is_instance


def fold_formula(phi: Formula) -> Formula:
    """Drop one-variable retractions until none is left.

    A bound variable v folds when some term w other than v makes the map
    {v -> w}, the identity elsewhere, send every atom holding v onto an
    atom of the formula; the atoms holding v are then dropped.  The
    result is a subset of phi's atoms (the same ``Atom`` objects) with the
    same free variables, and hom-equivalent to phi: the map sends phi into
    the subset, and a subset maps into phi.  So it has the same output
    over every dataset and the same instance set under every selector.
    It also allows the same values to each free variable in
    ``homs._candidates``: a dropped atom's image holds the same free
    variables at the same positions and is at least as constrained.  This
    is the classical retraction step towards the core (Chandra & Merlin,
    1977; Hell & Nesetril, 1992), limited to one variable at a time, so
    it needs no search; the result may still be larger than the core.

    Bound variables are tried in name order, each candidate w taken from
    one atom of v through a (predicate, position, value) index and tried
    in ``term_key`` order.  When v folds, the bound variables it shared
    an atom with are tried again: dropping atoms only frees them.  Which
    variables fold does not depend on the atom the candidates come from,
    so the result is the same in every process.  Terms are numbered in
    ``term_key`` order, and an atom is the tuple of its predicate and its
    terms' numbers.
    """
    terms = sorted({t for a in phi.atoms for t in a.args}, key=term_key)
    number = {t: i for i, t in enumerate(terms)}
    free = {number[v] for v in phi.free_vars}
    rows: dict[tuple, Atom] = {}  # numbered atom -> the input's atom
    holding: dict[int, set[tuple]] = {}  # bound variable -> the atoms holding it
    index: dict[tuple, set[tuple]] = {}  # (pred, arity, pos, term) -> atoms
    for a in phi.atoms:
        row = (a.pred, *[number[t] for t in a.args])
        rows[row] = a
        n = len(row)
        for pos in range(1, n):
            t = row[pos]
            index.setdefault((a.pred, n, pos, t), set()).add(row)
            if t not in free and is_var(terms[t]):
                holding.setdefault(t, set()).add(row)
    # term numbers of variables follow their names
    queue = sorted(holding)
    queued = set(queue)
    while queue:
        v = heapq.heappop(queue)
        queued.discard(v)
        held = holding[v]
        if not _folds(v, held, rows, index):
            continue
        del holding[v]
        for row in held:
            del rows[row]
            n = len(row)
            for pos in range(1, n):
                t = row[pos]
                index[(row[0], n, pos, t)].discard(row)
                if t in holding:  # v's own entry is gone
                    holding[t].discard(row)
                    if t not in queued:
                        queued.add(t)
                        heapq.heappush(queue, t)
    if len(rows) == len(phi.atoms):
        return phi
    return Formula(phi.free_vars, rows.values())


def _folds(v: int, held: set[tuple], rows: dict, index: dict) -> bool:
    """Is there a w != v such that {v -> w} maps every atom of ``held``
    (the numbered atoms holding v) onto one of ``rows``?  Candidates come
    from the atom with the fewest index matches on a position without v,
    or from every atom of its predicate when each position holds v."""
    best = None
    for row in held:
        n = len(row)
        for pos in range(1, n):
            if row[pos] != v:
                found = index.get((row[0], n, pos, row[pos]), ())
                if best is None or len(found) < len(best[1]):
                    best = (row, found)
    if best is None:  # as top(v) or r(v,v)
        row = next(iter(held))
        found = [r for r in rows if r[0] == row[0] and len(r) == len(row)]
    else:
        row, found = best
    at = row.index(v, 1)
    candidates = {
        r[at] for r in found
        if all(rt == r[at] if t == v else rt == t for t, rt in zip(row, r))
    }
    candidates.discard(v)
    return any(
        all(tuple(w if t == v else t for t in r) in rows for r in held)
        for w in sorted(candidates)
    )


def is_isomorphic(phi1: Formula, phi2: Formula, budget: int | None = None) -> bool:
    if phi1.arity != phi2.arity:
        return False
    if len(phi1.atoms) != len(phi2.atoms) or len(_terms(phi1)) != len(_terms(phi2)):
        return False
    if _signature(phi1) != _signature(phi2):
        return False
    pins = _free_pins(phi1.free_vars, phi2.free_vars)
    if pins is None:
        return False
    return _search(phi1.atoms, phi2.atoms, pins, budget, injective=True) is not None


def maps_to(phi1: Formula, phi2: Formula, budget: int | None = None) -> bool:
    if phi1.arity != phi2.arity:
        raise ArityMismatch(
            f"hom-order needs equal arities, got {phi1.arity} and {phi2.arity}"
        )
    pins = _free_pins(phi1.free_vars, phi2.free_vars)
    if pins is None:
        return False
    return _search(fold_formula(phi1).atoms, phi2.atoms, pins, budget) is not None


def equivalent(phi1: Formula, phi2: Formula, budget: int | None = None) -> bool:
    return maps_to(phi1, phi2, budget) and maps_to(phi2, phi1, budget)
