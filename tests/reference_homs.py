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
  summary is selected and indexed.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable

from nexus.errors import ArityMismatch
from nexus.formulas import Formula, canonical_rename
from nexus.homs import DEFAULT_BUDGET, _Budget, _run, _Source, _Target
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
