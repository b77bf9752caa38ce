"""Constant-preserving homomorphism search and everything built on it:
formula evaluation over datasets, instance sets over selective KBs, the
hom-order between formulas, equivalence, isomorphism, and formula cores.

The kernel is a backtracking search over the source variables with
forward checking.  It assigns next the unassigned variable with the
fewest candidate values (ties broken by name), tries those values in term
order, and after each choice narrows the candidates of the neighbouring
variables to what the target still supports.  All orderings are fixed,
so results are reproducible.  The kernel (``_run``) returns the image of
every source term, or None.  Its root pass, which asks the target for
every source atom, nullary ones included, is its only test of the target.
Each question asks it by one path.  A head-pinned map test (``maps_to``,
so ``equivalent``, ``is_isomorphic`` and ``expansion._Can.maps_to``) is
``_maps``: the heads' pins, then one ``_run``.  ``find_hom`` alone goes
through ``_search``, which keeps the API's pin contract, pins on terms
the source lacks included, and turns the image into a map.  The core
returns its literal atoms; only a caller that prints it renames it.

Each node is cheap:

* The target is indexed: its argument tuples by predicate and arity, and,
  built on first use, the set of values of each column and, per value
  and position, its partners (the values at the other position) in a
  binary relation and the tuples holding it at any other arity.  An
  atom's supports come from the smallest set of its fixed positions,
  filtered by its other fixed values and by the equal positions of a
  repeated variable, a stored partner set when one end of a binary atom
  is fixed, and a fully fixed atom is one set lookup.  The index is built per search, except
  that the core keeps one index of its current atoms for the whole pass,
  taking out and putting back one atom per test, a whole dataset's index
  is built at most once per ``Dataset`` (``_dataset_target``), for
  ``evaluate``, the candidates of a sweep below and every membership
  whose summary is the KB's dataset itself (the ``full`` selector), and
  the expansion graph indexes each can once (``expansion._Can``).  No
  other summary's index is kept.
* After each choice, forward checking asks the target only about the
  atoms of the chosen variable that still have an open slot.  An atom
  whose variables are all assigned already holds: its last variable was
  chosen among values narrowed with every other argument fixed.  So the
  search tree is the same as when every atom is asked, with fewer lookups.
* Forward checking asks by relation.  The binary atoms over two distinct
  open variables are grouped per variable by predicate and the variable's
  position, and a group is one query however many atoms it has: the
  chosen value's partners at the other position (``_Target.project``),
  read off the index and intersected into each partner still open.
  Intersection does not depend on order, so the tree is again the same.
  In the canonical characterization of a 3-colourability reduction a
  variable holds about 60 ``arc`` atoms on average, with each partner in
  both positions, so in two groups, one per role.
* The search is a loop over an explicit stack.  Narrowed candidate sets
  are recorded on a trail and restored on backtracking, and the open
  variables wait in one list sorted by candidate count, then name, whose
  last entry is the next choice, so choosing does not scan them all.
  Depth is bounded by memory, not by the interpreter's recursion limit.
* The source side is compiled once per formula (``_Source``): its terms
  numbered, so a search keeps its image in a list, and the variables'
  name order and atoms fixed.  Sweeps over many tuples (``instances``
  and ``evaluate``) pay for it once.  The core compiles each block once,
  from its input, and never edits it.  Every decision about a canonical
  characterization (``expansion.ess_member``, so the comparison gadgets,
  the sweeps ``expansion.ess_set`` and ``expansion.is_definable``, and
  the expansion graph's classification and class check) compiles the
  numbered rows of the product walk (``characterize._assemble``).
* A sweep enumerates only its candidates (``_candidates``): the tuples,
  in term order, whose every value is one that each atom holding its
  free variable allows in the whole dataset.  Summaries are sub-datasets,
  so no other tuple has a homomorphism into its summary.  ``evaluate``
  searches each candidate in the dataset; every sweep (``instances``,
  ``expansion.ess_set``, ``expansion.is_definable``) decides each as a
  single tuple is decided (``_membership_test``): one pinned search into
  its summary.  A single-tuple decision (``tuple_membership``,
  ``expansion.ess_member`` and the expansion graph's classification)
  runs no dataset-wide filter: the root pass into its summary rejects
  the same tuples, and the filter's cost would not be shared.  No
  membership indexes a summary that lacks a constant of the formula.
* A sweep (``_sweep``, so ``instances``, and the sweeps of a canonical
  characterization) folds its numbered rows before compiling them
  (``_fold``): the atoms of every bound variable that one
  substitution maps onto other atoms are dropped.  Each such test is a
  root pass of the kernel with one open variable, asked of a ``_Target``
  of the rows kept so far.  What is left is hom-equivalent to the input,
  so the answers are the same, and every tuple pays for fewer variables.
  A single test (``tuple_membership``), ``evaluate`` and the core search
  the formula as given.
* The core searches only the tests its retraction witness cannot answer
  (``core_of_formula``): a count per current atom of the input atoms the
  witness sends there, moved along a block's image after each drop that a
  search found.  An atom whose count is 0 is dropped untested, as the
  search would drop it, so the core keeps the same atoms.  A skipped test
  spends no budget: a core can finish where it used to raise, and where it
  still raises, that is at a later test.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left, insort
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field

from .errors import ArityMismatch, BudgetExceeded
from .formulas import Formula, _atom_components, canonical_rename
from .kb import TOP, Atom, ConstTuple, Dataset, SelectiveKB, Var, is_var, term_key

DEFAULT_BUDGET = 10_000_000
_UNSET = object()


class _Budget:
    __slots__ = ("left", "cap")

    def __init__(self, cap: int):
        self.cap = cap
        self.left = cap

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded(
                f"homomorphism search exceeded {self.cap} nodes", cap=self.cap
            )


@dataclass(frozen=True)
class HomProblem:
    """A constant-preserving homomorphism search instance.

    ``pinned`` may force variables, the source's or not, to required
    images in the target; the identity on every source constant is implied
    and need not be listed.
    """

    source: frozenset[Atom]
    target: frozenset[Atom]
    pinned: Mapping = field(default_factory=dict)

    def __post_init__(self):
        for k, v in self.pinned.items():
            if not is_var(k) and k != v:
                raise ArityMismatch(f"constant {k!r} pinned away from itself")


def find_hom(problem: HomProblem, budget: int | None = None):
    """Map of every source term and pinned key, extending the pins and
    preserving every source atom, or None.  Deterministic: first solution
    under the fixed orderings."""
    return _search(problem.source, problem.target, dict(problem.pinned), budget)


class _Source:
    """The source side of a search, compiled for a fixed set of pinned keys.

    Compiled from numbered terms and rows ``(pred, args)``, each argument
    the number of a term, in whatever order the rows come: a formula's
    atoms numbered by ``of_atoms``, or the rows ``characterize._assemble``
    reads off the product walk.  A variable may occur in no row, as one
    that a sweep's fold dropped: its slot gets no image.  Term number
    ``s`` is the search's slot ``s``, and its image starts from
    ``template``, which holds the constants.  ``by_rank`` holds the slots
    of the unpinned variables in name order and ``rank`` its inverse.
    Only ``by_rank`` shapes the search tree, not the numbering or the row
    order.

    Forward checking reads two lists per slot.  An atom over two distinct
    unpinned variables is in ``pairs``: the atoms of a predicate are
    gathered into each slot's forward partners (the slot at position 0)
    and backward ones (at position 1), and each list is a group
    ``(key, p, partners)`` with ``key`` ``(pred, 2)``, the slot's
    position ``p`` and the partner slots.
    Every other atom holding an unpinned variable is in that variable's
    ``by_var`` as ``((pred, arity), slots)``, once however often it holds
    the variable.

    The root pass checks every row.  An atom whose arguments are distinct
    unpinned variables only restricts each to a column of the target, so
    it intersects columns once per distinct set of them (``by_columns``);
    a pair atom's columns are those of its slots' positions.  Every other
    atom, nullary ones and those that repeat a variable included, is asked
    of the index (``fixed_atoms``).
    """

    __slots__ = ("terms", "slot", "template", "by_var", "pairs", "by_rank", "rank",
                 "fixed_atoms", "by_columns")

    def __init__(
        self, terms: list, rows: Iterable[tuple[str, tuple[int, ...]]], pinned: Iterable = ()
    ):
        pinned = set(pinned)
        self.terms = terms
        self.slot = {t: s for s, t in enumerate(terms)}
        self.template = [None if is_var(t) else t for t in terms]
        open_slot = [is_var(t) and t not in pinned for t in terms]
        self.fixed_atoms = []
        by_var: dict[int, list] = defaultdict(list)
        # pred -> slot -> partners at position 1 (forward) and at 0 (backward)
        roles: dict[str, tuple[dict, dict]] = {}
        columns: dict[int, set] = defaultdict(set)
        for pred, slots in rows:
            if len(slots) == 2:
                a, b = slots
                if a != b and open_slot[a] and open_slot[b]:
                    role = roles.get(pred)
                    if role is None:
                        role = roles[pred] = (defaultdict(list), defaultdict(list))
                    role[0][a].append(b)
                    role[1][b].append(a)
                    continue
            key = (pred, len(slots))
            repeats = len(set(slots)) < len(slots)
            held = [s for s in slots if open_slot[s]]
            if not repeats and 0 < len(held) == len(slots):
                for pos, s in enumerate(slots):
                    columns[s].add((key, pos))
            else:
                self.fixed_atoms.append((key, slots))
                if repeats:
                    held = dict.fromkeys(held)
            for s in held:
                by_var[s].append((key, slots))
        self.by_var = [()] * len(terms)
        for s, atoms in by_var.items():
            self.by_var[s] = atoms
        pairs: dict[int, list] = defaultdict(list)  # slot -> its groups
        for pred, by_role in roles.items():
            key = (pred, 2)
            for p, partners_of in enumerate(by_role):
                for s, partners in partners_of.items():
                    pairs[s].append((key, p, partners))
                    columns[s].add((key, p))
        self.pairs = [()] * len(terms)
        for s, groups in pairs.items():
            self.pairs[s] = groups
        self.by_rank = sorted(by_var.keys() | pairs.keys(), key=lambda s: terms[s].name)
        self.rank = [0] * len(terms)
        for i, s in enumerate(self.by_rank):
            self.rank[s] = i
        self.by_columns: dict[tuple, list[int]] = {}
        for s, cols in columns.items():
            self.by_columns.setdefault(tuple(sorted(cols)), []).append(s)

    @classmethod
    def of_atoms(cls, atoms: Iterable[Atom], pinned: Iterable = ()) -> "_Source":
        return cls(*_numbered(atoms), pinned)

    def image_of(self, pins: dict) -> list:
        image = self.template.copy()
        for k, v in pins.items():
            s = self.slot.get(k)
            if s is not None:
                image[s] = v
        return image


def _numbered(atoms: Iterable[Atom]) -> tuple[list, list[tuple[str, tuple[int, ...]]]]:
    """The terms of the atoms, each numbered at its first occurrence, and
    the atoms as rows ``(pred, args)`` of those numbers."""
    slot: dict = {}
    rows = [(a.pred, tuple([slot.setdefault(t, len(slot)) for t in a.args])) for a in atoms]
    return list(slot), rows


class _Target:
    """Index of a target atom set for the supports of source atoms.  Per
    position of a binary relation it keeps each value's partners, the
    values at the other position, and per position of any other arity the
    tuples holding each value; ``discard`` and ``add`` keep every lookup
    built so far in step, so one index can serve a whole pass."""

    __slots__ = ("rows", "_by_value", "_columns")

    def __init__(self, atoms: Iterable[Atom]):
        rows = self.rows = defaultdict(set)
        for a in atoms:
            rows[(a.pred, len(a.args))].add(a.args)
        self._by_value: dict[tuple, dict] = {}  # (key, pos) -> value -> partners or tuples
        self._columns: dict[tuple, set] = {}  # (key, pos) -> values

    def _holding(self, key, pos, value):
        """The partners of ``value`` at position ``pos`` of a binary
        relation, or the tuples holding it there at any other arity; None
        when no tuple holds it."""
        by_value = self._by_value.get((key, pos))
        if by_value is None:
            by_value = self._by_value[(key, pos)] = {}
            if key[1] == 2:
                other = 1 - pos
                for tt in self.rows[key]:
                    found = by_value.get(tt[pos])
                    if found is None:
                        by_value[tt[pos]] = {tt[other]}
                    else:
                        found.add(tt[other])
            else:
                for tt in self.rows[key]:
                    found = by_value.get(tt[pos])
                    if found is None:
                        by_value[tt[pos]] = {tt}
                    else:
                        found.add(tt)
        return by_value.get(value)

    def column(self, key, pos):
        values = self._columns.get((key, pos))
        if values is None:
            values = self._columns[(key, pos)] = {tt[pos] for tt in self.rows[key]}
        return values

    def project(self, key, p, val):
        """The partners of ``val`` at position ``p`` of the binary relation
        under ``key``, or None when no tuple holds it there: what
        ``supports`` offers the open slot of a binary atom whose other
        slot is fixed to ``val``.  The set must not be mutated."""
        return self._holding(key, p, val)

    def discard(self, pred: str, args: tuple):
        """Take one indexed atom out, keeping the lookups built so far in
        step."""
        key = (pred, len(args))
        self.rows[key].discard(args)
        for pos, value in enumerate(args):
            by_value = self._by_value.get((key, pos))
            if by_value is not None:
                holding = by_value[value]
                holding.discard(args[1 - pos] if len(args) == 2 else args)
                if not holding:
                    del by_value[value]
            column = self._columns.get((key, pos))
            if column is not None and self._holding(key, pos, value) is None:
                column.discard(value)

    def add(self, pred: str, args: tuple):
        """Add an atom, or put back one taken out by ``discard``."""
        key = (pred, len(args))
        self.rows[key].add(args)
        for pos, value in enumerate(args):
            by_value = self._by_value.get((key, pos))
            if by_value is not None:
                entry = args[1 - pos] if len(args) == 2 else args
                holding = by_value.get(value)
                if holding is None:
                    by_value[value] = {entry}
                else:
                    holding.add(entry)
            column = self._columns.get((key, pos))
            if column is not None:
                column.add(value)

    def supports(self, key, slots, image: list):
        """The target tuples compatible with the fixed arguments of a
        compiled atom: None when there is none, otherwise ``(slot, values)``
        for each distinct open slot, the values the tuples offer it (an
        empty list when every argument is fixed).  A binary atom with one
        end fixed is offered that end's partner set as the index stores
        it, and an atom with nothing fixed and no repeated slot its
        columns.  Otherwise the tuples are read from the smallest set
        holding a fixed value, or from every row, and kept when they agree
        with every fixed value and, for an open slot the atom repeats, on
        each of its positions.  The value sets must not be mutated.
        """
        rows = self.rows.get(key)
        if not rows:
            return None
        fixed = []
        open_slots = []
        open_pos = []
        for pos, s in enumerate(slots):
            val = image[s]
            if val is None:
                open_slots.append(s)
                open_pos.append(pos)
            else:
                fixed.append((pos, val))
        if not open_slots:
            return [] if tuple(val for _pos, val in fixed) in rows else None
        if fixed and key[1] == 2:
            partners = self._holding(key, *fixed[0])
            return None if partners is None else [(open_slots[0], partners)]
        at = dict(zip(open_slots, open_pos))  # a position of each distinct open slot
        if not fixed and len(at) == len(open_slots):
            return [(s, self.column(key, p)) for s, p in at.items()]
        best = rows
        for pos, val in fixed:
            holding = self._holding(key, pos, val)
            if holding is None:
                return None
            if len(holding) < len(best):
                best = holding
        same = [(p, at[s]) for s, p in zip(open_slots, open_pos) if at[s] != p]
        if len(fixed) > 1 or same:
            best = [tt for tt in best if all(tt[p] == val for p, val in fixed)
                    and all(tt[p] == tt[q] for p, q in same)]
            if not best:
                return None
        return [(s, {tt[p] for tt in best}) for s, p in at.items()]


def _dataset_target(dataset: Dataset) -> _Target:
    """The index of a whole dataset, built on first use and kept on the
    dataset as ``hom_index``."""
    if dataset.hom_index is None:
        dataset.hom_index = _Target(dataset.atoms)
    return dataset.hom_index


def _free_domains(source: _Source, target: _Target, free: Iterable[Var]):
    """For each free variable, the values that every atom holding it
    allows in the target, with the formula's constants fixed and every
    variable open; None when one of those atoms has no support at all.
    ``source`` must be compiled with the free variables pinned, so every
    atom holding one is in ``fixed_atoms``."""
    slots = {source.slot[v] for v in free}
    domains: list = [None] * len(source.terms)
    held = [atom for atom in source.fixed_atoms if not slots.isdisjoint(atom[1])]
    if not _intersect_supports(target, held, source.template, domains):
        return None
    return {v: domains[source.slot[v]] for v in free}


def _intersect_supports(target: _Target, atoms: Iterable, image: list, domains: list) -> bool:
    """Narrow ``domains``, one value set per slot and None for a slot not
    yet narrowed, to the supports in ``target`` of each compiled atom
    ``(key, slots)`` under ``image``: False when one of them has none."""
    supports = target.supports
    for key, slots in atoms:
        found = supports(key, slots, image)
        if found is None:
            return False
        for s, values in found:
            current = domains[s]
            domains[s] = values if current is None else current & values
    return True


def _search(
    source_atoms: Iterable[Atom],
    target_atoms: Iterable[Atom],
    pins: dict,
    budget: int | None = None,
):
    """``find_hom`` on atoms: ``_run`` behind the pin contract.  A pin may
    not move a source constant, and one on a term the source lacks needs
    its value among the target's terms.  Only ``find_hom`` makes such
    pins; a head-pinned map test is ``_maps``."""
    source = _Source.of_atoms(source_atoms, pins)
    target = _Target(target_atoms)
    known = {t: t for t in source.template if t is not None}
    if any(known.get(k, v) != v for k, v in pins.items()):
        return None
    known.update(pins)
    absent = {v for k, v in pins.items() if k not in source.slot}
    if absent and absent - {t for rows in target.rows.values() for tt in rows for t in tt}:
        return None
    image = _run(source, target, pins, budget)
    if image is None:
        return None
    known.update(zip(source.terms, image))
    return known


def _run(
    source: _Source,
    target: _Target,
    pins: dict,
    budget: int | None = None,
):
    """The first homomorphism extending ``pins`` as its image, one value
    per slot, or None.  ``source`` must be compiled with exactly the keys
    of ``pins``.  One budget unit is spent per value tried.

    Invariant: every atom whose slots all have an image holds in the
    target.  The root pass narrows the slot of an atom with one open
    variable with every other argument fixed (a column intersection, or
    ``fixed_atoms``), and ``propagate`` does the same for an atom left
    with one open variable: a pair atom's partner is narrowed to the
    chosen value's partners in the target, which is what ``supports``
    would offer it.
    Candidates only shrink until ``undo`` restores them together with
    that narrowing, so any value the variable then takes completes a
    tuple of the target.  ``propagate`` therefore skips the atoms with
    no open slot, as forward checking does (Haralick & Elliott,
    *Increasing tree search efficiency for constraint satisfaction
    problems*, 1980): asking the target about them could only return
    ``[]``, so the tree, its node count and its budget point are those of
    asking every atom.

    The open slots wait in ``order``, ascending unique keys ``-(candidate
    count * n + name rank)``, ``n`` the number of unpinned variables, so
    the last is the next choice.  A choice pops it; a narrowing, an undo
    or an exhausted choice moves one key by bisection."""
    image = source.image_of(pins)

    # root pass: every atom must have support, var domains start narrowed
    domains: list = [None] * len(image)
    for columns, slots in source.by_columns.items():
        common = None
        for key, pos in columns:
            if key not in target.rows:
                return None
            values = target.column(key, pos)
            common = values if common is None else common & values
        for s in slots:
            domains[s] = common
    if not _intersect_supports(target, source.fixed_atoms, image, domains):
        return None
    by_rank = source.by_rank
    for s in by_rank:
        if not domains[s]:
            return None

    n = len(by_rank)
    rank, by_var, pairs = source.rank, source.by_var, source.pairs
    supports, project = target.supports, target.project
    order = sorted(-(len(domains[s]) * n + r) for r, s in enumerate(by_rank))
    trail: list[tuple] = []  # (slot, its candidate set before narrowing)

    def narrow(u, values) -> bool:
        """Narrow open slot ``u`` by ``values`` on the trail: False if none is left."""
        current = domains[u]
        narrowed = current & values
        if not narrowed:
            return False
        if len(narrowed) != len(current):
            r = rank[u]
            del order[bisect_left(order, -(len(current) * n + r))]
            insort(order, -(len(narrowed) * n + r))
            trail.append((u, current))
            domains[u] = narrowed
        return True

    def undo(mark: int):
        while len(trail) > mark:
            u, previous = trail.pop()
            r = rank[u]
            del order[bisect_left(order, -(len(domains[u]) * n + r))]
            insort(order, -(len(previous) * n + r))
            domains[u] = previous

    def propagate(var, val) -> bool:
        """Forward check the atoms of ``var`` that still have an open
        slot, narrowing on the trail: one partner set of the target per
        group of ``var``'s binary atoms, intersected into each partner
        still open, and ``supports`` for every other atom.  By the
        invariant of ``_run``, an atom with no open slot holds, so skipping
        it keeps the search tree (Haralick & Elliott, 1980)."""
        for key, p, partners in pairs[var]:
            values = _UNSET
            for u in partners:
                if image[u] is not None:
                    continue
                if values is _UNSET:
                    values = project(key, p, val)
                    if values is None:
                        return False
                if not narrow(u, values):
                    return False
        for key, slots in by_var[var]:
            for s in slots:
                if image[s] is None:
                    break
            else:
                continue
            found = supports(key, slots, image)
            if found is None:
                return False
            for u, values in found:
                if not narrow(u, values):
                    return False
        return True

    if not order:
        return image
    meter = _Budget(DEFAULT_BUDGET if budget is None else budget)
    var = by_rank[-order.pop() % n]
    # frame: (slot, iterator over its values in order, trail mark)
    frames = [(var, iter(sorted(domains[var], key=term_key)), 0)]
    while frames:
        var, values, mark = frames[-1]
        if image[var] is not None:  # back from a failed subtree: retract the value
            image[var] = None
            undo(mark)
        for val in values:
            meter.spend()
            image[var] = val
            if propagate(var, val):
                break
            undo(mark)
            image[var] = None
        if image[var] is None:
            frames.pop()
            insort(order, -(len(domains[var]) * n + rank[var]))
            continue
        if not order:
            return image
        var = by_rank[-order.pop() % n]
        frames.append((var, iter(sorted(domains[var], key=term_key)), len(trail)))
    return None


# ---------------------------------------------------------------------------
# Formula-level operations


def _free_pins(head1, head2):
    """Pins sending the i-th variable of ``head1`` to the i-th term of
    ``head2``, or None when a repeated head variable would need two."""
    pins: dict = {}
    for v1, v2 in zip(head1, head2):
        if pins.get(v1, v2) != v2:
            return None
        pins[v1] = v2
    return pins


def _maps(source: _Source, target: _Target, head1, head2, budget: int | None = None) -> bool:
    """The one head-pinned map test: does a homomorphism of ``source``
    into ``target`` send the i-th term of ``head1`` to the i-th of
    ``head2``?  ``source`` must be compiled with ``head1`` pinned."""
    pins = _free_pins(head1, head2)
    return pins is not None and _run(source, target, pins, budget) is not None


def maps_to(phi1: Formula, phi2: Formula, budget: int | None = None) -> bool:
    """phi1 --> phi2: a constant-preserving hom aligning free variables."""
    if phi1.arity != phi2.arity:
        raise ArityMismatch(
            f"hom-order needs equal arities, got {phi1.arity} and {phi2.arity}"
        )
    return _maps(_Source.of_atoms(phi1.atoms, phi1.free_vars), _Target(phi2.atoms),
                 phi1.free_vars, phi2.free_vars, budget)


def equivalent(phi1: Formula, phi2: Formula, budget: int | None = None) -> bool:
    return maps_to(phi1, phi2, budget) and maps_to(phi2, phi1, budget)


def _terms(phi: Formula) -> set:
    return {t for a in phi.atoms for t in a.args}


# Holds no predicate's name: ``kb.check_name`` rejects a name with "|".
_NEQ = "|neq"


def _distinct(terms) -> list[Atom]:
    """``_NEQ(s, t)`` for every two distinct terms."""
    return [Atom(_NEQ, pair) for pair in itertools.permutations(terms, 2)]


def is_isomorphic(phi1: Formula, phi2: Formula, budget: int | None = None) -> bool:
    """A bijective, free-variable-aligned, constant-preserving hom whose
    atom image is exactly the other atom set.

    After the checks, both sides have as many terms and as many atoms, so
    an injective hom is such a bijection.  A hom is injective exactly when
    it preserves ≠, so this is one search with ``_NEQ(s, t)`` added on
    each side for every two distinct terms: O(n²) atoms over n terms (Hell
    & Nešetřil, *Graphs and Homomorphisms*, 2004).  A variable's ≠ group
    removes its value from every open partner, so the search tree, and
    with it the budget point, is that of an injective search that skips
    the values in use; ``budget`` caps it as it caps any search."""
    if phi1.arity != phi2.arity:
        return False
    terms1, terms2 = _terms(phi1), _terms(phi2)
    if len(phi1.atoms) != len(phi2.atoms) or len(terms1) != len(terms2):
        return False
    if _signature(phi1) != _signature(phi2):
        return False
    return _maps(_Source.of_atoms([*phi1.atoms, *_distinct(terms1)], phi1.free_vars),
                 _Target([*phi2.atoms, *_distinct(terms2)]), phi1.free_vars, phi2.free_vars,
                 budget)


def _fold(terms: list, rows: list, free: Iterable) -> list:
    """Drop one-variable retractions from the rows ``(pred, args)``, each
    argument the number of a term (a formula's ``_numbered`` rows), until
    none is left; return the rows kept, in their given order.  ``free``
    holds the free variables.

    A bound variable v folds when some term w other than v makes the map
    {v -> w}, the identity elsewhere, send every row holding v onto a kept
    row; the rows holding v are then dropped.  What is left has the same
    free variables and is hom-equivalent to the input (the map sends the
    input into it, and a subset maps back), so it has the same output over
    every dataset and the same instance set under every selector.  It also
    allows the same values to each free variable in ``_free_domains``: a
    dropped row's image holds the same free variables at the same
    positions and is at least as constrained.  This is the classical
    retraction step towards the core (Chandra & Merlin, 1977; Hell &
    Nesetril, 1992), one variable at a time, so it needs no search; what
    is left may be larger than the core.

    The test of v is the kernel's root pass with v the one open slot:
    every other term fixed to itself, the supports of the rows holding v
    intersected over a ``_Target`` of the rows kept so far.  v itself is
    always supported, since those rows are in the target, so v folds when
    anything else is.  Bound variables are tried in name order.  When v
    folds, the bound variables it shared a row with are tried again:
    dropping rows only frees them.  So which variables fold depends only
    on the atoms and the variables' names, not on the numbering.
    """
    free = set(free)
    bound = [is_var(t) and t not in free for t in terms]
    holding: dict[int, set] = {}  # bound variable -> the kept rows holding it
    target = _Target(())
    for row in rows:
        target.add(*row)
        for s in row[1]:
            if bound[s]:
                holding.setdefault(s, set()).add(row)
    order = sorted(holding, key=lambda s: terms[s].name)
    rank = {s: r for r, s in enumerate(order)}
    queue = list(range(len(order)))  # ranks, already a heap
    queued = set(order)
    image: list = list(range(len(terms)))
    domains: list = [None] * len(terms)
    dropped: set = set()
    while queue:
        v = order[heapq.heappop(queue)]
        queued.discard(v)
        held = holding[v]
        image[v] = None
        atoms = [((pred, len(args)), args) for pred, args in held]
        folds = _intersect_supports(target, atoms, image, domains) and len(domains[v]) > 1
        image[v], domains[v] = v, None
        if not folds:
            continue
        del holding[v]
        dropped |= held
        for row in held:
            target.discard(*row)
            for t in row[1]:
                if t in holding:  # v's own entry is gone
                    holding[t].discard(row)
                    if t not in queued:
                        queued.add(t)
                        heapq.heappush(queue, rank[t])
    return [row for row in rows if row not in dropped] if dropped else rows


def _candidates(source: _Source, head: tuple, dataset: Dataset) -> Iterator[ConstTuple]:
    """The tuples over ``head`` whose every value ``_free_domains`` allows
    its variable over the whole dataset, in term order: nothing when some
    atom holding a head variable has no support.  A repeated head variable
    keeps one value.  ``source`` must be compiled with the head pinned.
    No other tuple has a homomorphism into the dataset, or into a summary,
    which is a sub-dataset.  A one-variable tuple ``(c,)`` is the argument
    tuple of the dataset's atom ``top(c)``, so answer sets that callers
    keep share it instead of holding a copy per answer."""
    target = _dataset_target(dataset)
    allowed = _free_domains(source, target, head)
    if allowed is None:
        return
    if len(head) == 1:
        for c in sorted(allowed[head[0]]):
            yield next(iter(target._holding((TOP, 1), 0, c)))
        return
    distinct = list(dict.fromkeys(head))
    for combo in itertools.product(*[sorted(allowed[v]) for v in distinct]):
        by_var = dict(zip(distinct, combo))
        yield tuple([by_var[v] for v in head])


def evaluate(phi: Formula, dataset: Dataset, budget: int | None = None):
    """The output of a formula over a dataset.

    Returns the set of tuples matched through the free variables, or a
    plain bool for arity-0 formulas.  A formula constant missing from
    the dataset is not an error; it simply produces an empty output.
    """
    target = _dataset_target(dataset)
    if phi.arity == 0:
        return _run(_Source.of_atoms(phi.atoms), target, {}, budget) is not None
    head = phi.free_vars
    source = _Source.of_atoms(phi.atoms, head)
    return {tau for tau in _candidates(source, head, dataset)
            if _run(source, target, dict(zip(head, tau)), budget) is not None}


def _membership_test(
    source: _Source, free_vars: tuple, kb: SelectiveKB, budget: int | None = None
) -> Callable[[ConstTuple], bool]:
    """The decision of ``tuple_membership``, for one tuple at a time, from
    a compiled source and the free terms it was compiled with pinned."""
    arity = len(free_vars)
    consts = {t for t in source.template if t is not None}

    def is_instance(tau: ConstTuple) -> bool:
        if len(tau) != arity:
            raise ArityMismatch(f"tuple arity {len(tau)} != formula arity {arity}")
        pins = _free_pins(free_vars, tau)
        if pins is None:
            return False
        summary = kb.summary(tau)
        if not consts <= summary.domain:
            return False
        target = _dataset_target(summary) if summary is kb.dataset else _Target(summary.atoms)
        return _run(source, target, pins, budget) is not None

    return is_instance


def tuple_membership(
    phi: Formula, kb: SelectiveKB, tau: ConstTuple, budget: int | None = None
) -> bool:
    """Is tau an instance of phi: one pinned hom search into its summary.
    No dataset-wide filter runs first, so a custom selector is consulted
    for tau even when the dataset rules it out.  A wrong-arity tuple
    raises ``ArityMismatch``, and a constant outside the dataset raises
    ``TupleOutsideDomain`` when the summary is selected; a tuple that
    gives a repeated head variable two values is no instance, before
    either."""
    source = _Source.of_atoms(phi.atoms, phi.free_vars)
    return _membership_test(source, phi.free_vars, kb, budget)(tau)


def _sweep(
    head, terms: list, rows: list, kb: SelectiveKB, budget: int | None = None,
    skip: frozenset = frozenset(),
) -> Iterator[ConstTuple]:
    """The instances but ``skip``, lazily and in term order, of the formula
    with free variables ``head`` and the numbered rows ``(pred, args)``
    over ``terms``.  The rows ``_fold`` keeps, which have the same
    instances and candidates, are compiled once.  Each of the
    ``_candidates`` is decided as ``tuple_membership`` decides it, and no
    other tuple reaches the selector.  ``budget`` caps each search of the
    folded rows, so node counts and budget points differ from the rows'."""
    source = _Source(terms, _fold(terms, rows, head), head)
    is_instance = _membership_test(source, head, kb, budget)
    return (tau for tau in _candidates(source, head, kb.dataset)
            if tau not in skip and is_instance(tau))


def instances(
    phi: Formula,
    kb: SelectiveKB,
    budget: int | None = None,
) -> set[ConstTuple]:
    """All tuples over the dataset domain that the formula matches within
    their own summaries.  Always a subset of evaluate(phi, kb.dataset).
    A ``_sweep``: it searches the folded rows, with the same answers, and
    ``budget`` caps each of those searches."""
    if phi.arity < 1:
        raise ArityMismatch("instance sets need an open formula")
    return set(_sweep(phi.free_vars, *_numbered(phi.atoms), kb, budget))


# ---------------------------------------------------------------------------
# Cores and equivalence classes


def _blocks(atoms: Iterable[Atom], free) -> list[set[Atom]]:
    """The atoms of each block: bound variables linked by sharing an atom,
    with every atom that holds them.  Free variables and constants link
    nothing, and atoms with no bound variable are in no block."""
    atoms = list(atoms)
    bound = {t for a in atoms for t in a.args if is_var(t) and t not in free}
    return _atom_components([a for a in atoms if not bound.isdisjoint(a.args)],
                            bound.__contains__)


def core_of_formula(phi: Formula, budget: int | None = None) -> Formula:
    """The minimal hom-equivalent sub-formula, literally: a subset of phi's
    atoms (the same ``Atom`` objects) under phi's head.  A caller that
    prints the core renames it (``canonical_rename``) itself.

    One pass over the atoms in sorted order: drop an atom whenever the
    current formula still maps into the remainder (the remainder always
    maps back, being a subset).  A single pass suffices because every
    intermediate formula stays equivalent to the input.

    Each test moves only the block of the atom alpha under test: the bound
    variables linked to alpha's through shared atoms, and the atoms that
    hold them (Fagin, Kolaitis & Popa, 2005).  That decides the same
    question: a map of the whole formula into the remainder restricts to
    the block, and a map of the block into the remainder, extended by the
    identity, maps every other atom to itself, and none of them is alpha,
    since every atom's bound variables lie in one block.  An atom with no
    bound variable maps to itself, so it is never dropped and never tested.

    The blocks, and the source compiled for each, are those of the input,
    and dropped atoms stay in them.  The answers are still exact.  Let
    phi' be the current formula, B a block as compiled, B' = B & phi' and
    beta the atom under test.  A map of B into phi' - beta restricts to
    B'.  Conversely, the maps found by the tests answered "yes" so far,
    each extended by the identity, compose to a map r of the input into
    phi' that fixes the free variables, a retraction witness in the sense
    of Gottlob & Nash (2008); a map g of B' into phi' - beta, extended by
    the identity to phi', maps phi' into phi' - beta, so g after r maps B
    into it.  As atoms go, a block
    of the input may fall apart into several blocks of phi'; a union of
    blocks is still exact.  So the same atoms are dropped.

    The witness r also answers tests with no search.  It is kept as a
    count per current atom, keyed by its row ``(pred, args)``: how many
    input atoms r sends onto it, 1 each at the start.  When a search
    finds g for alpha, r becomes g after r, and only the counts of
    alpha's block move, each onto the row of its image under g.  An atom
    beta whose count is 0 is outside r's image, so r maps phi' into
    phi' - beta: the search it skips would answer "yes", and beta is
    dropped untested.  So every decision, in the same order, is the one
    the searches make; only searches are skipped.  ``budget`` caps each
    block search that runs: a skipped test spends no nodes, so a core can
    finish within a budget it would otherwise exceed, and where it still
    runs out, it does so at a later test, never an earlier one.

    One index of the current atoms is kept for the whole pass: a test
    takes alpha out and puts it back if the test fails.
    """
    if phi.arity < 1:
        raise ArityMismatch("cores are computed for open formulas")
    atoms = set(phi.atoms)
    free = set(phi.free_vars)
    pins = {v: v for v in free}
    target = _Target(atoms)
    # r as the number of input atoms it sends onto each current row
    witness = dict.fromkeys([(a.pred, a.args) for a in atoms], 1)
    block_of: dict[Atom, tuple[_Source, set[Atom]]] = {}
    for block in _blocks(atoms, free):
        compiled = (_Source.of_atoms(block, pins), block)
        for a in block:
            block_of[a] = compiled
    for alpha in sorted(block_of, key=Atom.key):
        row = (alpha.pred, alpha.args)
        target.discard(*row)
        if witness[row]:
            source, block = block_of[alpha]
            image = _run(source, target, pins, budget)
            if image is None:
                target.add(*row)
                continue
            slot = source.slot
            moved = []
            for beta in block:
                counted = witness[beta.pred, beta.args]
                if counted:
                    witness[beta.pred, beta.args] = 0
                    moved.append((beta, counted))
            for beta, counted in moved:
                witness[beta.pred, tuple([image[slot[t]] for t in beta.args])] += counted
        atoms.discard(alpha)
    return Formula(phi.free_vars, atoms)


def _signature(phi: Formula):
    """Invariant under isomorphism: head repetition pattern plus the
    multiset of atom shapes with constants spelled out."""
    first_seen: dict[Var, int] = {}
    pattern = []
    for v in phi.free_vars:
        pattern.append(first_seen.setdefault(v, len(first_seen)))
    shapes = sorted(
        (a.pred, tuple(("v",) if is_var(t) else ("c", t) for t in a.args))
        for a in phi.atoms
    )
    return (tuple(pattern), tuple(shapes), len(phi.vars))


class FormulaClass:
    """A hom-equivalence class keyed by a core representative.

    Two classes compare equal exactly when their representatives are
    hom-equivalent; the hash uses an isomorphism-invariant signature so
    equal classes never split across hash buckets.
    """

    __slots__ = ("representative", "_sig")

    def __init__(self, representative: Formula):
        self.representative = representative
        self._sig = _signature(representative)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormulaClass):
            return NotImplemented
        if self._sig != other._sig:
            return False
        return equivalent(self.representative, other.representative)

    def __hash__(self) -> int:
        return hash(self._sig)

    def __repr__(self) -> str:
        return f"[{self.representative!r}]"


def canonical_class(phi: Formula, budget: int | None = None) -> FormulaClass:
    """Core plus deterministic renaming: a stable class representative."""
    return FormulaClass(canonical_rename(core_of_formula(phi, budget)))
