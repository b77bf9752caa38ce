"""Knowledge-base model: terms, atoms, datasets, units, summary selectors.

Datasets are finite sets of ground atoms kept closed under the special
unary predicate ``top`` (the truth of "being an entity").  A selective
knowledge base pairs a dataset with a summary selector: a name and a
deterministic function from any tuple of constants to the sub-dataset
that is considered relevant for it.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass

from .errors import (
    ArityConflict,
    EmptyInput,
    EmptyUnit,
    MixedArity,
    NexusError,
    NotClosed,
    NotGround,
    NotProper,
    ParseError,
    SelectorViolation,
    TupleOutsideDomain,
    UnknownConstant,
)

TOP = "top"

# Characters that can never appear in a user-visible name.  "|" is reserved
# for product-constant rendering, the rest for the text formats.
RESERVED_CHARS = set('(),|')

ConstTuple = tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Var:
    """A variable term.  Constants are represented as plain strings."""

    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


Term = str | Var  # constants are bare strings, variables are Var


def is_var(t) -> bool:
    return isinstance(t, Var)


def term_key(t):
    """Total order over terms: constants first, then variables, by name."""
    if isinstance(t, Var):
        return (1, t.name)
    return (0, t)


def check_name(name: str, what: str = "name") -> str:
    if not name or any(c.isspace() for c in name) or RESERVED_CHARS & set(name):
        raise ParseError(f"invalid {what} {name!r}", name=name)
    return name


@dataclass(frozen=True, slots=True)
class Atom:
    """A predicate applied to an ordered sequence of terms."""

    pred: str
    args: tuple

    @property
    def arity(self) -> int:
        return len(self.args)

    def is_ground(self) -> bool:
        return not any(isinstance(a, Var) for a in self.args)

    def key(self):
        return (self.pred, len(self.args), tuple(term_key(a) for a in self.args))

    def __repr__(self) -> str:
        inner = ",".join(a.name if isinstance(a, Var) else a for a in self.args)
        return f"{self.pred}({inner})"


def atom(pred: str, *args) -> Atom:
    return Atom(pred, tuple(args))


class Dataset:
    """A finite nonempty set of ground atoms closed under ``top``."""

    __slots__ = ("atoms", "domain", "omega", "_indexes")

    def __init__(self, atoms: Iterable[Atom]):
        atomset = frozenset(atoms)
        if not atomset:
            raise EmptyInput("a dataset cannot be empty")
        for a in atomset:
            if not a.is_ground():
                raise NotGround(f"non-ground atom {a!r} in dataset")
        arities: dict[str, int] = {TOP: 1}
        for a in atomset:
            seen = arities.setdefault(a.pred, len(a.args))
            if seen != len(a.args):
                raise ArityConflict(
                    f"predicate {a.pred!r} used with arities {seen} and {len(a.args)}",
                    predicate=a.pred,
                )
        domain = frozenset(c for a in atomset for c in a.args)
        missing = [c for c in domain if Atom(TOP, (c,)) not in atomset]
        if missing:
            raise NotClosed(
                f"dataset not closed under {TOP}: missing {sorted(missing)[:3]}"
            )
        self.atoms = atomset
        self.domain = domain
        self.omega = max(a.arity for a in atomset)
        self._indexes: dict = {}  # builder -> the index ``index`` built with it

    def index(self, build):
        """``build(self.atoms)``, built on first use and kept: the indexes
        derived from a dataset, such as the kernel's ``homs._Target``, are
        built at most once per ``Dataset``."""
        found = self._indexes.get(build)
        if found is None:
            found = self._indexes[build] = build(self.atoms)
        return found

    def __contains__(self, a: Atom) -> bool:
        return a in self.atoms

    def __len__(self) -> int:
        return len(self.atoms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Dataset) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        return f"Dataset({len(self.atoms)} atoms, {len(self.domain)} constants)"

    def sorted_atoms(self) -> list[Atom]:
        return sorted(self.atoms, key=Atom.key)


def close_under_top(atoms: Iterable[Atom]) -> Dataset:
    """Close a set of ground atoms under ``top`` and wrap it as a Dataset.

    Idempotent and monotone: the result is the input plus one ``top``
    atom per constant occurring anywhere in it.
    """
    atoms = set(atoms)
    # no top atom for a variable: ``Dataset`` names the non-ground atom given
    return Dataset(atoms | {Atom(TOP, (c,)) for a in atoms if a.is_ground() for c in a.args})


# ---------------------------------------------------------------------------
# Units


class Unit:
    """A proper, finite, nonempty set of same-arity constant tuples."""

    __slots__ = ("tuples", "arity")

    def __init__(self, tuples: Iterable[ConstTuple]):
        tupleset = frozenset(tuple(t) for t in tuples)
        if not tupleset:
            raise EmptyUnit("a unit needs at least one tuple")
        arities = {len(t) for t in tupleset}
        if len(arities) != 1:
            raise MixedArity(f"mixed arities {sorted(arities)} in unit")
        arity = arities.pop()
        if arity < 1:
            raise EmptyUnit("unit tuples must have arity >= 1")
        dup = duplicate_columns(tupleset, arity)
        if dup:
            raise NotProper(
                f"columns {dup[0] + 1} and {dup[1] + 1} coincide on every tuple",
                columns=[dup[0] + 1, dup[1] + 1],
            )
        self.tuples = tupleset
        self.arity = arity

    def sorted_tuples(self) -> list[ConstTuple]:
        return sorted(self.tuples)

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(c for t in self.tuples for c in t)

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self):
        return iter(self.sorted_tuples())

    def __contains__(self, t) -> bool:
        return tuple(t) in self.tuples

    def __eq__(self, other) -> bool:
        return isinstance(other, Unit) and self.tuples == other.tuples

    def __hash__(self) -> int:
        return hash(self.tuples)

    def __repr__(self) -> str:
        return f"Unit({self.sorted_tuples()!r})"


def duplicate_columns(tuples: Iterable[ConstTuple], arity: int):
    """Return a column pair (i, j) equal on every tuple, or None.

    Properness is monotone: adding tuples can only destroy duplicate
    columns, never create them.
    """
    for i, j in itertools.combinations(range(arity), 2):
        if all(t[i] == t[j] for t in tuples):
            return (i, j)
    return None


def validate_unit(tuples: Iterable[ConstTuple], dataset: Dataset) -> Unit:
    """Build a Unit and check that every constant lives in the dataset."""
    unit = Unit(tuples)
    unknown = sorted(unit.domain - dataset.domain)
    if unknown:
        raise UnknownConstant(
            f"unit constants not in the dataset: {unknown}", constants=unknown
        )
    return unit


# ---------------------------------------------------------------------------
# Summary selectors


def _by_subject(atoms: Iterable[Atom]) -> dict[str, tuple[Atom, ...]]:
    """Binary atoms grouped by their first argument (``top`` is unary,
    so none of them is a ``top`` atom)."""
    grouped: dict[str, list[Atom]] = {}
    for a in atoms:
        if len(a.args) == 2:
            grouped.setdefault(a.args[0], []).append(a)
    return {c: tuple(held) for c, held in grouped.items()}


def _sigma0_single(dataset: Dataset, entity: str) -> set[Atom]:
    """Relevant atoms for one entity: its classes, its direct (binary)
    properties, and the direct properties of the entities those point at."""
    by_subject = dataset.index(_by_subject)
    a_part: set[Atom] = set()
    b_part: set[Atom] = set()
    for at in by_subject.get(entity, ()):
        (a_part if at.pred == "isa" else b_part).add(at)
    hops = {at.args[1] for at in b_part}
    c_part = {at for hop in hops for at in by_subject.get(hop, ()) if at.pred != "isa"}
    picked = a_part | b_part | c_part
    tops = {Atom(TOP, (c,)) for a in picked for c in a.args}
    return picked | tops | {Atom(TOP, (entity,))}


def _neighborhood(dataset: Dataset, tau: ConstTuple, radius: int) -> set[Atom]:
    """All atoms within `radius` hops of the tuple's constants in the
    atom-connectivity graph; radius < 0 means the whole component."""
    frontier = set(tau)
    seen_consts = set(frontier)
    picked: set[Atom] = set()
    hops = 0
    while frontier and (radius < 0 or hops < radius):
        layer = {a for a in dataset.atoms if not frontier.isdisjoint(a.args)}
        new_atoms = layer - picked
        if not new_atoms:
            break
        picked |= new_atoms
        next_consts = {c for a in new_atoms for c in a.args} - seen_consts
        seen_consts |= next_consts
        frontier = next_consts
        hops += 1
    tops = {Atom(TOP, (c,)) for a in picked for c in a.args}
    return picked | tops | {Atom(TOP, (c,)) for c in tau}


class SelectorSpec:
    """A summary selector: its ``name`` and ``select(dataset, tau)``, the
    atoms of the dataset relevant to the tuple.

    ``name`` is the CLI spelling, which ``parse`` reads back for the
    built-in selectors: ``full`` (the whole dataset), ``sigma0`` (class +
    one-hop properties, lifted pointwise to n-ary tuples), and
    ``neighborhood:<r>`` (r-hop reachability; ``component`` is the
    unbounded variant).  ``from_table`` pins explicit summaries for chosen
    tuples, every other tuple getting the whole dataset, and ``custom``
    wraps an externally supplied callable.  A ``select`` that returns
    ``dataset.atoms`` itself selects the dataset.
    """

    __slots__ = ("name", "select")

    def __init__(self, name: str, select: Callable[[Dataset, ConstTuple], Iterable[Atom]]):
        if not callable(select):
            raise ParseError(f"{name} selector needs a callable")
        self.name = name
        self.select = select

    @classmethod
    def full(cls) -> "SelectorSpec":
        return cls("full", lambda dataset, tau: dataset.atoms)

    @classmethod
    def sigma0(cls) -> "SelectorSpec":
        return cls("sigma0", lambda dataset, tau: set().union(
            *(_sigma0_single(dataset, c) for c in dict.fromkeys(tau))))

    @classmethod
    def neighborhood(cls, radius: int) -> "SelectorSpec":
        if radius < 1:
            raise ParseError("neighborhood selector needs a positive radius")
        return cls(f"neighborhood:{radius}",
                   lambda dataset, tau: _neighborhood(dataset, tau, radius))

    @classmethod
    def component(cls) -> "SelectorSpec":
        return cls("component", lambda dataset, tau: _neighborhood(dataset, tau, -1))

    @classmethod
    def from_table(cls, table: Mapping[ConstTuple, Dataset]) -> "SelectorSpec":
        table = dict(table)
        return cls("table", lambda dataset, tau: table.get(tau, dataset).atoms)

    @classmethod
    def custom(cls, fn: Callable[[Dataset, ConstTuple], Iterable[Atom]]) -> "SelectorSpec":
        return cls("custom", fn)

    @classmethod
    def parse(cls, text: str) -> "SelectorSpec":
        """Parse a CLI flag: full | sigma0 | component | neighborhood:<r>."""
        if text == "full":
            return cls.full()
        if text == "sigma0":
            return cls.sigma0()
        if text == "component":
            return cls.component()
        m = re.fullmatch(r"neighborhood:(\d+)", text)
        if m:
            return cls.neighborhood(int(m.group(1)))
        raise ParseError(f"unknown selector {text!r}", selector=text)


class SelectiveKB:
    """A dataset paired with a summary selector.

    A tuple's summary is the dataset itself, neither copied nor checked,
    when the selector returns the dataset's atoms; any other selection is
    checked against the selector contract.  Immutable except for the
    summary cache.
    """

    __slots__ = ("dataset", "selector", "_cache")

    def __init__(self, dataset: Dataset, selector: SelectorSpec):
        self.dataset = dataset
        self.selector = selector
        self._cache: dict[ConstTuple, Dataset] = {}

    def summary(self, tau: ConstTuple) -> Dataset:
        tau = tuple(tau)
        cached = self._cache.get(tau)
        if cached is not None:
            return cached
        self.check_domain(tau)
        picked = self.selector.select(self.dataset, tau)
        if picked is self.dataset.atoms:  # the dataset itself, not a checked copy
            summary = self.dataset
        else:
            picked = frozenset(picked)
            if not picked <= self.dataset.atoms:
                raise SelectorViolation("selector returned atoms outside the dataset")
            try:
                summary = Dataset(picked)
            except NexusError as exc:
                raise SelectorViolation(f"selector returned an invalid dataset: {exc}") from exc
            if not set(tau) <= summary.domain:
                raise SelectorViolation("summary must mention every constant of the tuple")
        self._cache[tau] = summary
        return summary

    def check_domain(self, tau: ConstTuple) -> None:
        """Raise ``TupleOutsideDomain`` unless every constant of the tuple
        is in the dataset."""
        outside = [c for c in tau if c not in self.dataset.domain]
        if outside:
            raise TupleOutsideDomain(
                f"tuple constants outside the dataset domain: {sorted(set(outside))}",
                constants=sorted(set(outside)),
            )


# ---------------------------------------------------------------------------
# Fact and unit files


def _strip(line: str) -> str:
    hash_pos = line.find("#")
    if hash_pos >= 0:
        line = line[:hash_pos]
    return line.strip()


_ATOM_RE = re.compile(r"^([^\s(),|]+)\(([^()]*)\)$")


def _parse_ground_atom(text: str, lineno: int) -> Atom:
    m = _ATOM_RE.match(text)
    if not m:
        raise ParseError(f"line {lineno}: cannot parse atom {text!r}", line=lineno)
    pred = check_name(m.group(1), "predicate")
    if pred.startswith("?"):
        raise ParseError(f"line {lineno}: {pred!r} is not a legal predicate", line=lineno)
    raw_args = [a.strip() for a in m.group(2).split(",")] if m.group(2).strip() else []
    if not raw_args:
        raise ParseError(f"line {lineno}: atom {text!r} has no arguments", line=lineno)
    args = tuple(check_name(a, "constant") for a in raw_args)
    for a in args:
        if a == TOP or a.startswith("?"):
            raise ParseError(f"line {lineno}: {a!r} is not a legal constant", line=lineno)
    return Atom(pred, args)


def parse_facts(text: str) -> Dataset:
    """Parse a .nxf fact listing: one `pred(c1,...,cn)` atom per line.

    `#` starts a comment, blank lines are skipped, duplicates collapse,
    and the result is closed under ``top``.
    """
    atoms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        atoms.append(_parse_ground_atom(line, lineno))
    if not atoms:
        raise EmptyInput("no atoms in facts input")
    return close_under_top(atoms)


def parse_tuple(text: str) -> ConstTuple:
    """Parse a single `(c1,...,cn)` tuple literal."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"tuple literal must look like (c1,...,cn): {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        raise ParseError("empty tuple")
    return tuple(check_name(p.strip(), "constant") for p in inner.split(","))


def parse_unit_tuples(text: str) -> list[ConstTuple]:
    """Parse a .nxu unit listing: one `(c1,...,cn)` tuple per line."""
    tuples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        try:
            tuples.append(parse_tuple(line))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc.message}", line=lineno) from None
    if not tuples:
        raise EmptyUnit("no tuples in unit input")
    return tuples


def render_facts(dataset: Dataset) -> str:
    return "\n".join(repr(a) for a in dataset.sorted_atoms()) + "\n"


def render_unit(unit: Unit) -> str:
    return "\n".join("(" + ",".join(t) + ")" for t in unit.sorted_tuples()) + "\n"
