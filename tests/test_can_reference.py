"""Differential tests against what the current code replaced
(``reference_can``).  The reachable-product canonical characterization
and the heap-ordered renaming must return the formulas, with identical
text, of the materialize-then-prune pipeline and the quadratic renaming;
the engine's can is compared after the canonical renaming that
``build_can`` applies, since decisions search it as assembled.  The
product walk must number and return what the walk that built every
binary atom from both ends did."""

import random

from hypothesis import given, settings, strategies as st

import reference_can
from nexus.characterize import _can_from_tuples, _reachable_product
from nexus.formulas import Formula, canonical_rename, to_text
from nexus.kb import TOP, Atom, SelectiveKB, SelectorSpec, Var, close_under_top
from nexus.oracles import RandomSkbConfig, random_skb

SELECTORS = ["full", "sigma0", "component", "neighborhood:1"]


def assert_same_can(tuples, kb):
    got = canonical_rename(_can_from_tuples(tuples, kb))
    want = reference_can._can_from_tuples(tuples, kb)
    assert got == want
    assert to_text(got) == to_text(want)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    selector=st.sampled_from(SELECTORS),
    arity=st.integers(1, 3),
    size=st.integers(1, 3),
    data=st.data(),
)
def test_can_matches_reference_on_random_skbs(seed, selector, arity, size, data):
    kb = random_skb(RandomSkbConfig(
        max_constants=5,
        predicates=(("isa", 2), ("p", 2), ("r", 2), ("q", 1)),
        atom_density=0.2,
        selector=selector,
        seed=seed,
    ))
    consts = sorted(kb.dataset.domain)
    row = st.tuples(*[st.sampled_from(consts)] * arity)
    # any order and repetition: the construction takes an explicit sequence
    tuples = data.draw(st.lists(row, min_size=1, max_size=size))
    assert_same_can(tuples, kb)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    selector=st.sampled_from(SELECTORS),
    arity=st.integers(2, 3),
    data=st.data(),
)
def test_can_matches_reference_with_a_free_gene(seed, selector, arity, data):
    """A unit column holding one constant b on every tuple is a free gene:
    its atoms are cloned onto b, and clones such as ``p(x,b)`` or
    ``top(b)`` must be kept or dropped exactly as before."""
    rng = random.Random(seed)
    consts = [f"e{i}" for i in range(1, rng.randint(3, 5) + 1)]
    b = rng.choice(consts)
    atoms = [Atom(p, (s, o)) for p in ("p", "r") for s in consts for o in consts
             if rng.random() < 0.2]
    atoms += [Atom("p", (rng.choice(consts), b)), Atom("p", (b, rng.choice(consts)))]
    atoms += [Atom("q", (c,)) for c in consts if rng.random() < 0.3]
    atoms += [Atom("top", (c,)) for c in consts]
    kb = SelectiveKB(close_under_top(atoms), SelectorSpec.parse(selector))
    gene_col = data.draw(st.integers(0, arity - 1))
    row = st.tuples(*[st.just(b) if i == gene_col else st.sampled_from(consts)
                      for i in range(arity)])
    tuples = data.draw(st.lists(row, min_size=1, max_size=3, unique=True))
    assert_same_can(sorted(tuples), kb)


def test_can_matches_reference_on_parks(parks_kb, parks_dataset):
    consts = sorted(parks_dataset.domain)
    rng = random.Random(3)
    for _ in range(40):
        arity = rng.randint(1, 2)
        tuples = sorted({tuple(rng.choice(consts) for _ in range(arity))
                         for _ in range(rng.randint(1, 3))})
        assert_same_can(tuples, parks_kb)


WALK_PREDICATES = (("q", 1), ("p", 2), ("r", 2), ("t", 3))


@st.composite
def walks(draw):
    """1-3 operands over up to four constants with unary, binary and
    ternary atoms and binary self-loops, possibly one dataset for every
    operand (as under ``full``), and frees that may repeat and may be
    genes ``(b, ..., b)``.  Binary relations may be closed under reversal,
    in every operand or in only some: the walk joins a relation symmetric
    in every operand at one position only."""
    consts = [f"e{i}" for i in range(1, draw(st.integers(1, 4)) + 1)]
    term = st.sampled_from(consts)
    mirrored = draw(st.sampled_from([(), ("p",), ("r",), ("p", "r")]))
    everywhere = draw(st.booleans())
    operands = []
    for _ in range(draw(st.integers(1, 3))):
        atoms = [Atom(TOP, (draw(term),))]
        for pred, arity in WALK_PREDICATES:
            atoms += [Atom(pred, args)
                      for args in draw(st.lists(st.tuples(*[term] * arity), max_size=6))]
        atoms += [Atom("p", (c, c)) for c in draw(st.lists(term, max_size=2))]
        if everywhere or draw(st.booleans()):
            atoms += [Atom(a.pred, a.args[::-1]) for a in atoms if a.pred in mirrored]
        operands.append(close_under_top(atoms))
    if len(operands) > 1 and draw(st.booleans()):
        operands = [operands[0]] * len(operands)
    parts = [st.sampled_from(sorted(ds.domain)) for ds in operands]
    frees = draw(st.lists(st.tuples(*parts), min_size=1, max_size=3))
    shared = sorted(set.intersection(*[set(ds.domain) for ds in operands]))
    if shared and draw(st.booleans()):
        gene = (draw(st.sampled_from(shared)),) * len(operands)
        frees.insert(draw(st.integers(0, len(frees))), gene)
    return operands, frees


@settings(max_examples=300, deadline=None)
@given(walks())
def test_walk_matches_reference(walk):
    """The same product constants in the same order and the same atoms,
    each once."""
    operands, frees = walk
    consts, rows = _reachable_product(operands, frees)
    want_consts, want_rows = reference_can._reachable_product(operands, frees)
    assert consts == want_consts
    assert len(rows) == len(set(rows))
    assert set(rows) == want_rows


VARS = [Var(n) for n in ("a", "b", "c", "y1", "y2", "x1")]
# constants that collide with the generated names force the "_" suffixes
CONSTS = ["c0", "x1", "y1", "y3"]
PREDS = [("p", 2), ("q", 1), ("p", 1), ("t", 3)]


@st.composite
def formulas(draw):
    atoms = []
    for _ in range(draw(st.integers(1, 10))):
        pred, arity = draw(st.sampled_from(PREDS))
        atoms.append(Atom(pred, tuple(draw(st.sampled_from(VARS + CONSTS))
                                      for _ in range(arity))))
    occurring = sorted({t for a in atoms for t in a.args if isinstance(t, Var)},
                       key=lambda v: v.name)
    head = draw(st.lists(st.sampled_from(occurring), max_size=3)) if occurring else []
    return Formula(head, atoms)


@settings(max_examples=400, deadline=None)
@given(formulas())
def test_canonical_rename_matches_reference(phi):
    got = canonical_rename(phi)
    want = reference_can.canonical_rename(phi)
    assert got == want
    assert to_text(got) == to_text(want)


def test_canonical_rename_long_path_in_path_order():
    """A 5,000-atom path whose variable names are shuffled is named
    y1, y2, ... along the path, starting from the head."""
    n = 5_000
    names = [f"v{i}" for i in range(n)]
    random.Random(0).shuffle(names)
    path = [Var("h")] + [Var(name) for name in names]
    phi = Formula([Var("h")], [Atom("p", (path[i], path[i + 1])) for i in range(n)])
    out = canonical_rename(phi)
    named = [Var("x1")] + [Var(f"y{i}") for i in range(1, n + 1)]
    assert out.free_vars == (Var("x1"),)
    assert out.atoms == {Atom("p", (named[i], named[i + 1])) for i in range(n)}
