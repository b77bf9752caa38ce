"""Differential tests: the block-wise core over one maintained index,
which skips the tests its retraction witness answers, against the core
that searched the whole formula into a fresh index for every atom
(``reference_homs.core_of_formula``).  Both must keep the same atoms and
print the same renamed core."""

import pytest
from hypothesis import example, given, settings, strategies as st

import engine_hooks
import reference_homs
from nexus.errors import BudgetExceeded
from nexus.formulas import Formula, canonical_rename, parse_formula, to_text
from nexus.homs import _blocks, _run, core_of_formula
from nexus.kb import Atom, Var

HEAD = [Var("x1"), Var("x2"), Var("x3")]
CONSTS = ["c0", "c1"]
PREDS = [("p", 2), ("q", 1), ("r", 2), ("t", 3)]
RENAMED_COPY = "x <- p(x,?y1), r(?y1,?z1), p(x,?y2), r(?y2,?z2)"


@st.composite
def atoms_over(draw, own, others, min_size, max_size):
    """Atoms over ``own`` and ``others``, each holding a term of ``own``."""
    out = []
    for _ in range(draw(st.integers(min_size, max_size))):
        pred, arity = draw(st.sampled_from(PREDS))
        args = [draw(st.sampled_from(own + others)) for _ in range(arity)]
        args[draw(st.integers(0, arity - 1))] = draw(st.sampled_from(own))
        out.append(Atom(pred, tuple(args)))
    return out


@st.composite
def formulas(draw):
    """Several blocks of bound variables that share head variables and
    constants, some blocks repeated under other names (so they fold onto
    each other), and atoms with no bound variable."""
    head = draw(st.lists(st.sampled_from(HEAD), min_size=1, max_size=3))
    others = list(dict.fromkeys(head)) + CONSTS
    atoms = []
    for b in range(draw(st.integers(1, 4))):
        own = [Var(f"b{b}_{j}") for j in range(draw(st.integers(1, 3)))]
        block = draw(atoms_over(own, others, 1, 4))
        atoms += block
        if draw(st.booleans()):
            renamed = {v: Var(f"{v.name}_copy") for v in own}
            atoms += [Atom(a.pred, tuple(renamed.get(t, t) for t in a.args)) for a in block]
    atoms += draw(atoms_over(list(dict.fromkeys(head)), CONSTS, 0, 3))
    occurring = {t for a in atoms for t in a.args}
    atoms += [Atom("q", (v,)) for v in head if v not in occurring]
    return Formula(head, atoms)


def assert_same_core(phi, budget=None):
    got = core_of_formula(phi, budget)
    want = reference_homs.core_of_formula(phi, budget, rename=False)
    assert got.atoms == want.atoms
    assert to_text(canonical_rename(got)) == to_text(reference_homs.core_of_formula(phi, budget))


@settings(max_examples=400, deadline=None)
@given(formulas())
# two atoms putting one variable in the same column, one of them dropped
@example(parse_formula("x1 <- p(?b0,?b0), p(?b0,?b1), p(?b2,?b1), q(x1)"))
@example(parse_formula("x1 <- p(?b0,?b0), p(?b0,?b1), p(?b0,?b2), q(x1)"))
# a dropped atom stays in its block's source, the only holder of ?z (?w in
# the second) when a later test of that block runs
@example(parse_formula("x <- p(x,?y), q(?y,?w), q(?y,?z), r(?w)"))
@example(parse_formula("x <- p(x,?y), q(?y,?w), q(?y,?z), r(?w), r(?z)"))
# a block and its renamed copies: the witness answers the copies' later
# atoms, and the second copy is moved again after the first has moved onto it
@example(parse_formula(RENAMED_COPY))
@example(parse_formula("x <- p(x,?y1), r(?y1,?z1), p(x,?y2), r(?y2,?z2), p(x,?y3), r(?y3,?z3)"))
# a "yes" moves q(?a,?b) onto q(?a,?c) of its own block, which must stay
@example(parse_formula("x <- p(x,?a), q(?a,?b), q(?a,?c), t(?c)"))
def test_same_core_as_reference(phi):
    assert_same_core(phi)


def test_witness_answers_before_the_search():
    """The first test moves the block of ?y1 onto its copy, so the
    witness no longer reaches r(?y1,?z1) and drops it with no search.  The
    tests of p(x,?y2) and r(?y2,?z2) still search, and fail: 3 searches
    where a pass without the witness makes 4, keeping the same atoms."""
    phi = parse_formula(RENAMED_COPY)
    with engine_hooks.calls(_run) as runs:
        assert to_text(canonical_rename(core_of_formula(phi))) == "x1 <- p(x1,?y1), r(?y1,?y2)"
    assert len(runs) == 3
    assert_same_core(phi)


def test_blocks_link_bound_variables_only():
    """Head variables and constants link no blocks, every atom holding a
    block's variable is in that block, and atoms with no bound variable
    are in none."""
    x, y, z, w = (Var(n) for n in "xyzw")
    atoms = [Atom("p", (x, y)), Atom("r", (z, y)), Atom("p", (x, w)), Atom("t", (w, "c0", x)),
             Atom("q", (x,)), Atom("p", (x, "c0"))]
    blocks = sorted(_blocks(atoms, {x}), key=len)
    assert [set(b) for b in blocks] == [set(atoms[:2]), set(atoms[2:4])]


def test_a_failed_test_puts_its_atom_back():
    """p(x,y) cannot go (y must also satisfy s), so its test fails; p(x,z)
    then folds onto p(x,y) only if that failed test put p(x,y) back."""
    x, y, z = Var("x"), Var("y"), Var("z")
    phi = Formula([x], [Atom("q", (x,)), Atom("p", (x, y)), Atom("s", (y,)), Atom("p", (x, z))])
    assert core_of_formula(phi).atoms == {
        Atom("q", (x,)), Atom("p", (x, y)), Atom("s", (y,)),
    }
    assert_same_core(phi)


def test_small_budget_suffices_block_by_block():
    """Six blocks hang off the head variable.  Each test moves one block's
    two variables, two nodes, while a search of the whole formula moves
    all twelve and runs out of a budget of two."""
    x = Var("x")
    atoms = []
    for i in range(1, 7):
        y, z = Var(f"y{i}"), Var(f"z{i}")
        atoms += [Atom("p", (x, y)), Atom("r", (y, z))]
    phi = Formula([x], atoms)
    assert to_text(canonical_rename(core_of_formula(phi, budget=2))) == "x1 <- p(x1,?y1), r(?y1,?y2)"
    with pytest.raises(BudgetExceeded):
        reference_homs.core_of_formula(phi, budget=2)
