"""Folded sweeps: ``_fold`` drops one-variable retractions from a
formula's numbered rows, and the instance sweeps search the folded rows.
Checked against the input formula, the brute oracles, a brute-force
fixpoint test, the reference fold and the unfolded reference sweep."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_homs
from nexus.characterize import build_can
from nexus.errors import BudgetExceeded
from nexus.formulas import Formula, parse_formula
from nexus.homs import _fold, _numbered, core_of_formula, equivalent, evaluate, instances
from nexus.kb import Atom, is_var
from nexus.oracles import brute_evaluate, brute_instances, random_formula, random_unit
from test_membership_reference import SELECTORS, make_kb

ROOT = Path(__file__).resolve().parent.parent

# nodes per block search of a can's core, for the optional brute check
CORE_BUDGET = 10_000

# ``?a`` is blocked by s(?a,?b) until ``?b`` folds onto k; ``?c`` never
# folds (u(?a) is missing), so ``?a`` folds only when it is tried again
REQUEUED = "x <- r(x,?a), s(?a,?b), s(?a,k), r(x,?c), s(?c,k), u(?c)"

# eight interchangeable ``isa(x,?y)`` atoms, as in a canonical
# characterization over a tourism KB
INTERCHANGEABLE = "x <- isa(x,aquarium), top(x), " + ", ".join(
    f"isa(x,?y{i}), top(?y{i})" for i in range(1, 9)
)


def fold(phi: Formula) -> Formula:
    """The atoms of phi whose ``_numbered`` rows ``_fold`` keeps."""
    atoms = list(phi.atoms)
    terms, rows = _numbered(atoms)
    kept = set(_fold(terms, rows, phi.free_vars))
    return Formula(phi.free_vars, [a for a, row in zip(atoms, rows) if row in kept])


def one_variable_folds(phi: Formula):
    """Every (v, w) with v bound and {v -> w} mapping each atom holding v
    onto an atom of phi, by trying every term of phi."""
    terms = {t for a in phi.atoms for t in a.args}
    for v in sorted((t for t in terms if is_var(t) and t not in phi.free_vars),
                    key=lambda t: t.name):
        held = [a for a in phi.atoms if v in a.args]
        for w in terms - {v}:
            if all(Atom(a.pred, tuple(w if t == v else t for t in a.args)) in phi.atoms
                   for a in held):
                yield v, w


def unit_space(kb, arity):
    return list(itertools.product(sorted(kb.dataset.domain), repeat=arity))


def assert_folds_soundly(phi: Formula):
    folded = fold(phi)
    assert folded.atoms <= phi.atoms
    assert folded.free_vars == phi.free_vars
    assert equivalent(folded, phi)
    assert list(one_variable_folds(folded)) == []
    return folded


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    selector=st.sampled_from(SELECTORS),
    arity=st.integers(1, 2),
)
def test_folded_formulas_sweep_like_the_brute_oracles(seed, selector, arity):
    kb = make_kb(seed, selector)
    phi = random_formula(kb, random.Random(seed), max_atoms=5, max_arity=arity)
    assert_folds_soundly(phi)
    assert instances(phi, kb) == brute_instances(phi, kb)
    assert evaluate(phi, kb.dataset) == brute_evaluate(phi, kb.dataset)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    selector=st.sampled_from(SELECTORS),
    arity=st.integers(1, 2),
)
def test_folded_cans_sweep_like_their_cores(seed, selector, arity):
    """Canonical characterizations are too big for the brute oracles, so
    they are checked against unfolded searches of the reference kernel,
    and, when their cores are small enough, the brute oracles run on the
    cores, which have the same instances and outputs."""
    kb = make_kb(seed, selector)
    unit = random_unit(kb, random.Random(seed), max_arity=arity, max_size=2)
    can = build_can(unit, kb)
    assert_folds_soundly(can)
    space = unit_space(kb, unit.arity)
    got, output = instances(can, kb), evaluate(can, kb.dataset)
    member = reference_homs.membership_test(can, kb)
    assert got == {tau for tau in space if member(tau)}
    assert output == {
        tau for tau in space
        if reference_homs._search(can.atoms, kb.dataset.atoms, dict(zip(can.free_vars, tau)))
        is not None
    }
    try:  # some cans' cores take minutes; the brute check is optional
        core = core_of_formula(can, budget=CORE_BUDGET)
    except BudgetExceeded:
        return
    if len(core.vars) <= 6:  # at most 4^6 assignments per summary
        assert got == brute_instances(core, kb)
        assert output == brute_evaluate(core, kb.dataset)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    selector=st.sampled_from(SELECTORS),
    arity=st.integers(1, 2),
)
def test_the_fold_keeps_the_reference_atoms(seed, selector, arity):
    """The fold on numbered rows, asked of the kernel's index, drops the
    same atoms as the reference fold with its own index."""
    kb = make_kb(seed, selector)
    rng = random.Random(seed)
    phi = random_formula(kb, rng, max_atoms=8, max_arity=arity)
    can = build_can(random_unit(kb, rng, max_arity=arity, max_size=2), kb)
    for psi in (phi, can):
        assert fold(psi).atoms == reference_homs.fold_formula(psi).atoms


def test_a_fold_frees_its_neighbours():
    phi = parse_formula(REQUEUED)
    folded = assert_folds_soundly(phi)
    assert folded == parse_formula("x <- r(x,?c), s(?c,k), u(?c)")


def test_interchangeable_atoms_fold_to_one():
    folded = assert_folds_soundly(parse_formula(INTERCHANGEABLE))
    assert folded == parse_formula("x <- isa(x,aquarium), top(x), isa(x,?y8), top(?y8)")


def test_free_variables_never_fold():
    phi = parse_formula("x,y <- p(x,c), p(y,c), p(?z,c)")
    assert fold(phi) == parse_formula("x,y <- p(x,c), p(y,c)")


FOLD_SCRIPT = """
import sys
from nexus.characterize import build_can
from nexus.formulas import parse_formula
from nexus.homs import _fold, _numbered
from nexus.kb import SelectiveKB, SelectorSpec, parse_facts, validate_unit
dataset = parse_facts(open(sys.argv[1]).read())
kb = SelectiveKB(dataset, SelectorSpec.sigma0())
can = build_can(validate_unit([("Discovery_Cove",), ("Epcot",)], dataset), kb)
for phi in (can, parse_formula(sys.argv[2])):
    atoms = list(phi.atoms)
    terms, rows = _numbered(atoms)
    kept = set(_fold(terms, rows, phi.free_vars))
    print(sorted(repr(a) for a, row in zip(atoms, rows) if row in kept))
"""


def test_the_fold_does_not_depend_on_the_hash_seed():
    outputs = []
    for hash_seed in ("0", "4242"):
        path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(path))
        done = subprocess.run(
            [sys.executable, "-c", FOLD_SCRIPT, str(ROOT / "data" / "parks.nxf"), INTERCHANGEABLE],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 2


def test_sweeps_fit_a_budget_the_unfolded_can_exceeds(parks_kb, parks_unit):
    """Without folding, one search of the parks can's sweep needs 2 nodes;
    the folded can holds no bound variable and needs none."""
    can = build_can(parks_unit, parks_kb)
    want = instances(core_of_formula(can), parks_kb)
    assert instances(can, parks_kb, budget=1) == want
    member = reference_homs.membership_test(can, parks_kb, budget=1)
    with pytest.raises(BudgetExceeded):
        any(member(tau) for tau in unit_space(parks_kb, 1))
