import itertools
import os
import pathlib
import random
import subprocess
import sys

import pytest

import engine_hooks
from nexus import homs, oracles
from nexus.characterize import build_core_char
from nexus.errors import ArityMismatch, BudgetExceeded
from nexus.expansion import ess_member
from nexus.formulas import Formula, parse_formula, to_text, top_formula
from nexus.homs import (
    HomProblem,
    canonical_class,
    core_of_formula,
    equivalent,
    evaluate,
    find_hom,
    instances,
    is_isomorphic,
    maps_to,
    tuple_membership,
)
from nexus.kb import Atom, SelectiveKB, SelectorSpec, Var, atom, close_under_top
from nexus.oracles import (
    RandomSkbConfig,
    brute_evaluate,
    brute_instances,
    random_formula,
    random_skb,
)

US_PARKS = "x <- isa(x,ap), located(x,?y), partOf(?y,US)"
FLORIDA_TP = "x <- isa(x,tp), located(x,Florida)"


def test_find_hom_into_stronger_core(parks_cores):
    phi1 = parse_formula(US_PARKS)
    problem = HomProblem(phi1.atoms, parks_cores["florida_tp"].atoms, {Var("x"): Var("x")})
    hom = find_hom(problem)
    assert hom is not None
    assert hom[Var("x")] == Var("x")
    for a in phi1.atoms:
        image = tuple(hom[t] for t in a.args)
        assert any(b.pred == a.pred and b.args == image for b in parks_cores["florida_tp"].atoms)


def test_find_hom_reverse_fails(parks_cores):
    phi1 = parse_formula(US_PARKS)
    problem = HomProblem(parks_cores["florida_tp"].atoms, phi1.atoms, {Var("x"): Var("x")})
    assert find_hom(problem) is None


def test_find_hom_identity(parks_cores):
    atoms = parks_cores["florida_tp"].atoms
    hom = find_hom(HomProblem(atoms, atoms, {Var("x"): Var("x")}))
    assert hom is not None
    assert all(hom[c] == c for c in ("Florida", "US", "tp", "ap"))


def test_hom_composition():
    a = parse_formula("x <- p(x,?u), p(?u,?v)").atoms
    b = parse_formula("x <- p(x,?w), p(?w,x)").atoms
    c = close_under_top([atom("p", "1", "2"), atom("p", "2", "1")]).atoms
    h1 = find_hom(HomProblem(a, b, {Var("x"): Var("x")}))
    h2 = find_hom(HomProblem(b, c, {Var("x"): "1"}))
    assert h1 and h2
    composed = {t: h2[h1[t]] for t in h1}
    for at in a:
        image = tuple(composed[t] for t in at.args)
        assert any(bt.pred == at.pred and bt.args == image for bt in c)


def test_budget_exceeded():
    src = parse_formula("x <- " + ", ".join(f"p(x,?y{i}), p(?y{i},x)" for i in range(6)))
    tgt = close_under_top([atom("p", a, b) for a in "abcdef" for b in "abcdef"])
    with pytest.raises(BudgetExceeded):
        find_hom(HomProblem(src.atoms, tgt.atoms, {}), budget=3)


def test_import_leaves_recursion_limit_alone():
    code = (
        "import sys; before = sys.getrecursionlimit(); "
        "import nexus, nexus.cli, nexus.oracles; "
        "print(sys.getrecursionlimit() == before)"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "True"


def test_long_chain_needs_no_deep_stack():
    chain = [Var(f"v{i}") for i in range(5000)]
    source = [Atom("p", (u, v)) for u, v in zip(chain, chain[1:])]
    target = close_under_top([atom("p", "a", "b"), atom("p", "b", "a")]).atoms
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        hom = find_hom(HomProblem(frozenset(source), target))
    finally:
        sys.setrecursionlimit(limit)
    assert hom is not None
    assert all(Atom("p", (hom[u], hom[v])) in target for u, v in zip(chain, chain[1:]))


@pytest.mark.parametrize("shuffled", [False, True], ids=["path-order", "shuffled"])
def test_path_into_k3_searches_past_the_recursion_limit(shuffled):
    names = [f"v{i:04d}" for i in range(5001)]
    if shuffled:
        random.Random(23).shuffle(names)
    path = [Var(name) for name in names]
    source = frozenset(Atom("p", (u, v)) for u, v in zip(path, path[1:]))
    target = close_under_top([atom("p", a, b) for a in "abc" for b in "abc" if a != b]).atoms
    problem = HomProblem(source, target)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        # no value ever fails, so the search tries exactly one per variable
        hom = find_hom(problem, budget=5_001)
        with pytest.raises(BudgetExceeded):
            find_hom(problem, budget=5_000)
    finally:
        sys.setrecursionlimit(limit)
    assert hom is not None
    assert all(Atom("p", (hom[u], hom[v])) in target for u, v in zip(path, path[1:]))


@pytest.fixture()
def kernel_meter():
    """Counts the queries a search asks of the target, ``_Target.supports``
    calls and ``_Target.project`` calls, and lists the nodes each search
    that reaches the search loop spends, in order."""
    with (engine_hooks.searches() as meters,
          engine_hooks.calls(homs._Target.supports) as supports,
          engine_hooks.calls(homs._Target.project) as projects):
        yield lambda: (len(supports) + len(projects), [m.cap - m.left for m in meters])


# Forward checking skips the atoms whose variables are all assigned, and
# asks one projection per group of binary atoms.  The node lists are those
# of the kernel that still asked the target about every atom, one
# ``supports`` call each: neither may move the search tree.  The query
# bounds are the counts of this kernel, the same under every hash seed; a
# kernel that also projected for groups whose partners are all assigned
# made 1,449, 121 and 225 queries.
CYCLES_NODES = [20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 1, 10, 9, 8, 7, 6, 5, 4, 3, 2,
                23, 24, 25, 26, 22, 21, 21, 20, 19, 18, 17, 16, 15, 14, 13, 12, 1, 11,
                10, 9, 8, 7, 6, 5, 4, 3, 2, 23, 24, 25, 26, 27, 22]


def test_core_search_skips_fully_assigned_atoms(kernel_meter):
    """The core of the 2*3*5 prime cycles: a one-cycle core of 30 nodes."""
    kb, unit = oracles.gen_prime_cycles(3)
    assert build_core_char(unit, kb).size == 60
    queries, nodes = kernel_meter()
    assert nodes == CYCLES_NODES
    assert queries <= 846


def test_membership_search_skips_fully_assigned_atoms(kernel_meter):
    """``ess_member`` on the 3-colorability reduction of a 5-cycle."""
    vertices = [f"v{i}" for i in range(5)]
    edges = [(f"v{i}", f"v{(i + 1) % 5}") for i in range(5)]
    kb, unit, tau = oracles.gen_3col_instance(vertices, edges, 1)
    assert ess_member(unit, kb, tau)
    queries, nodes = kernel_meter()
    assert nodes == [35]
    assert queries <= 113


def _wheel_3col():
    """The 3-colorability reduction of a 6-spoke wheel."""
    rim = [f"v{i}" for i in range(6)]
    edges = [("h", v) for v in rim] + [(rim[i], rim[(i + 1) % 6]) for i in range(6)]
    return oracles.gen_3col_instance(["h", *rim], edges, 1)


def test_membership_search_projects_once_per_group(kernel_meter):
    """``ess_member`` on the 3-colorability reduction of a 6-spoke wheel.
    In its can each of the 63 variables is in 30 to 98 ``arc`` atoms.  A
    kernel that asks ``supports`` once per atom makes 1,445 queries for
    the same 63 nodes; one projection per group of a role makes a seventh
    of them."""
    kb, unit, tau = _wheel_3col()
    assert ess_member(unit, kb, tau)
    queries, nodes = kernel_meter()
    assert nodes == [63]
    assert queries <= 1445 // 3


# ---------------------------------------------------------------------------
# evaluate / instances


def test_evaluate_phi3(parks_dataset):
    phi3 = parse_formula("y <- located(?x,y), partOf(y,US)")
    assert evaluate(phi3, parks_dataset) == {("Florida",), ("California",)}


def test_evaluate_top_formula(parks_dataset):
    assert evaluate(top_formula(1), parks_dataset) == {
        (c,) for c in parks_dataset.domain
    }


def test_evaluate_missing_constant_is_empty(parks_dataset):
    phi = parse_formula("x <- located(x,Mars)")
    assert evaluate(phi, parks_dataset) == set()


def test_evaluate_arity0(parks_dataset):
    assert evaluate(parse_formula(" <- located(?x,Florida)"), parks_dataset) is True
    assert evaluate(parse_formula(" <- located(?x,US)"), parks_dataset) is False


def test_evaluate_matches_brute_on_seeds():
    rng = random.Random(11)
    for i in range(40):
        kb = random_skb(RandomSkbConfig(max_constants=4, atom_density=0.2, seed=i))
        phi = random_formula(kb, rng)
        assert evaluate(phi, kb.dataset) == brute_evaluate(phi, kb.dataset), i


def test_instances_phi3_empty(parks_kb):
    phi3 = parse_formula("y <- located(?x,y), partOf(y,US)")
    assert instances(phi3, parks_kb) == set()


def test_instances_top_formula_is_whole_space(parks_kb):
    domain = sorted(parks_kb.dataset.domain)
    assert instances(top_formula(1), parks_kb) == {(c,) for c in domain}
    assert instances(top_formula(2), parks_kb) == set(itertools.product(domain, repeat=2))


def test_instances_of_most_specific_core(parks_kb, parks_unit, parks_cores):
    assert instances(parks_cores["florida_tp"], parks_kb) == parks_unit.tuples


def test_instances_subset_of_evaluate_and_threads(parks_kb, parks_cores):
    for phi in parks_cores.values():
        inst = instances(phi, parks_kb)
        assert inst <= evaluate(phi, parks_kb.dataset)


def test_instances_match_brute_on_seeds():
    rng = random.Random(12)
    for i in range(30):
        kb = random_skb(RandomSkbConfig(max_constants=4, atom_density=0.2, seed=100 + i))
        phi = random_formula(kb, rng)
        assert instances(phi, kb) == brute_instances(phi, kb), i


NULLARY_X = Var("x")
WITH_NULLARY = Formula((NULLARY_X,), [Atom("q", (NULLARY_X,)), Atom("p", ())])


@pytest.mark.parametrize("facts", [[atom("q", "a")], [atom("q", "a"), Atom("p", ())]])
def test_nullary_atoms_are_checked(facts):
    """``p()`` holds only where the target has it, like any other atom."""
    dataset = close_under_top(facts)
    assert evaluate(WITH_NULLARY, dataset) == brute_evaluate(WITH_NULLARY, dataset)
    closed = Formula((), [Atom("p", ())])
    assert evaluate(closed, dataset) == bool(brute_evaluate(closed, dataset))
    for spec in ("full", "sigma0", "component"):
        kb = SelectiveKB(dataset, SelectorSpec.parse(spec))
        assert instances(WITH_NULLARY, kb) == brute_instances(WITH_NULLARY, kb), spec


def test_maps_to_checks_nullary_atoms():
    plain = Formula((NULLARY_X,), [Atom("q", (NULLARY_X,))])
    assert not maps_to(WITH_NULLARY, plain)
    assert maps_to(plain, WITH_NULLARY)
    assert find_hom(HomProblem(WITH_NULLARY.atoms, plain.atoms)) is None


def test_tuple_membership(parks_kb, parks_cores):
    assert tuple_membership(parks_cores["florida_tp"], parks_kb, ("Epcot",))
    assert not tuple_membership(parks_cores["florida_tp"], parks_kb, ("Gardaland",))


# ---------------------------------------------------------------------------
# maps_to / equivalence / isomorphism


def test_maps_to_strictness(parks_cores):
    phi5 = parse_formula(FLORIDA_TP)
    assert maps_to(phi5, parks_cores["florida_tp"])
    assert not maps_to(parks_cores["florida_tp"], phi5)


def test_maps_to_identity(parks_cores):
    for phi in parks_cores.values():
        assert maps_to(phi, phi)


def test_maps_to_arity_mismatch():
    with pytest.raises(ArityMismatch):
        maps_to(top_formula(1), top_formula(2))


def test_equivalent_after_redundant_atom(parks_cores):
    phi4 = parse_formula("x <- isa(x,tp), located(x,?y), located(x,Florida)")
    phi5 = parse_formula(FLORIDA_TP)
    assert equivalent(phi4, phi5)
    assert not equivalent(parks_cores["florida_tp"], parks_cores["us_ap"])


def test_is_isomorphic_alpha_renaming(parks_cores):
    renamed = parks_cores["florida_tp"].rename({Var("x"): Var("z9")})
    assert is_isomorphic(parks_cores["florida_tp"], renamed)
    assert not is_isomorphic(parks_cores["florida_tp"], parks_cores["tp_anywhere"])


def test_isomorphism_needs_matching_atom_sets():
    one = parse_formula("x <- r(x,?y)")
    two = parse_formula("x <- r(x,?y), r(?y,x)")
    assert maps_to(one, two)
    assert not is_isomorphic(one, two)


# ---------------------------------------------------------------------------
# cores


def test_core_folds_redundant_location():
    phi4 = parse_formula("x <- isa(x,tp), located(x,?y), located(x,Florida)")
    core = core_of_formula(phi4)
    assert core.size == 2
    assert is_isomorphic(core, parse_formula(FLORIDA_TP))


def test_core_single_atom():
    phi = parse_formula("x <- p(x,x)")
    assert core_of_formula(phi) == phi
    assert is_isomorphic(core_of_formula(phi), phi)


def test_core_subformula_and_minimality():
    phi = parse_formula("x <- isa(x,tp), located(x,?y), located(x,Florida), top(?y), top(Florida)")
    core = core_of_formula(phi)
    assert core.atoms <= phi.atoms
    assert equivalent(core, phi)
    for alpha in core.atoms:
        rest = core.atoms - {alpha}
        vars_left = {t for a in rest for t in a.args if isinstance(t, Var)}
        if not rest or not set(core.free_vars) <= vars_left:
            continue
        assert not maps_to(core, Formula(core.free_vars, rest))


def _brute_core_size(phi):
    """Smallest equivalent sub-formula by exhaustive subset enumeration."""
    ordered = sorted(phi.atoms, key=lambda a: a.key())
    for size in range(1, len(ordered) + 1):
        for sub in itertools.combinations(ordered, size):
            occurring = {t for a in sub for t in a.args if isinstance(t, Var)}
            if not set(phi.free_vars) <= occurring:
                continue
            if maps_to(phi, Formula(phi.free_vars, sub)):
                return size
    return len(ordered)


def test_core_matches_subset_oracle_on_seeds():
    rng = random.Random(13)
    for i in range(25):
        kb = random_skb(RandomSkbConfig(max_constants=4, atom_density=0.25, seed=200 + i))
        phi = random_formula(kb, rng, max_atoms=5)
        core = core_of_formula(phi)
        assert core.size == _brute_core_size(phi), to_text(phi)
        assert equivalent(core, phi)


# ---------------------------------------------------------------------------
# classes


def test_canonical_class_alpha_invariant(parks_cores):
    phi = parks_cores["us_ap"]
    renamed = phi.rename({Var("x"): Var("v"), Var("y"): Var("w")})
    assert canonical_class(phi) == canonical_class(renamed)
    assert hash(canonical_class(phi)) == hash(canonical_class(renamed))


def test_canonical_class_disjoint_predicates_differ():
    one = parse_formula("x <- p(x,?y)")
    two = parse_formula("x <- q(x,?y)")
    assert canonical_class(one) != canonical_class(two)


def test_canonical_class_core_is_fixpoint(parks_cores):
    cls = canonical_class(parks_cores["florida_tp"])
    assert canonical_class(cls.representative) == cls


_CLOSED = Formula([], [atom("q", "c")])


@pytest.mark.parametrize("make, error, message", [
    pytest.param(lambda: HomProblem(frozenset(), frozenset(), {"a": "b"}), ArityMismatch,
                 "pinned away", id="constant-pinned-away"),
    pytest.param(lambda: instances(_CLOSED, SelectiveKB(close_under_top([atom("q", "c")]),
                                                        SelectorSpec.full())),
                 ArityMismatch, "open formula", id="instances-arity-0"),
    pytest.param(lambda: core_of_formula(_CLOSED), ArityMismatch, "open formulas",
                 id="core-arity-0"),
])
def test_input_errors(make, error, message):
    with pytest.raises(error, match=message):
        make()
