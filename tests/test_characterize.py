import random

import pytest

import reference_can
from nexus.characterize import (
    build_can,
    build_core_char,
    can_size_bound,
    product_datasets,
    product_tuples,
)
from nexus.errors import ArityConflict, MixedArity
from nexus.formulas import in_nxl, parse_formula, to_text
from nexus.homs import canonical_class, equivalent, instances, is_isomorphic, maps_to
from nexus.kb import Atom, Dataset, SelectiveKB, SelectorSpec, atom, close_under_top, validate_unit
from nexus.oracles import (
    RandomSkbConfig,
    enumerate_nxl_formulas,
    random_skb,
    random_unit,
)


def test_product_tuples_three_rows():
    out = product_tuples([("1", "2"), ("3", "4"), ("5", "6")])
    assert out == [("1", "3", "5"), ("2", "4", "6")]


def test_product_tuples_single():
    assert product_tuples([("a", "b")]) == [("a",), ("b",)]


def test_product_tuples_parks_unit(parks_unit):
    out = product_tuples(parks_unit.sorted_tuples())
    assert out == [("Discovery_Cove", "Epcot")]


def test_product_tuples_mixed_arity():
    with pytest.raises(MixedArity):
        product_tuples([("a",), ("b", "c")])


@pytest.mark.parametrize("product", [product_tuples, product_datasets])
def test_product_of_nothing(product):
    with pytest.raises(MixedArity, match="product of zero"):
        product([])


def test_product_datasets_mirror(mirror_kb):
    s11 = mirror_kb.summary(("1", "1"))
    s12 = mirror_kb.summary(("1", "2"))
    out = product_datasets([s11, s12])
    assert out.atoms == {
        atom("r", "d|1|1", "d|2|2"),
        atom("s", "d|1|2", "d|2|1"),
        atom("top", "d|1|1"),
        atom("top", "d|1|2"),
        atom("top", "d|2|1"),
        atom("top", "d|2|2"),
    }


def test_product_datasets_trivial():
    d = close_under_top([atom("top", "1")])
    assert product_datasets([d, d]).atoms == {atom("top", "d|1|1")}


def test_product_contains_diagonal():
    rng = random.Random(5)
    for i in range(10):
        kb = random_skb(RandomSkbConfig(max_constants=4, atom_density=0.3, seed=i))
        k = rng.randint(2, 3)
        prod = product_datasets([kb.dataset] * k)
        for a in kb.dataset.atoms:
            diag = tuple("d|" + "|".join((c,) * k) for c in a.args)
            assert atom(a.pred, *diag) in prod


def test_product_is_top_closed_and_streaming_agrees(parks_kb):
    """The product reachable from every product constant is the whole
    product that the full generator of ``reference_can`` streams."""
    s1 = parks_kb.summary(("Epcot",))
    s2 = parks_kb.summary(("Gardaland",))
    prod = product_datasets([s1, s2])  # Dataset constructor checks closure
    assert set(reference_can.iter_product_atoms([s1, s2])) == prod.atoms
    rng = random.Random(7)
    for seed in range(60):
        kb = random_skb(RandomSkbConfig(
            max_constants=4,
            predicates=(("isa", 2), ("p", 2), ("q", 1), ("s", 1)),
            atom_density=0.25,
            selector=("sigma0", "full", "neighborhood:1")[seed % 3],
            seed=seed,
        ))
        consts = sorted(kb.dataset.domain)
        arity = rng.randint(1, 2)
        ops = [kb.summary(tuple(rng.choice(consts) for _ in range(arity)))
               for _ in range(rng.randint(1, 3))]
        assert product_datasets(ops) == Dataset(reference_can.iter_product_atoms(ops))
    # a nullary atom holds no product constant; it is in the product when
    # every operand holds its predicate
    d1 = Dataset([Atom("z", ()), Atom("w", ()), atom("top", "a")])
    d2 = Dataset([Atom("z", ()), atom("p", "b"), atom("top", "b")])
    assert product_datasets([d1, d2]).atoms == {Atom("z", ()), atom("top", "d|a|b")}


def test_product_arity_conflict():
    d1 = close_under_top([atom("p", "a")])
    d2 = close_under_top([atom("p", "a", "b")])
    with pytest.raises(ArityConflict):
        product_datasets([d1, d2])


# ---------------------------------------------------------------------------
# build_can


def test_build_can_mirror(mirror_kb, mirror_unit):
    can = build_can(mirror_unit, mirror_kb)
    expected = parse_formula(
        "x11,x12 <- r(x11,2), s(x12,?y21), top(x11), top(x12), top(?y21), top(2), r(1,2), top(1)"
    )
    assert can.size == 8
    assert is_isomorphic(can, expected)


def test_build_can_trivial_dataset():
    d = close_under_top([atom("top", "1")])
    kb = SelectiveKB(d, SelectorSpec.full())
    u = validate_unit([("1",)], d)
    can = build_can(u, kb)
    assert to_text(can) == "x1 <- top(x1)"


def test_build_can_parks_shape(parks_kb, parks_unit, parks_cores):
    can = build_can(parks_unit, parks_kb)
    expected = parse_formula(
        "x <- isa(x,tp), isa(x,ap), isa(x,?y1), isa(x,?y2), top(?y1), top(?y2), "
        "top(x), top(ap), located(x,Florida), partOf(Florida,US), top(tp), "
        "top(Florida), top(US)"
    )
    assert is_isomorphic(can, expected)
    assert equivalent(can, parks_cores["florida_tp"])
    assert canonical_class(can) == canonical_class(parks_cores["florida_tp"])


def test_build_can_interprets_unit(parks_kb, parks_unit, mirror_kb, mirror_unit):
    for kb, unit in [(parks_kb, parks_unit), (mirror_kb, mirror_unit)]:
        can = build_can(unit, kb)
        assert in_nxl(can)
        assert unit.tuples <= instances(can, kb)


def test_build_can_interprets_on_random_corpus():
    rng = random.Random(77)
    for i in range(30):
        kb = random_skb(RandomSkbConfig(max_constants=4, atom_density=0.25, seed=300 + i))
        unit = random_unit(kb, rng)
        can = build_can(unit, kb)
        assert in_nxl(can)
        assert unit.tuples <= instances(can, kb), i


def test_characterization_maximality_small_signature():
    """Every small explanation interpreting the unit maps into its
    canonical characterization (hom-maximality, checked exhaustively on a
    tiny signature)."""
    d = close_under_top([atom("p", "a", "b"), atom("p", "b", "a"), atom("p", "b", "b")])
    kb = SelectiveKB(d, SelectorSpec.full())
    unit = validate_unit([("a",)], d)
    can = build_can(unit, kb)
    checked = 0
    for phi in enumerate_nxl_formulas(
        [("p", 2), ("top", 1)], ["a", "b"], arity=1, extra_vars=1, max_atoms=3
    ):
        if unit.tuples <= instances(phi, kb):
            assert maps_to(phi, can), to_text(phi)
            checked += 1
    assert checked > 20


def test_core_char_parks_most_specific(parks_kb, parks_unit, parks_cores):
    core = build_core_char(parks_unit, parks_kb)
    assert is_isomorphic(core, parks_cores["florida_tp"])


def test_core_char_fixpoint_when_can_is_core(mirror_kb, mirror_unit):
    can = build_can(mirror_unit, mirror_kb)
    core = build_core_char(mirror_unit, mirror_kb)
    assert core.size == can.size
    assert is_isomorphic(core, can)


def test_uniqueness_can_equals_core_class(parks_kb, parks_unit):
    assert canonical_class(build_can(parks_unit, parks_kb)) == canonical_class(build_core_char(parks_unit, parks_kb))


def test_size_bounds_on_corpus(parks_kb, parks_unit):
    rng = random.Random(88)
    cases = [(parks_kb, parks_unit)]
    for i in range(15):
        kb = random_skb(RandomSkbConfig(max_constants=4, atom_density=0.25, seed=400 + i))
        cases.append((kb, random_unit(kb, rng)))
    for kb, unit in cases:
        can = build_can(unit, kb)
        core = build_core_char(unit, kb)
        assert core.size <= can.size <= can_size_bound(unit, kb)
