import pytest
from hypothesis import given, settings, strategies as st

import engine_hooks
from nexus import homs
from nexus.errors import (
    ArityConflict,
    EmptyInput,
    EmptyUnit,
    MixedArity,
    NotClosed,
    NotGround,
    NotProper,
    ParseError,
    SelectorViolation,
    TupleOutsideDomain,
    UnknownConstant,
)
from nexus.kb import (
    TOP,
    Atom,
    Dataset,
    SelectiveKB,
    SelectorSpec,
    Unit,
    Var,
    _sigma0_single,
    atom,
    close_under_top,
    parse_facts,
    parse_tuple,
    parse_unit_tuples,
    render_facts,
    validate_unit,
)
from nexus.expansion import ess_set
from nexus.oracles import RandomSkbConfig, random_skb


def test_close_single_atom():
    ds = close_under_top([atom("p", "1", "2")])
    assert ds.atoms == {atom("p", "1", "2"), atom("top", "1"), atom("top", "2")}


def test_close_fixpoint():
    ds = close_under_top([atom("top", "1")])
    assert ds.atoms == {atom("top", "1")}


def test_close_parks_has_expected_tops(parks_dataset):
    for c in ("Epcot", "Florida", "US", "tp", "ap"):
        assert atom("top", c) in parks_dataset


def test_close_empty_and_conflicts():
    with pytest.raises(EmptyInput):
        close_under_top([])
    with pytest.raises(ArityConflict):
        close_under_top([atom("p", "1"), atom("p", "1", "2")])


ground_atoms = st.lists(
    st.tuples(
        st.sampled_from(["p", "q"]),
        st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=2),
    ).map(lambda t: Atom(t[0] if len(t[1]) == 2 else t[0] + "1", tuple(t[1]))),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(ground_atoms)
def test_close_idempotent(atoms):
    once = close_under_top(atoms)
    again = close_under_top(once.atoms)
    assert once.atoms == again.atoms


@settings(max_examples=60, deadline=None)
@given(ground_atoms, ground_atoms)
def test_close_monotone(small, extra):
    lo = close_under_top(small)
    hi = close_under_top(small + extra)
    assert lo.atoms <= hi.atoms


def test_dataset_reports_max_arity(parks_dataset):
    assert parks_dataset.omega == 2


# ---------------------------------------------------------------------------
# Units


def test_unit_proper_ok(parks_dataset):
    u = validate_unit(
        [("Epcot", "Florida", "Epcot"), ("US", "Italy", "tp")], parks_dataset
    )
    assert u.arity == 3


def test_unit_not_proper():
    ds = close_under_top([atom("p", c) for c in "abcde"])
    with pytest.raises(NotProper) as err:
        validate_unit([("a", "b", "a"), ("c", "d", "c")], ds)
    assert err.value.detail["columns"] == [1, 3]


def test_unit_parks(parks_unit):
    assert len(parks_unit) == 2 and parks_unit.arity == 1


def test_unit_errors(parks_dataset):
    with pytest.raises(MixedArity):
        validate_unit([("Epcot",), ("Epcot", "Florida")], parks_dataset)
    with pytest.raises(UnknownConstant):
        validate_unit([("Atlantis",)], parks_dataset)
    with pytest.raises(EmptyUnit):
        validate_unit([], parks_dataset)


# ---------------------------------------------------------------------------
# Selectors and summaries


def test_sigma0_epcot(parks_kb):
    summary = parks_kb.summary(("Epcot",))
    assert summary.atoms == {
        atom("isa", "Epcot", "tp"),
        atom("isa", "Epcot", "ap"),
        atom("located", "Epcot", "Florida"),
        atom("partOf", "Florida", "US"),
        atom("top", "Epcot"),
        atom("top", "tp"),
        atom("top", "ap"),
        atom("top", "Florida"),
        atom("top", "US"),
    }


def test_sigma0_discovery_cove_mirrors_epcot(parks_kb):
    s = parks_kb.summary(("Discovery_Cove",))
    assert s.atoms == {
        atom("isa", "Discovery_Cove", "tp"),
        atom("isa", "Discovery_Cove", "ap"),
        atom("located", "Discovery_Cove", "Florida"),
        atom("partOf", "Florida", "US"),
        atom("top", "Discovery_Cove"),
        atom("top", "tp"),
        atom("top", "ap"),
        atom("top", "Florida"),
        atom("top", "US"),
    }


@pytest.mark.parametrize("c", ["Florida", "California"])
def test_sigma0_states(parks_kb, c):
    assert parks_kb.summary((c,)).atoms == {
        atom("partOf", c, "US"),
        atom("top", c),
        atom("top", "US"),
    }


def test_sigma0_isolated_entity_still_valid():
    ds = close_under_top([atom("p", "a", "b"), atom("top", "lonely")])
    kb = SelectiveKB(ds, SelectorSpec.sigma0())
    assert kb.summary(("lonely",)).atoms == {atom("top", "lonely")}


def _sigma0_scan(dataset, entity):
    """The scanning sigma0 selection that the subject index replaced, kept
    verbatim as the reference."""
    a_part: set[Atom] = set()
    b_part: set[Atom] = set()
    for at in dataset.atoms:
        if at.arity == 2 and at.args[0] == entity:
            if at.pred == "isa":
                a_part.add(at)
            elif at.pred != TOP:
                b_part.add(at)
    hops = {at.args[1] for at in b_part}
    c_part = {
        at
        for at in dataset.atoms
        if at.arity == 2 and at.pred not in ("isa", TOP) and at.args[0] in hops
    }
    picked = a_part | b_part | c_part
    tops = {Atom(TOP, (c,)) for a in picked for c in a.args}
    return picked | tops | {Atom(TOP, (entity,))}


def test_sigma0_index_matches_scan(parks_dataset):
    datasets = [parks_dataset]
    for seed in range(40):
        config = RandomSkbConfig(
            max_constants=6,
            predicates=(("isa", 2), ("p", 2), ("r", 2), ("q", 1)),
            atom_density=0.15 + 0.01 * (seed % 10),
            seed=seed,
        )
        datasets.append(random_skb(config).dataset)
    for ds in datasets:
        for c in sorted(ds.domain):
            assert _sigma0_single(ds, c) == _sigma0_scan(ds, c), c


def test_full_selector_returns_dataset(parks_kb):
    kb = SelectiveKB(parks_kb.dataset, SelectorSpec.full())
    assert kb.summary(("Epcot",)) is parks_kb.dataset
    assert kb.summary(("Prater", "Italy")) is parks_kb.dataset


def test_full_summary_outside_domain(parks_dataset):
    kb = SelectiveKB(parks_dataset, SelectorSpec.full())
    with pytest.raises(TupleOutsideDomain):
        kb.summary(("Epcot", "Narnia"))


def test_summary_contract(parks_kb):
    for tau in [("Epcot",), ("Prater", "Italy"), ("US",)]:
        s = parks_kb.summary(tau)
        assert s.atoms <= parks_kb.dataset.atoms
        assert set(tau) <= s.domain
        for c in s.domain:
            assert atom("top", c) in s


def test_summary_cached(parks_kb):
    assert parks_kb.summary(("Epcot",)) is parks_kb.summary(("Epcot",))


def test_summary_outside_domain(parks_kb):
    with pytest.raises(TupleOutsideDomain):
        parks_kb.summary(("Narnia",))


def test_empty_table_falls_back(parks_dataset):
    kb = SelectiveKB(parks_dataset, SelectorSpec.from_table({}))
    assert kb.summary(("Epcot",)) == parks_dataset


def test_unpinned_tuple_summary_is_the_dataset(parks_dataset, parks_kb):
    """A tuple the table does not pin gets the dataset itself, not a
    copy, so its memberships search the dataset's one index."""
    unit = validate_unit([("Epcot",), ("Prater",)], parks_dataset)
    kb = SelectiveKB(parks_dataset,
                     SelectorSpec.from_table({t: parks_kb.summary(t) for t in unit.tuples}))
    assert kb.summary(("Gardaland",)) is kb.dataset
    with engine_hooks.calls(homs._Target.__init__) as built:
        found = ess_set(unit, kb)
    assert len(found) > len(unit)  # unpinned tuples were searched
    assert sum(atoms == kb.dataset.atoms for _target, atoms in built) <= 1


def test_neighborhood_selector(parks_dataset):
    kb1 = SelectiveKB(parks_dataset, SelectorSpec.neighborhood(1))
    s1 = kb1.summary(("Florida",))
    assert atom("located", "Epcot", "Florida") in s1
    assert atom("partOf", "Florida", "US") in s1
    assert atom("isa", "Epcot", "tp") not in s1
    kb2 = SelectiveKB(parks_dataset, SelectorSpec.neighborhood(2))
    assert atom("isa", "Epcot", "tp") in kb2.summary(("Florida",))


def test_component_selector_selects_whole_component():
    ds = close_under_top([atom("p", "a", "b"), atom("p", "b", "c"), atom("q", "z", "z")])
    kb = SelectiveKB(ds, SelectorSpec.component())
    s = kb.summary(("a",))
    assert atom("p", "b", "c") in s
    assert atom("q", "z", "z") not in s


def test_custom_selector_violation(parks_dataset):
    bad = SelectorSpec.custom(lambda ds, tau: [atom("made", "up")])
    with pytest.raises(SelectorViolation):
        SelectiveKB(parks_dataset, bad).summary(("Epcot",))


def test_selector_parse_roundtrip():
    for text in ["full", "sigma0", "component", "neighborhood:3"]:
        assert SelectorSpec.parse(text).name == text
    with pytest.raises(ParseError):
        SelectorSpec.parse("psychic")


# ---------------------------------------------------------------------------
# File formats


def test_parse_facts_dedup_and_comments():
    ds = parse_facts("# intro\np(a,b)\n\np(a,b) # dup\ntop(a)\n")
    assert ds.atoms == {atom("p", "a", "b"), atom("top", "a"), atom("top", "b")}


def test_parse_facts_bad_line_reports_number():
    with pytest.raises(ParseError) as err:
        parse_facts("p(a,b)\nnonsense here\n")
    assert err.value.detail["line"] == 2


def test_parse_facts_arity_conflict():
    with pytest.raises(ArityConflict):
        parse_facts("p(a,b)\np(a)\n")


def test_parse_tuple_and_unit_lines():
    assert parse_tuple("(a, b)") == ("a", "b")
    assert parse_unit_tuples("# u\n(a)\n(b)\n") == [("a",), ("b",)]
    with pytest.raises(ParseError):
        parse_tuple("a,b")


def test_facts_roundtrip(parks_dataset):
    assert parse_facts(render_facts(parks_dataset)) == parks_dataset


_SMALL = close_under_top([atom("p", "a", "b"), atom("q", "c")])


def _summary_under(select):
    return SelectiveKB(_SMALL, SelectorSpec.custom(select)).summary(("a",))


@pytest.mark.parametrize("make, error, message", [
    pytest.param(lambda: Dataset([]), EmptyInput, "cannot be empty", id="dataset-empty"),
    pytest.param(lambda: Dataset([Atom("p", (Var("x"),))]), NotGround, "non-ground",
                 id="dataset-not-ground"),
    pytest.param(lambda: Dataset([atom("p", "a")]), NotClosed, "not closed",
                 id="dataset-not-closed"),
    pytest.param(lambda: close_under_top([Atom("p", (Var("x"),))]), NotGround,
                 r"non-ground atom p\(x\)", id="close-not-ground"),
    pytest.param(lambda: Unit([()]), EmptyUnit, "arity >= 1", id="unit-arity-0"),
    pytest.param(lambda: SelectorSpec.parse("psychic"), ParseError, "unknown selector",
                 id="selector-unknown"),
    pytest.param(lambda: SelectorSpec.neighborhood(0), ParseError,
                 "positive radius", id="selector-radius-0"),
    pytest.param(lambda: SelectorSpec.custom(None), ParseError, "needs a callable",
                 id="selector-custom-without-callable"),
    pytest.param(lambda: _summary_under(lambda ds, tau: [atom("p", "a", "b")]),
                 SelectorViolation, "invalid dataset", id="summary-without-tops"),
    pytest.param(lambda: _summary_under(lambda ds, tau: [atom("q", "c"), atom("top", "c")]),
                 SelectorViolation, "every constant of the tuple", id="summary-drops-tau"),
    pytest.param(lambda: parse_facts("?p(a)\n"), ParseError, "not a legal predicate",
                 id="facts-variable-predicate"),
    pytest.param(lambda: parse_facts("p()\n"), ParseError, "no arguments", id="facts-nullary"),
    pytest.param(lambda: parse_facts("p(top)\n"), ParseError, "not a legal constant",
                 id="facts-top-constant"),
    pytest.param(lambda: parse_facts("# nothing\n\n"), EmptyInput, "no atoms",
                 id="facts-comment-only"),
    pytest.param(lambda: parse_tuple("()"), ParseError, "empty tuple", id="tuple-empty"),
    pytest.param(lambda: parse_unit_tuples("(a)\nb\n"), ParseError, "^line 2: ",
                 id="unit-bad-line"),
    pytest.param(lambda: parse_unit_tuples(""), EmptyUnit, "no tuples", id="unit-empty-text"),
])
def test_input_errors(make, error, message):
    with pytest.raises(error, match=message):
        make()
