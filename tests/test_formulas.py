import pytest
from hypothesis import given, settings, strategies as st

from nexus.errors import ArityMismatch, ParseError
from nexus.formulas import (
    CONNECTED,
    DISCONNECTED,
    NEARLY_CONNECTED_ONLY,
    Formula,
    canonical_rename,
    classify_connectivity,
    conjoin,
    in_nxl,
    nearly_connected_part,
    parse_formula,
    to_struct,
    to_text,
    top_formula,
)
from nexus.kb import Atom, Var, atom


X, Y = Var("x"), Var("y")


def test_classify_connected():
    phi = parse_formula("x <- isa(x,ap), located(x,?y), partOf(?y,US)")
    assert classify_connectivity(phi) == CONNECTED


def test_classify_nearly_connected_only():
    phi = parse_formula("x,y <- isa(x,ap), partOf(y,US)")
    assert classify_connectivity(phi) == NEARLY_CONNECTED_ONLY
    assert in_nxl(phi)


def test_classify_disconnected():
    phi = parse_formula("x <- isa(x,ap), partOf(?y,US)")
    assert classify_connectivity(phi) == DISCONNECTED
    assert not in_nxl(phi)


def test_single_atom_connected():
    assert classify_connectivity(parse_formula("x <- p(x)")) == CONNECTED


def test_nearly_connected_part_drops_stray_constant_atom():
    phi = parse_formula("x1 <- top(x1), top(1)")
    assert nearly_connected_part(phi).atoms == {atom("top", Var("x1"))}


def test_nearly_connected_part_keeps_connected_formula():
    phi = parse_formula("x <- isa(x,ap), located(x,?y), partOf(?y,US)")
    assert nearly_connected_part(phi) == phi


def test_nearly_connected_part_idempotent_and_keeps_free_atoms():
    phi = parse_formula("x <- p(x,?y), q(?z,?z), top(c)")
    once = nearly_connected_part(phi)
    assert nearly_connected_part(once) == once
    assert once.atoms <= phi.atoms
    for a in phi.atoms:
        if Var("x") in a.args:
            assert a in once.atoms


def test_formula_requires_atoms_and_occurring_head():
    with pytest.raises(ParseError):
        Formula([X], [])
    with pytest.raises(ParseError):
        Formula([X], [Atom("p", (Y,))])
    with pytest.raises(ParseError):
        parse_formula("x <- ")


def test_top_formula():
    t1 = top_formula(1)
    assert to_text(t1) == "x1 <- top(x1)"
    t2 = top_formula(2)
    assert t2.arity == 2 and t2.size == 2
    assert in_nxl(t2)
    with pytest.raises(ArityMismatch):
        top_formula(0)


def test_conjoin_renaming_scheme():
    phi1 = parse_formula("x1,x2 <- p(a,x1), r(x2,?y)")
    phi2 = parse_formula("y2,y1 <- u(y1), v(y2,b,?y,a)")
    out = conjoin(phi1, phi2)
    expected = parse_formula("z1,z2 <- p(a,z1), r(z2,?y@1), u(z2), v(z1,b,?y@2,a)")
    assert out == expected


def test_conjoin_self_top():
    t = top_formula(1)
    out = conjoin(t, t)
    assert out.size == 1 and out.arity == 1
    assert to_text(out) == "z1 <- top(z1)"


def test_conjoin_arity_mismatch():
    with pytest.raises(ArityMismatch):
        conjoin(top_formula(1), top_formula(2))


def test_conjoin_merges_repeated_head_positions():
    rep = Formula([X, X], [Atom("p", (X, X))])
    plain = parse_formula("u,v <- q(u,v)")
    out = conjoin(rep, plain)
    assert out.free_vars[0] == out.free_vars[1]
    assert len({v for v in out.free_vars}) == 1


names = st.sampled_from(["x", "y", "z", "w"])
consts = st.sampled_from(["a", "b"])
preds = st.sampled_from([("p", 2), ("q", 1), ("r", 2)])


@st.composite
def nxl_formulas(draw):
    n_atoms = draw(st.integers(1, 4))
    atoms = []
    for _ in range(n_atoms):
        pred, arity = draw(preds)
        args = tuple(
            Var(draw(names)) if draw(st.booleans()) else draw(consts)
            for _ in range(arity)
        )
        atoms.append(Atom(pred, args))
    occurring = sorted({t.name for a in atoms for t in a.args if isinstance(t, Var)})
    if not occurring:
        atoms.append(Atom("q", (Var("x"),)))
        occurring = ["x"]
    head_size = draw(st.integers(1, min(2, len(occurring))))
    head = [Var(n) for n in occurring[:head_size]]
    phi = nearly_connected_part(Formula(head, atoms))
    return phi


@settings(max_examples=80, deadline=None)
@given(nxl_formulas(), nxl_formulas())
def test_conjoin_closed_in_nxl(phi1, phi2):
    if phi1.arity != phi2.arity:
        phi1 = nearly_connected_part(Formula(phi1.free_vars[:1], phi1.atoms))
        phi2 = nearly_connected_part(Formula(phi2.free_vars[:1], phi2.atoms))
    assert in_nxl(phi1) and in_nxl(phi2)
    assert in_nxl(conjoin(phi1, phi2))


@settings(max_examples=80, deadline=None)
@given(nxl_formulas())
def test_text_roundtrip(phi):
    assert parse_formula(to_text(phi)) == phi


def test_parse_rejects_reserved():
    with pytest.raises(ParseError):
        parse_formula("top <- p(top)")
    with pytest.raises(ParseError):
        parse_formula("x <- p(?top)")
    with pytest.raises(ParseError):
        parse_formula("x <- p(x,)")


def test_parse_head_fixes_order_and_sigils():
    phi = parse_formula("x2,x1 <- p(x1,x2), q(?h)")
    assert [v.name for v in phi.free_vars] == ["x2", "x1"]
    assert Var("h") in phi.vars


def test_canonical_rename_deterministic():
    phi = parse_formula("b,a <- p(a,b), r(b,?m), r(?m,?n), top(c)")
    ren = canonical_rename(phi)
    assert ren == canonical_rename(phi)
    assert [v.name for v in ren.free_vars] == ["x1", "x2"]
    body = {v.name for v in ren.vars} - {"x1", "x2"}
    assert body == {"y1", "y2"}


def test_canonical_rename_avoids_constant_collision():
    phi = Formula([X], [Atom("p", (X, "x1"))])
    ren = canonical_rename(phi)
    assert ren.free_vars[0].name == "x1_"


def test_struct_export():
    phi = parse_formula("x <- p(x,c), q(?y)")
    s = to_struct(phi)
    assert s["free_vars"] == ["x"]
    kinds = {(a["pred"], tuple((t["kind"], t["name"]) for t in a["args"])) for a in s["atoms"]}
    assert ("p", (("variable", "x"), ("constant", "c"))) in kinds
    assert ("q", (("variable", "y"),)) in kinds


@pytest.mark.parametrize("make, error, message", [
    pytest.param(lambda: parse_formula("p(x)"), ParseError, "needs '<-'", id="no-arrow"),
    pytest.param(lambda: parse_formula("x <- p(x) q(x)"), ParseError, "expected ','",
                 id="missing-comma"),
    pytest.param(lambda: parse_formula("x <- p(x), )("), ParseError, "cannot parse",
                 id="unparsable-body"),
    pytest.param(lambda: parse_formula("x <- ?p(x)"), ParseError, "not a legal predicate",
                 id="variable-predicate"),
    pytest.param(lambda: parse_formula("x <- p()"), ParseError, "no arguments", id="nullary"),
    pytest.param(lambda: parse_formula("x <- p(x),"), ParseError, "trailing ','",
                 id="trailing-comma"),
    pytest.param(lambda: Formula(["x"], [Atom("p", (X,))]), ParseError,
                 "is not a variable", id="constant-head-entry"),
    pytest.param(lambda: nearly_connected_part(Formula([], [atom("q", "c")])), ArityMismatch,
                 "open formula", id="nearly-connected-part-arity-0"),
])
def test_input_errors(make, error, message):
    with pytest.raises(error, match=message):
        make()
