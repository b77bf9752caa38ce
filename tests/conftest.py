import pathlib

import pytest

from nexus.kb import SelectiveKB, SelectorSpec, atom, close_under_top, parse_facts, validate_unit
from nexus.formulas import parse_formula

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"

# The six core characterizations that classify every entity of the parks
# KB against the Florida theme-park unit, from most to least specific.
PARKS_CORES = {
    "florida_tp": (
        "x <- isa(x,tp), isa(x,ap), top(x), top(ap), located(x,Florida), "
        "partOf(Florida,US), top(tp), top(Florida), top(US)"
    ),
    "us_ap": "x <- isa(x,ap), located(x,?y), top(x), top(?y), top(ap), partOf(?y,US), top(US)",
    "tp_anywhere": "x <- isa(x,tp), isa(x,ap), located(x,?y), top(x), top(?y), top(ap), top(tp)",
    "located_ap": "x <- isa(x,ap), located(x,?y), top(x), top(?y), top(ap)",
    "any_ap": "x <- isa(x,ap), top(x), top(ap)",
    "anything": "x <- top(x)",
}


@pytest.fixture(scope="session")
def parks_dataset():
    return parse_facts((DATA / "parks.nxf").read_text())


@pytest.fixture(scope="session")
def parks_kb(parks_dataset):
    return SelectiveKB(parks_dataset, SelectorSpec.sigma0())


@pytest.fixture(scope="session")
def parks_unit(parks_dataset):
    return validate_unit([("Discovery_Cove",), ("Epcot",)], parks_dataset)


@pytest.fixture(scope="session")
def parks_cores():
    return {name: parse_formula(text) for name, text in PARKS_CORES.items()}


@pytest.fixture()
def mirror_kb():
    """Two constants with swap-symmetric relations and hand-pinned
    summaries; small enough to trace the product construction by hand."""
    d = close_under_top(
        [atom("r", "1", "2"), atom("r", "2", "1"), atom("s", "2", "1"), atom("s", "1", "2")]
    )
    table = {
        ("1", "1"): close_under_top([atom("r", "1", "2"), atom("s", "1", "2")]),
        ("1", "2"): close_under_top([atom("r", "1", "2"), atom("s", "2", "1")]),
    }
    return SelectiveKB(d, SelectorSpec.from_table(table))


@pytest.fixture()
def mirror_unit(mirror_kb):
    return validate_unit([("1", "1"), ("1", "2")], mirror_kb.dataset)
