"""Formal characterization of nexus of similarity over selective KBs.

The public surface mirrors the pipeline: model a knowledge base and a
unit (kb), write or derive explanations (formulas), decide the hom-order
and instance sets (homs), build canonical/core characterizations
(characterize), and reason about definability, expansions, and the
expansion graph (expansion).  Brute-force oracles and instance
generators live in oracles; the CLI in cli.
"""

__version__ = "0.1.0"

from .characterize import (
    build_can,
    build_core_char,
    can_size_bound,
    product_datasets,
    product_tuples,
)
from .errors import NexusError
from .expansion import (
    ExpansionGraph,
    ExpansionNode,
    build_expansion_graph,
    compare,
    ess_member,
    ess_set,
    gad1,
    gad2,
    is_definable,
)
from .formulas import (
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
from .homs import (
    FormulaClass,
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
from .kb import (
    Atom,
    Dataset,
    SelectiveKB,
    SelectorSpec,
    Unit,
    Var,
    atom,
    close_under_top,
    parse_facts,
    parse_tuple,
    parse_unit_tuples,
    validate_unit,
)

__all__ = [name for name in dir() if not name.startswith("_")]
