"""Verification-grade counting of proper 3-edge-colorings of cubic multigraphs.

Four mutually independent methods over one exact integer answer:
backtracking enumeration, tensor contraction of plane diagrams, the extended
bracket on immersed diagrams with circled crossings, and the logical state
expansion over perfect matchings.
"""

from . import errors
from .coloring import (
    BLUE,
    COLOR_NAMES,
    COLORS,
    PURPLE,
    RED,
    coloring_names,
    count_colorings,
    enumerate_colorings,
    is_proper,
    iter_colorings,
)
from .diagram import (
    CIRCLED,
    CROSSING,
    DOTTED,
    NODE,
    PLAIN,
    Diagram,
    build_diagram,
    chord_immersion,
    diagram_from_json_dict,
    diagram_to_json_dict,
    genus,
    trace_faces,
    trace_strands,
    underlying_graph,
)
from .formation import (
    BOUNCE,
    CROSS,
    Formation,
    classify_meetings,
    coloring_from_formation,
    crossing_parity,
    formation_from_coloring,
)
from .graph_core import (
    CubicGraph,
    bridges_per_component,
    build_graph,
    connected_components,
    graph_from_json_dict,
    graph_to_json_dict,
    has_loop,
    is_connected,
)
from .matching import (
    colorings_from_even_matching,
    complement_cycles,
    count_from_even_matchings,
    enumerate_perfect_matchings,
    is_even_matching,
    iter_perfect_matchings,
    matching_from_coloring,
    validate_matching,
)
from .penrose import (
    contract_extended,
    contract_plain,
    crossing_weight,
    encircle_arc,
    expand_circled,
    insert_twist,
    node_weight,
    per_coloring_weight,
    skein_evaluate,
)
from .state_calculus import (
    CROSSED,
    PARALLEL,
    Site,
    State,
    count_state_colorings,
    logical_expansion_count,
    make_state,
    squeeze,
    state_has_isthmus,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "__version__",
    # colors and colorings
    "RED", "BLUE", "PURPLE", "COLORS", "COLOR_NAMES",
    "coloring_names", "is_proper",
    "count_colorings", "enumerate_colorings", "iter_colorings",
    # graphs
    "CubicGraph", "build_graph", "has_loop", "is_connected",
    "connected_components", "bridges_per_component",
    "graph_to_json_dict", "graph_from_json_dict",
    # matchings
    "validate_matching", "enumerate_perfect_matchings", "iter_perfect_matchings",
    "complement_cycles", "is_even_matching", "colorings_from_even_matching",
    "matching_from_coloring", "count_from_even_matchings",
    # diagrams
    "Diagram", "NODE", "CROSSING", "CIRCLED", "PLAIN", "DOTTED",
    "build_diagram", "chord_immersion", "genus", "trace_faces",
    "trace_strands", "underlying_graph", "diagram_to_json_dict", "diagram_from_json_dict",
    # formations
    "Formation", "BOUNCE", "CROSS", "formation_from_coloring",
    "coloring_from_formation", "classify_meetings", "crossing_parity",
    # states
    "Site", "State", "PARALLEL", "CROSSED", "make_state",
    "count_state_colorings", "logical_expansion_count", "squeeze", "state_has_isthmus",
    # bracket
    "node_weight", "crossing_weight",
    "contract_plain", "contract_extended", "per_coloring_weight",
    "skein_evaluate", "expand_circled", "insert_twist", "encircle_arc",
]
