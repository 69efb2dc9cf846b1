"""hublab: build, verify, and compare hub labelings of weighted graphs.

Covers exact distance infrastructure, canonical hierarchical labelings, the
three greedy center-graph algorithms, the set-cover approximation with densest
subgraph selection, brute-force optimality oracles, highway-dimension
machinery, and generators for the adversarial instance families.
"""

from . import families
from .centers import (
    CenterGraph,
    CoverageState,
    EmptyCenterGraphError,
    NEG_INF_LEVEL,
)
from .cohen import mds_peel, run_cohen_hl
from .graphs import (
    INF,
    DistMatrix,
    Graph,
    GraphFormatError,
    all_pairs_distances,
    parse_graph,
    path_membership,
    serialize_graph,
    undirect,
)
from .greedy import (
    IterationRecord,
    RunTrace,
    TraceNotFromDHHLError,
    run_d_hhl,
    run_g_hhl,
    run_w_hhl,
    vertex_levels,
)
from .highway import (
    CapExceededError,
    DhhlLevelAudit,
    DirectedInputError,
    InvalidSPHSError,
    MultiscaleSPHS,
    SignificantPath,
    audit_dhhl_levels,
    ball,
    enumerate_significant_paths,
    greedy_multiscale_sphs,
    is_sphs,
    neighborhood_S,
    sphs_to_hhl,
)
from .labeling import (
    CoverReport,
    LabelFormatError,
    Labeling,
    Order,
    canonical_hhl,
    is_sublabeling,
    labeling_size,
    parse_labeling,
    respects_order,
    serialize_labeling,
    verify_cover,
)
from .oracles import (
    HlBnbResult,
    TooLargeError,
    exact_mds,
    highway_dimension_bruteforce,
    min_hitting_set,
    min_vertex_cover,
    optimal_hhl_bruteforce,
    optimal_hl_bnb,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "CenterGraph",
    "CoverReport",
    "CoverageState",
    "DhhlLevelAudit",
    "DirectedInputError",
    "DistMatrix",
    "EmptyCenterGraphError",
    "Graph",
    "GraphFormatError",
    "HlBnbResult",
    "INF",
    "InvalidSPHSError",
    "IterationRecord",
    "LabelFormatError",
    "Labeling",
    "MultiscaleSPHS",
    "NEG_INF_LEVEL",
    "Order",
    "RunTrace",
    "SignificantPath",
    "TooLargeError",
    "TraceNotFromDHHLError",
    "all_pairs_distances",
    "audit_dhhl_levels",
    "ball",
    "canonical_hhl",
    "enumerate_significant_paths",
    "exact_mds",
    "families",
    "greedy_multiscale_sphs",
    "highway_dimension_bruteforce",
    "is_sphs",
    "is_sublabeling",
    "labeling_size",
    "mds_peel",
    "min_hitting_set",
    "min_vertex_cover",
    "neighborhood_S",
    "optimal_hhl_bruteforce",
    "optimal_hl_bnb",
    "parse_graph",
    "parse_labeling",
    "path_membership",
    "respects_order",
    "run_cohen_hl",
    "run_d_hhl",
    "run_g_hhl",
    "run_w_hhl",
    "serialize_graph",
    "serialize_labeling",
    "sphs_to_hhl",
    "undirect",
    "verify_cover",
    "vertex_levels",
]
