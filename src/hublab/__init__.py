"""hublab: build, verify, and compare hub labelings of weighted graphs.

Covers exact distance infrastructure, canonical hierarchical labelings, the
three greedy center-graph algorithms, the set-cover approximation with densest
subgraph selection, brute-force optimality oracles, highway-dimension
machinery, and generators for the adversarial instance families.

Public names and submodules resolve on first access (PEP 562): ``import
hublab`` loads no submodule, and ``hublab.run_g_hhl`` loads only ``greedy``
and what it imports.
"""

import importlib

__version__ = "0.1.0"

# Each public name, listed under the module that defines it.
_EXPORTS = {
    "centers": "CenterGraph CoverageState EmptyCenterGraphError NEG_INF_LEVEL",
    "cohen": "mds_peel run_cohen_hl",
    "families": "families",  # the generator module itself
    "graphs": "INF CapExceededError DistMatrix Graph GraphFormatError TooLargeError"
    " all_pairs_distances parse_graph path_membership serialize_graph undirect",
    "greedy": "IterationRecord RunTrace TraceNotFromDHHLError run_d_hhl run_g_hhl run_w_hhl"
    " vertex_levels",
    "highway": "DhhlLevelAudit DirectedInputError InvalidSPHSError MultiscaleSPHS"
    " SignificantPath audit_dhhl_levels ball enumerate_significant_paths"
    " greedy_multiscale_sphs is_sphs neighborhood_S sphs_to_hhl",
    "labeling": "CoverReport LabelFormatError Labeling Order canonical_hhl is_sublabeling"
    " labeling_size parse_labeling respects_order serialize_labeling verify_cover",
    "oracles": "HlBnbResult exact_mds highway_dimension_bruteforce min_hitting_set"
    " min_vertex_cover optimal_hhl_bruteforce optimal_hl_bnb",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as ``hublab.highway``
        return importlib.import_module(f".{name}", __name__)
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{home}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
