"""The public surface of the package."""

import cdt

# A public name is added or removed only with a reason recorded in
# CHANGES.md; update this snapshot in the same change.
PUBLIC_NAMES = {
    "BorderProfile", "BoundReport", "CapExceeded", "ConfigurationFinding", "Decomposition",
    "ExactValue", "Graph", "Graph6Error", "GraphError", "LevelResult", "SearchReport",
    "SearchSpec", "TuranShape", "asymptotic_leading", "automorphism_generators",
    "automorphism_orbits", "averaging_bound", "best_up_to", "border_profile", "bounds",
    "bounds_report", "bt_density", "bt_graph", "build_graph", "canon", "canonical_form",
    "canonical_graph", "capped_weight_bound", "clique_count", "clique_number",
    "clique_size_counts", "cliques", "complement", "complete_graph", "conjectured_value",
    "cycle_graph", "decompose", "density", "detach_sufficient", "edge_weight", "empty_graph",
    "enumerate_all_up_to", "enumerate_class", "exact_value", "find_configurations", "g_star",
    "graph6_decode", "graph6_encode", "graphs", "in_class", "induced", "is_detachable",
    "is_isomorphic", "is_perfect_vertex", "join", "lower_bound", "lower_bound_graph",
    "max_degree", "max_density", "neighborhood", "path_graph", "per_vertex_clique_counts",
    "probe_configuration_average", "probe_conjecture", "relabel", "rho_monotone_check",
    "search", "turan_clique_count", "turan_density", "turan_graph", "turan_shape", "union",
    "upper_bound", "verify_neighborhood_lemmas", "vertex_cover_count", "vertex_weight",
}


def test_public_names_match_snapshot():
    assert sorted(cdt.__all__) == sorted(PUBLIC_NAMES)
