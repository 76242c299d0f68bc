"""Exact clique-density library for graphs with bounded maximum degree
and bounded clique number: constructions, closed-form counts, proven
bounds, and isomorph-free exhaustive search."""

from types import ModuleType as _ModuleType

from .graphs import (
    Graph,
    GraphError,
    Graph6Error,
    build_graph,
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    graph6_decode,
    graph6_encode,
    induced,
    join,
    max_degree,
    neighborhood,
    path_graph,
    relabel,
    union,
)
from .canon import (
    automorphism_generators,
    automorphism_orbits,
    canonical_form,
    canonical_graph,
    is_isomorphic,
)
from .cliques import (
    BorderProfile,
    ConfigurationFinding,
    averaging_bound,
    border_profile,
    capped_weight_bound,
    clique_count,
    clique_number,
    clique_size_counts,
    density,
    detach_sufficient,
    edge_weight,
    find_configurations,
    in_class,
    is_detachable,
    is_perfect_vertex,
    per_vertex_clique_counts,
    vertex_cover_count,
    vertex_weight,
)
from .bounds import (
    BoundReport,
    ExactValue,
    asymptotic_leading,
    bounds_report,
    bt_density,
    bt_graph,
    conjectured_value,
    exact_value,
    g_star,
    lower_bound,
    lower_bound_graph,
    rho_monotone_check,
    turan_clique_count,
    turan_density,
    turan_graph,
    upper_bound,
)
from .search import (
    CapExceeded,
    LevelResult,
    SearchReport,
    best_up_to,
    enumerate_all_up_to,
)
from .verify import verify_neighborhood_lemmas
from .probes import BeatResult, beat, probe_configuration_average

# submodules are reached as `cdt.search`, `cdt.verify`, ...; only the
# functions and classes imported above are public
__all__ = [
    name for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
__version__ = "0.1.0"
