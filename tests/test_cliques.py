"""Clique statistics, local weights, detachability, covers, configurations."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from cdt import (
    BorderProfile,
    averaging_bound,
    border_profile,
    build_graph,
    capped_weight_bound,
    clique_count,
    clique_number,
    clique_size_counts,
    complement,
    complete_graph,
    cycle_graph,
    density,
    detach_sufficient,
    edge_weight,
    empty_graph,
    enumerate_all_up_to,
    find_configurations,
    induced,
    is_detachable,
    is_isomorphic,
    is_perfect_vertex,
    join,
    max_degree,
    path_graph,
    per_vertex_clique_counts,
    relabel,
    turan_graph,
    union,
    vertex_cover_count,
    vertex_weight,
)
from cdt.bounds import bt_graph, g_star
from cdt.cliques import _max_clique
from cdt.graphs import GraphError

from helpers import brute_clique_count, random_graph, random_permutation


# -- counts -------------------------------------------------------------

def test_clique_count_of_k5():
    assert clique_count(complete_graph(5), 3) == 10


def test_clique_count_turan_8_4():
    assert clique_count(turan_graph(8, 4), 3) == 32


def test_clique_count_turan_7_3():
    # one vertex from each part: 3 * 2 * 2
    assert clique_count(turan_graph(7, 3), 3) == 12


def test_clique_count_conventions():
    g = empty_graph(4)
    assert clique_count(g, 0) == 1
    assert clique_count(g, 1) == 4
    assert clique_count(g, 5) == 0
    assert clique_count(empty_graph(0), 0) == 1


def test_clique_counts_match_subset_scan():
    rng = random.Random(101)
    for _ in range(40):
        g = random_graph(rng.randint(0, 8), rng.random(), rng)
        counts = clique_size_counts(g)
        for t in range(g.n + 1):
            want = brute_clique_count(g, t)
            assert counts[t] == want
            assert clique_count(g, t) == want


def test_clique_number_values():
    assert clique_number(empty_graph(0)) == 0
    assert clique_number(empty_graph(5)) == 1
    assert clique_number(cycle_graph(5)) == 2
    assert clique_number(turan_graph(8, 4)) == 4
    for k in (2, 3):
        assert clique_number(bt_graph(k)) == 3
    assert clique_number(g_star()) == 4


def _reference_max_clique(adj, full):
    """The size-bound-only walk that `_max_clique` must agree with."""
    best = 0

    def walk(cand, size):
        nonlocal best
        if size > best:
            best = size
        while cand:
            if size + cand.bit_count() <= best:
                return
            low = cand & -cand
            cand ^= low
            walk(cand & adj[low.bit_length() - 1], size + 1)

    walk(full, 0)
    return best


def test_clique_number_of_turan_graphs_with_parts_of_two():
    # 2^k maximum cliques: the coloring bound must not walk them all
    for k in range(1, 25):
        assert clique_number(turan_graph(2 * k, k)) == k


def test_max_clique_matches_size_bound_walk():
    rng = random.Random(43)
    graphs = []
    enumerate_all_up_to(7, 7, 8, graphs.append)
    graphs += [random_graph(rng.randint(8, 14), rng.random(), rng) for _ in range(300)]
    for g in graphs:
        full = g.vertex_mask()
        for mask in (full, rng.getrandbits(g.n) & full):
            assert _max_clique(g.adj, mask) == _reference_max_clique(g.adj, mask)


def test_vertex_weights():
    g = turan_graph(8, 4)
    assert all(vertex_weight(g, v, 3) == 12 for v in range(8))
    k4 = complete_graph(4)
    assert all(vertex_weight(k4, v, 3) == 3 for v in range(4))
    assert vertex_weight(k4, 0, 1) == 1
    with pytest.raises(GraphError):
        vertex_weight(k4, 9, 3)


def test_edge_weights():
    k4 = complete_graph(4)
    assert edge_weight(k4, 0, 1, 3) == 2
    assert edge_weight(k4, 0, 1, 2) == 1
    with pytest.raises(GraphError):
        edge_weight(turan_graph(4, 2), 0, 1, 3)  # same part, not an edge


def test_handshake_identity_small():
    rng = random.Random(55)
    for _ in range(40):
        g = random_graph(rng.randint(1, 8), rng.random(), rng)
        counts = clique_size_counts(g)
        weights = per_vertex_clique_counts(g)
        for t in range(1, g.n + 1):
            assert sum(w[t] for w in weights) == t * counts[t]


def test_clique_independent_set_duality():
    # k_t(G) equals the number of independent t-sets of the complement,
    # counted through the independent vertex-cover scanner
    rng = random.Random(77)
    for _ in range(30):
        g = random_graph(rng.randint(1, 7), rng.random(), rng)
        for t in range(g.n + 1):
            assert clique_count(g, t) == vertex_cover_count(complement(g), g.n - t)


def test_density_values():
    assert density(bt_graph(2), 3) == Fraction(15, 8)
    assert density(g_star(), 3) == Fraction(16, 7)
    assert density(empty_graph(1), 3) == 0
    with pytest.raises(GraphError):
        density(empty_graph(0), 3)


# -- perfect vertices -----------------------------------------------------

def test_perfect_vertex_in_turan_7_3():
    g = turan_graph(7, 3)  # parts sized 3,2,2; size-2 parts start at vertex 3
    assert is_perfect_vertex(g, 3, 5, 3)
    assert not is_perfect_vertex(g, 0, 5, 3)  # degree 4 < 5


def test_no_perfect_vertex_in_turan_8_4_class_6_5():
    g = turan_graph(8, 4)
    assert not any(is_perfect_vertex(g, v, 6, 5) for v in range(8))


def test_perfect_vertex_rejects_class_violation():
    with pytest.raises(GraphError):
        is_perfect_vertex(complete_graph(5), 0, 3, 3)


def test_perfect_vertices_of_bt2():
    g = bt_graph(2)
    flags = [is_perfect_vertex(g, v, 5, 3) for v in range(8)]
    # exactly the five core (cycle) vertices are perfect
    assert sum(flags) == 5


def _perfect_grid(g):
    """(dmax, omega) pairs around g's own degree and clique number."""
    d, w = max_degree(g), clique_number(g)
    return [(dmax, omega) for dmax in (d, d + 1) for omega in sorted({max(w, 2), w + 1})]


def _assert_matches_oracle(g):
    for dmax, omega in _perfect_grid(g):
        turan = turan_graph(dmax, omega - 1)
        for v in range(g.n):
            oracle = is_isomorphic(induced(g, g.adj[v]), turan)
            assert is_perfect_vertex(g, v, dmax, omega) == oracle, (g, v, dmax, omega)


def test_perfect_vertex_matches_isomorphism_oracle():
    rng = random.Random(20240607)
    graphs = []
    enumerate_all_up_to(7, 7, 8, graphs.append)
    assert len(graphs) == 1252
    for g in graphs:
        _assert_matches_oracle(g)
        _assert_matches_oracle(relabel(g, random_permutation(g.n, rng)))


@pytest.mark.parametrize("g", [
    turan_graph(12, 6), turan_graph(16, 4), bt_graph(2), bt_graph(3), g_star(),
], ids=["T(12,6)", "T(16,4)", "bt2", "bt3", "gstar"])
def test_perfect_vertex_matches_oracle_on_constructions(g):
    _assert_matches_oracle(g)


def _hub(nb):
    """Vertex 0 joined to every vertex of nb."""
    return join(complete_graph(1), nb)


@pytest.mark.parametrize("g, dmax, omega, expected", [
    (_hub(turan_graph(4, 2)), 4, 3, True),  # N(0) = C_4 = T(4,2)
    (_hub(join(empty_graph(1), empty_graph(3))), 4, 3, False),  # K_{1,3}: wrong part sizes
    (_hub(cycle_graph(5)), 5, 3, False),  # C_5 against T(5,2): not multipartite
    (_hub(path_graph(4)), 4, 3, False),  # P_4 against T(4,2): not multipartite
    (complete_graph(4), 3, 5, True),  # d < omega-1: N(0) must be K_3
    (_hub(path_graph(3)), 3, 5, False),  # d < omega-1 and N(0) = P_3, not K_3
    (empty_graph(1), 0, 2, True),  # degree 0 against T(0, 1)
    (union(empty_graph(1), complete_graph(2)), 1, 2, False),  # degree 0 < dmax
])
def test_perfect_vertex_near_misses(g, dmax, omega, expected):
    assert is_perfect_vertex(g, 0, dmax, omega) is expected
    assert is_isomorphic(induced(g, g.adj[0]), turan_graph(dmax, omega - 1)) is expected


# -- border profiles and detachability ------------------------------------

def test_border_profile_whole_graph():
    g = cycle_graph(5)
    prof = border_profile(g, g.vertex_mask(), 3)
    assert len(prof.border) == 5
    assert all(d == 0 for _, d in prof.border)
    assert prof.max_cross == 0


def test_border_profile_turan_7_5():
    g = turan_graph(7, 5)  # parts 2,2,1,1,1
    prof = border_profile(g, g.vertex_mask(), 6)
    assert sorted(v for v, _ in prof.border) == [0, 1, 2, 3]
    assert prof.border_clique_number == 2
    assert prof.max_cross == 0


def test_border_profile_shared_triangle():
    # two triangles glued at vertex 0; H = first triangle
    g = build_graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
    prof = border_profile(g, 0b00111, 4)
    assert (0, 2) in prof.border  # glue vertex has two cross edges
    assert not is_detachable(g, 0b00111, 3)  # triangle counts do not add
    p2 = path_graph(2)
    assert is_detachable(p2, 0b01, 1)  # vertex counts add over every cut
    assert not is_detachable(p2, 0b01, 2)
    with pytest.raises(ValueError, match="at least 1"):
        is_detachable(p2, 0b01, 0)


def test_detachable_no_cross_edges():
    g = union(complete_graph(3), complete_graph(3))
    for t in range(2, 7):
        assert is_detachable(g, 0b000111, t)


def test_detach_sufficient_examples():
    prof = BorderProfile(border=((0, 1), (1, 1)), border_clique_number=2, max_cross=1)
    assert detach_sufficient(prof, 4)
    assert not detach_sufficient(prof, 3)
    assert detach_sufficient(prof, 3, strong=True)


def test_detach_sufficiency_implies_exact_exhaustively():
    # every graph on <= 6 vertices, every induced subgraph, every t
    from cdt import enumerate_all_up_to

    def check(g):
        dmax = max_degree(g)
        for subset in range(1, g.vertex_mask() + 1):
            prof = border_profile(g, subset, dmax)
            assert is_detachable(g, subset, 1)  # k_1 adds over every cut
            for t in range(1, g.n + 1):
                if detach_sufficient(prof, t):
                    assert is_detachable(g, subset, t)

    enumerate_all_up_to(6, 6, 7, check)


def test_strong_detach_sufficiency_implies_exact():
    # when every maximum border clique has a vertex of submaximal cross
    # degree, the threshold drops by one and must stay sound
    from cdt import enumerate_all_up_to

    def premise_holds(g, subset, prof):
        i, j = prof.border_clique_number, prof.max_cross
        if i == 0 or j == 0:
            return False
        border = {v: d for v, d in prof.border}
        for combo in combinations(sorted(border), i):
            if all(g.adj[u] & (1 << v) for u, v in combinations(combo, 2)):
                if all(border[v] >= j for v in combo):
                    return False
        return True

    def check(g):
        dmax = max_degree(g)
        for subset in range(1, g.vertex_mask() + 1):
            prof = border_profile(g, subset, dmax)
            if not premise_holds(g, subset, prof):
                continue
            for t in range(2, g.n + 1):
                if detach_sufficient(prof, t, strong=True):
                    assert is_detachable(g, subset, t)

    enumerate_all_up_to(6, 6, 7, check)


# -- averaging bounds -------------------------------------------------------

def test_averaging_bound():
    assert averaging_bound(7, 3) == Fraction(7, 3)
    with pytest.raises(ValueError):
        averaging_bound(7, 0)


def test_capped_weight_bound_values():
    assert capped_weight_bound(6, 3, 5, 3) == Fraction(15, 8)
    assert capped_weight_bound(7, 1, 5, 3) == Fraction(41, 18)


def test_capped_weight_bound_degenerates_to_averaging():
    for k in range(1, 8):
        for dmax in range(1, 6):
            for t in range(1, 5):
                assert capped_weight_bound(k, 0, dmax, t) == averaging_bound(k, t)


# -- vertex covers ------------------------------------------------------------

def test_vertex_cover_counts():
    assert vertex_cover_count(complete_graph(3), 2) == 3
    assert vertex_cover_count(union(path_graph(2), path_graph(2)), 2) == 4
    assert vertex_cover_count(union(path_graph(4), empty_graph(1)), 2) == 3


def test_vertex_cover_edge_cases():
    g = empty_graph(3)
    assert vertex_cover_count(g, 0) == 1
    assert vertex_cover_count(g, 2) == 3
    assert vertex_cover_count(complete_graph(3), 3) == 1
    with pytest.raises(ValueError):
        vertex_cover_count(g, 4)


# -- configurations -------------------------------------------------------------

def _k7_minus_two_edges(incident: bool):
    g = complete_graph(7)
    adj = list(g.adj)
    drop = ((0, 1), (0, 2)) if incident else ((0, 1), (2, 3))
    for u, v in drop:
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
    return build_graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7)
                           if adj[u] & (1 << v)])


def test_configuration_in_k7_minus_two_edges():
    for incident in (True, False):
        g = _k7_minus_two_edges(incident)
        found = find_configurations(g, 6)
        assert len(found) == 1
        assert found[0].vertices == g.vertex_mask()
        assert found[0].incident == incident


def test_no_configuration_with_one_missing_edge():
    assert find_configurations(turan_graph(7, 6), 6) == []


def test_disjoint_blocks_give_two_configurations():
    g = union(_k7_minus_two_edges(True), _k7_minus_two_edges(False))
    found = find_configurations(g, 6)
    assert len(found) == 2
    assert found[0].vertices & found[1].vertices == 0


def _reference_configurations(g, r):
    """(vertex mask, missing edges, incident) of every (r+1)-subset
    missing exactly two edges, by scanning all subsets in order."""
    out = []
    for combo in combinations(range(g.n), r + 1):
        missing = [(u, v) for u, v in combinations(combo, 2) if not g.adj[u] >> v & 1]
        if len(missing) == 2:
            out.append((sum(1 << v for v in combo), tuple(missing), len(set(sum(missing, ()))) == 3))
    return out


def test_configurations_match_a_full_subset_scan_up_to_8_vertices():
    # every class on at most 8 vertices; the incident K_7 case above pins
    # the boundary where a vertex has degree exactly r - 2
    graphs = []
    enumerate_all_up_to(8, 7, 8, graphs.append)
    assert len(graphs) == 13598
    for r in (5, 6, 7):
        for g in graphs:
            got = [(c.vertices, c.missing_edges, c.incident) for c in find_configurations(g, r)]
            assert got == _reference_configurations(g, r), (g.n, g.adj, r)
