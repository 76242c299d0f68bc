"""Graph kernel: constructors, combinators, and the graph6 codec."""

import random

import pytest

from cdt import (
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
    is_isomorphic,
    join,
    max_degree,
    neighborhood,
    path_graph,
    relabel,
    turan_graph,
    union,
)
from cdt.bounds import bt_graph, g_star

from helpers import random_graph, random_permutation


def test_build_complete_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.edge_count() == 3
    assert max_degree(g) == 2


def test_build_single_vertex():
    g = build_graph(1, [])
    assert g.n == 1 and g.edge_count() == 0


def test_build_cycle_every_degree_two():
    g = cycle_graph(5)
    assert all(g.degree(v) == 2 for v in range(5))
    with pytest.raises(GraphError):
        cycle_graph(2)


def test_build_collapses_duplicate_edges():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


def test_build_rejects_self_loop():
    with pytest.raises(GraphError):
        build_graph(3, [(1, 1)])


def test_build_rejects_out_of_range_vertex():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 3)])


def test_build_rejects_capacity():
    with pytest.raises(GraphError):
        empty_graph(65)
    with pytest.raises(GraphError):
        build_graph(65, [])


def test_constructor_checks_symmetry_and_reflexivity():
    with pytest.raises(GraphError):
        Graph(2, [0b10, 0b00])  # asymmetric
    with pytest.raises(GraphError):
        Graph(2, [0b01, 0b10])  # self loops
    with pytest.raises(GraphError):
        Graph(1, [0b10])  # bit above n-1
    with pytest.raises(GraphError):
        Graph(2, [0])  # one row for two vertices


def test_graph_edges_equality_hash_repr_and_immutability():
    g = path_graph(3)
    assert sorted(g.edges()) == [(0, 1), (1, 2)]
    h = build_graph(3, [(2, 1), (1, 0)])
    assert g == h and hash(g) == hash(h) and len({g, h}) == 1
    assert repr(g) == "Graph(n=3, edges=[(0, 1), (1, 2)])"
    with pytest.raises(AttributeError):
        g.n = 4


def test_complement_of_triangle_is_empty():
    assert complement(complete_graph(3)) == empty_graph(3)


def test_complement_is_involution():
    rng = random.Random(42)
    for _ in range(50):
        g = random_graph(rng.randint(0, 9), rng.random(), rng)
        assert complement(complement(g)) == g


def test_complement_of_turan_5_2_is_two_cliques():
    # the two parts turn into disjoint complete graphs
    expected = union(complete_graph(3), complete_graph(2))
    assert is_isomorphic(complement(turan_graph(5, 2)), expected)


def test_induced_triangle_from_k4():
    assert induced(complete_graph(4), 0b1101) == complete_graph(3)


def test_induced_full_set_is_identity():
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng.randint(1, 8), 0.5, rng)
        assert induced(g, g.vertex_mask()) == g


def test_induced_part_of_turan_is_independent():
    # T(7,3) has one part of size 3 first; inside a part there are no edges
    g = turan_graph(7, 3)
    assert induced(g, 0b0000111) == empty_graph(3)


def test_induced_rejects_bad_subset():
    with pytest.raises(GraphError):
        induced(complete_graph(3), 0b1000)


def test_join_cycle_with_independent_set():
    g = join(cycle_graph(5), empty_graph(3))
    assert g.n == 8 and g.edge_count() == 20
    assert is_isomorphic(g, bt_graph(2))


def test_union_of_triangles():
    g = union(complete_graph(3), complete_graph(3))
    assert g.n == 6 and g.edge_count() == 6


def test_join_with_single_vertex_dominates():
    rng = random.Random(3)
    g = random_graph(6, 0.4, rng)
    h = join(complete_graph(1), g)
    assert h.degree(0) == 6
    # second operand keeps relative order after the offset
    assert induced(h, 0b1111110) == g


def test_union_join_count_formulas():
    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(rng.randint(0, 6), 0.5, rng)
        h = random_graph(rng.randint(0, 6), 0.5, rng)
        u = union(g, h)
        j = join(g, h)
        assert u.n == j.n == g.n + h.n
        assert u.edge_count() == g.edge_count() + h.edge_count()
        assert j.edge_count() == g.edge_count() + h.edge_count() + g.n * h.n


def test_capacity_checked_on_combinators():
    with pytest.raises(GraphError):
        union(empty_graph(40), empty_graph(30))
    with pytest.raises(GraphError):
        join(empty_graph(40), empty_graph(30))


def test_neighborhood_bipartite():
    g = turan_graph(5, 2)  # K_{3,2}: part {0,1,2} then {3,4}
    assert neighborhood(g, 3) == 0b00111
    assert neighborhood(g, 0) == 0b11000


def test_closed_neighborhood_of_k4():
    g = complete_graph(4)
    for v in range(4):
        assert neighborhood(g, v, closed=True) == 0b1111


def test_neighborhood_of_gstar_apex():
    # the apex is joined to exactly the four matched vertices
    g = g_star()
    assert neighborhood(g, 6) == 0b0001111


def test_neighborhood_rejects_bad_vertex():
    with pytest.raises(GraphError):
        neighborhood(complete_graph(3), 5)


def test_max_degree_values():
    assert max_degree(turan_graph(7, 3)) == 5
    assert max_degree(empty_graph(4)) == 0
    assert max_degree(empty_graph(0)) == 0
    for k in (2, 3, 4):
        assert max_degree(bt_graph(k)) == 2 * k + 1


def test_adjacency_invariants_on_random_graphs():
    # the Graph constructor re-checks symmetry/irreflexivity every time
    rng = random.Random(99)
    for _ in range(100):
        g = random_graph(rng.randint(0, 10), rng.random(), rng)
        for v in range(g.n):
            assert not g.adj[v] & (1 << v)
            for u in range(g.n):
                assert bool(g.adj[v] & (1 << u)) == bool(g.adj[u] & (1 << v))


# -- graph6 ------------------------------------------------------------

def test_graph6_fixed_encodings():
    assert graph6_encode(complete_graph(3)) == "Bw"
    assert graph6_encode(complete_graph(4)) == "C~"
    assert graph6_encode(empty_graph(1)) == "@"


def test_graph6_roundtrip_named_graphs():
    for g in [
        empty_graph(0),
        empty_graph(1),
        complete_graph(5),
        cycle_graph(7),
        path_graph(9),
        turan_graph(10, 4),
        bt_graph(2),
        g_star(),
    ]:
        assert graph6_decode(graph6_encode(g)) == g


def test_graph6_roundtrip_random_labeled():
    rng = random.Random(5)
    for _ in range(200):
        g = random_graph(rng.randint(0, 10), rng.random(), rng)
        assert graph6_decode(graph6_encode(g)) == g


def test_graph6_long_form_at_63_and_64():
    for n in (63, 64):
        rng = random.Random(n)
        g = random_graph(n, 0.1, rng)
        text = graph6_encode(g)
        assert text.startswith("~")
        assert graph6_decode(text) == g


def test_graph6_header_stripped():
    assert graph6_decode(">>graph6<<Bw") == complete_graph(3)


def test_graph6_malformed_header():
    with pytest.raises(Graph6Error):
        graph6_decode(">>sparse6<<Bw")


def test_graph6_truncated_payload():
    with pytest.raises(Graph6Error):
        graph6_decode("B")  # needs one edge character
    with pytest.raises(Graph6Error):
        graph6_decode("Bww")  # one too many


@pytest.mark.parametrize("text, reason", [
    ("~~??????", "above 258047"),  # the 8-byte vertex count
    ("~?@@", "count 65 exceeds capacity 64"),
    ("Bx", "nonzero padding bits"),
])
def test_graph6_rejects_long_counts_excess_vertices_and_padding(text, reason):
    with pytest.raises(Graph6Error, match=reason):
        graph6_decode(text)


def test_graph6_bad_characters():
    with pytest.raises(Graph6Error):
        graph6_decode("B\x1f")
    with pytest.raises(Graph6Error):
        graph6_decode("")


def test_relabel_is_action():
    rng = random.Random(13)
    for _ in range(30):
        g = random_graph(7, 0.5, rng)
        p = random_permutation(7, rng)
        q = random_permutation(7, rng)
        pq = [q[p[v]] for v in range(7)]
        assert relabel(relabel(g, p), q) == relabel(g, pq)
