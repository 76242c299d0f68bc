"""Exhaustive enumeration engine and the brute-force verification ops."""

import hashlib
import signal
from collections import Counter
from fractions import Fraction

import pytest

from cdt import (
    CapExceeded,
    Graph,
    beat,
    best_up_to,
    bt_density,
    build_graph,
    canonical_form,
    clique_count,
    clique_number,
    complement,
    enumerate_all_up_to,
    exact_value,
    graph6_decode,
    is_isomorphic,
    lower_bound,
    max_degree,
    per_vertex_clique_counts,
    probe_configuration_average,
    turan_clique_count,
    turan_graph,
    union,
    verify_neighborhood_lemmas,
)

from cdt.canon import canon_raw, refine_colors, _orbit_find, _orbit_partition
from cdt.cliques import _per_vertex_size_counts, find_configurations
from cdt.search import _accept, _count_of_size, _expand
from cdt.verify import Sweep, _PATH4, _TRIANGLE
from helpers import brute_classes, inline_pool_context, level_graphs


KNOWN_UNCONSTRAINED = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def test_unconstrained_counts_match_catalog():
    for n, want in KNOWN_UNCONSTRAINED.items():
        assert len(level_graphs(n, n, n + 1)) == want


# Golden outputs of the engine, recorded before the refinement was
# re-keyed: an engine change must leave the emitted representatives,
# their order and every per-level result exactly as they are.
GOLDEN_STREAM_7 = "307b2c2ecb657bbd0c746cc21e852c56f74a4df3b6c5ec8829b9fe629bb96a3c"
# recorded before the degree test moved ahead of orbit reduction: the
# degree bound saturates vertices and the new vertex often ties the
# parent's maximum degree, which dmax = n never exercises
GOLDEN_STREAM_9_3_4 = "55ad2c13e8b51182c59c373aa87d4a07ed4246aa323ec18ac7b99ebd1169b946"
# recorded before refinement stopped early in the canonical-parent test
# and the child's group was handed to its own expansion: the class the
# `extremal` benchmark searches, through the `_has_clique` path
GOLDEN_STREAM_8_5_3 = "ead6f346c5ce0772cb30292b3f948fd92e969cab9c2befead102877389c53b9a"
# recorded before the canonical-parent test gained its degree, top-cell
# and leaf-certificate stages: its last level holds cubic graphs whose
# last cell is all 10 vertices, the certificate's largest cells
GOLDEN_STREAM_10_3_3 = "82bfee816ff2bcf1762fa4e531e23ba1314e5ca1d8431e266050ff6f59e75689"
GOLDEN_LEVELS_8_5_3_3 = [
    (1, 1, 0, ("@",)),
    (2, 2, 0, ("A?", "A_")),
    (3, 4, 1, ("Bw",)),
    (4, 10, 2, ("C^",)),
    (5, 29, 4, ("D]{",)),
    (6, 120, 8, ("E]~o",)),
    (7, 647, 12, ("FFz~o",)),
    (8, 5325, 15, ("GLr~vo",)),
]


def _stream_digest(n_max, dmax, omega):
    h = hashlib.sha256()
    count = enumerate_all_up_to(
        n_max, dmax, omega, lambda g: h.update(f"{g.n}:{','.join(map(str, g.adj))}\n".encode())
    )
    return count, h.hexdigest()


def test_enumeration_stream_matches_golden_digest():
    assert _stream_digest(7, 7, 8) == (1252, GOLDEN_STREAM_7)


def test_degree_bounded_stream_matches_golden_digest():
    assert _stream_digest(9, 3, 4) == (1842, GOLDEN_STREAM_9_3_4)


def test_clique_bounded_stream_matches_golden_digest():
    assert _stream_digest(8, 5, 3) == (6138, GOLDEN_STREAM_8_5_3)


def test_cubic_stream_matches_golden_digest():
    assert _stream_digest(10, 3, 3) == (5285, GOLDEN_STREAM_10_3_3)


def test_best_up_to_levels_match_golden():
    report = best_up_to(8, 5, 3, 3)
    got = [(lv.n, lv.graphs_enumerated, lv.max_clique_count, lv.witnesses) for lv in report.levels]
    assert got == GOLDEN_LEVELS_8_5_3_3
    assert report.best_density == Fraction(15, 8)
    assert report.best_n == 8
    assert report.best_density == exact_value(3, 5, 3).value


def test_all_four_vertex_graphs():
    assert len(level_graphs(4, 3, 4)) == 11


def test_degree_zero_leaves_only_the_edgeless_graph():
    assert len(level_graphs(3, 0, 3)) == 1


def test_constrained_counts_match_labeled_filter_oracle():
    # independent oracle: filter every labeled graph, dedup by
    # permutation brute force
    for n in range(1, 6):
        for dmax, omega in [(2, 3), (3, 2), (2, 2), (3, 3), (4, 2), (1, 4)]:
            want = len(
                brute_classes(
                    n,
                    lambda g: max_degree(g) <= dmax and clique_number(g) <= omega,
                )
            )
            assert len(level_graphs(n, dmax, omega)) == want, (n, dmax, omega)


def test_five_vertex_degree_two_class():
    want = len(
        brute_classes(5, lambda g: max_degree(g) <= 2 and clique_number(g) <= 3)
    )
    assert len(level_graphs(5, 2, 3)) == want


def test_enumeration_is_isomorph_free():
    forms = [canonical_form(g) for g in level_graphs(6, 3, 3)]
    assert len(forms) == len(set(forms))


def test_visited_graphs_satisfy_constraints():
    def check(g):
        assert max_degree(g) <= 3
        assert clique_number(g) <= 3

    enumerate_all_up_to(6, 3, 3, check)


def test_pruned_equals_catalog_filtered():
    # enumerate unconstrained once, filter by the class predicate, and
    # compare per-level totals against one pruned enumeration per class
    catalog = []
    enumerate_all_up_to(7, 7, 8, lambda g: catalog.append((g.n, max_degree(g), clique_number(g))))
    for dmax in range(2, 7):
        for omega in range(2, 7):
            got = Counter()
            enumerate_all_up_to(7, dmax, omega, lambda g: got.update((g.n,)))
            want = Counter(n for n, d, w in catalog if d <= dmax and w <= omega)
            for n in range(1, 8):
                assert got[n] == want[n], (n, dmax, omega)


@pytest.mark.parametrize("dmax, omega", [(-1, 3), (2, 0)])
def test_enumerate_rejects_the_class_bounds_best_up_to_rejects(dmax, omega):
    visited = []
    with pytest.raises(ValueError) as got:
        enumerate_all_up_to(3, dmax, omega, visited.append)
    assert visited == []
    with pytest.raises(ValueError) as want:
        best_up_to(3, dmax, omega, 3)
    assert str(got.value) == str(want.value)


def test_cap_enforced(monkeypatch):
    # the library rejects only sizes beyond the engine's range, before walking
    monkeypatch.setattr("cdt.search._walk", lambda *args: pytest.fail("walked"))
    visited = []
    with pytest.raises(CapExceeded):
        enumerate_all_up_to(17, 3, 3, visited.append)
    with pytest.raises(CapExceeded):
        best_up_to(17, 3, 3, 3)
    assert visited == []
    # the default cap of 11 is the CLI's alone
    searched = []
    monkeypatch.setattr("cdt.search._search_levels",
                        lambda *args: searched.append(args) or {1: [1, 0, [(0,)]]})
    assert best_up_to(12, 3, 3, 3).best_n == 1
    assert searched == [(12, 3, 3, 3, 1, None)]


# -- the canonical-parent test -------------------------------------------------

def _reference_accept(n, adj):
    """The canonical-parent test before refinement stopped early and
    handed back the child's group, kept verbatim as the oracle."""
    w = n - 1
    colors = refine_colors(n, adj)
    last = max(colors)
    if colors[w] != last:
        return False
    if colors.count(last) == 1:
        return True
    lab, _, gens = canon_raw(n, adj, colors)
    z = lab[n - 1]
    if z == w:
        return True
    if not gens:
        return False
    parent = _orbit_partition(n, gens)
    return _orbit_find(parent, z) == _orbit_find(parent, w)


def _degree_candidates(n, adj, dmax):
    """Every child of ``adj`` whose new vertex ends with the maximum
    degree, as `_expand` pre-filters them, without orbit reduction."""
    degs = [a.bit_count() for a in adj]
    top = max(degs)
    for mask in range(1 << n):
        size = mask.bit_count()
        if not top <= size <= dmax:
            continue
        if any(mask >> v & 1 and (degs[v] >= dmax or (size == top and degs[v] == top))
               for v in range(n)):
            continue
        yield tuple(a | 1 << n if mask >> v & 1 else a for v, a in enumerate(adj)) + (mask,)


@pytest.mark.parametrize("dmax, omega", [(7, 8), (4, 3), (5, 3)])
def test_accept_matches_reference_and_hands_over_the_group(dmax, omega):
    parents = []
    enumerate_all_up_to(7, dmax, omega, lambda g: parents.append((g.n, g.adj)))
    for leaf in (False, True):  # off and on the last level
        decided = handed = 0
        for n, adj in parents:
            for child in _degree_candidates(n, adj, dmax):
                got = _accept(n + 1, child, leaf)
                assert bool(got) == _reference_accept(n + 1, child), (child, leaf)
                if got:
                    decided += 1
                    if got[0] is not None:
                        handed += 1
                        assert got[0] == canon_raw(n + 1, child)[2], (child, leaf)
        assert decided > handed > 0, leaf


def test_leaf_certificate_accepts_vertex_transitive_children_unlabelled(monkeypatch):
    cycle = [(1 << (v - 1) % 8) | (1 << (v + 1) % 8) for v in range(8)]
    petersen = [0] * 10
    for v in range(5):  # outer 5-cycle, spokes, inner pentagram
        for a, b in ((v, (v + 1) % 5), (v, v + 5), (5 + v, 5 + (v + 2) % 5)):
            petersen[a] |= 1 << b
            petersen[b] |= 1 << a
    children = []
    for graph in (cycle, petersen):  # C_8 closed from P_7, and the Petersen graph
        n = len(graph)
        parent = tuple(a & ~(1 << (n - 1)) for a in graph[:-1])
        child = tuple(graph)
        assert child in list(_degree_candidates(n - 1, parent, 3))
        assert _accept(n, child) == (canon_raw(n, child)[2],)  # labelled off the last level
        children.append((n, child))

    def unlabelled(*args):
        raise AssertionError("canon_raw called")

    monkeypatch.setattr("cdt.search.canon_raw", unlabelled)
    for n, child in children:
        assert _accept(n, child, True) == (None,)
        with pytest.raises(AssertionError, match="canon_raw called"):
            _accept(n, child)


def test_degree_and_top_cell_stages_decide_as_refinement(monkeypatch):
    parents = []
    enumerate_all_up_to(7, 7, 8, lambda g: parents.append((g.n, g.adj)))

    def decides(n, child, got):
        colors = refine_colors(n, child)
        cell = _last_cell(colors)
        if n - 1 not in cell:
            return got is False
        return cell == {n - 1} and got == (None,)

    # the degree stage: children `_expand` yields without `_accept`
    offered = []

    def accept(n, adj, leaf=False):
        offered.append(adj)
        return _accept(n, adj, leaf)

    monkeypatch.setattr("cdt.search._accept", accept)
    by_degree = passed_on = 0
    for n, adj in parents:
        offered.clear()
        for child, gens in _expand(n, adj, 7, 8):
            if child not in offered:
                by_degree += 1
                assert gens is None and decides(n + 1, child, (None,)), child
        for child in offered:  # the new vertex shares the maximum degree
            passed_on += 1
            degs = [a.bit_count() for a in child]
            assert degs[n] == max(degs) and degs.count(degs[n]) > 1, child
    assert by_degree > 0 and passed_on > 0

    # the top-cell stage: `_accept` returns before refining
    refined = []

    def refine(*args, **kwargs):
        refined.append(args)
        return refine_colors(*args, **kwargs)

    monkeypatch.setattr("cdt.search.refine_colors", refine)
    outcomes = Counter()
    for n, adj in parents:
        for child in _degree_candidates(n, adj, 7):
            refined.clear()
            got = _accept(n + 1, child)
            if not refined:
                outcomes[bool(got)] += 1
                assert decides(n + 1, child, got), child
    assert outcomes[True] > 0 and outcomes[False] > 0


def _last_cell(colors):
    last = max(colors)
    return {v for v, c in enumerate(colors) if c == last}


# -- maxima ---------------------------------------------------------------

def test_max_density_triangle_free_degree_two():
    lv = best_up_to(5, 2, 3, 3).level(5)
    assert lv.max_density == Fraction(1, 5)  # a 5-cycle cannot hold a triangle; C3+2K1 can
    assert len(lv.witnesses) >= 1


def test_level_outside_the_search_raises_key_error():
    with pytest.raises(KeyError):
        best_up_to(4, 2, 3, 3).level(9)


def test_max_density_above_clique_bound_is_zero():
    lv = best_up_to(5, 4, 2, 3).level(5)
    assert lv.max_density == 0
    # every triangle-free class member is then a witness
    assert len(lv.witnesses) == len(level_graphs(5, 4, 2))


def test_max_density_matches_proven_value_small():
    # degree 4 = clique bound: optimum 7/5 with witness T(5,4)
    report = best_up_to(6, 4, 4, 3)
    assert report.best_density == Fraction(7, 5)
    assert report.best_n == 5
    assert report.best_density == exact_value(3, 4, 4).value
    lv = report.level(5)
    assert lv.witnesses == (canonical_form(turan_graph(5, 4)),)


def test_best_up_to_tiny_class():
    report = best_up_to(3, 2, 3, 3)
    assert report.best_density == Fraction(1, 3)  # the triangle
    assert report.best_n == 3
    report = best_up_to(3, 62, 32, 3)  # the proven optimum's witness is T(64, 32)
    assert report.best_density == Fraction(1, 3)
    assert exact_value(3, 62, 32).value == 620


def test_best_up_to_small_sizes_capped_by_lower_bound():
    # at up to dmax + a vertices nothing beats the lower bound graph
    for dmax, omega in [(3, 3), (4, 3), (5, 4)]:
        a = (dmax // (omega - 1))
        report = best_up_to(dmax + a, dmax, omega, 3)
        assert report.best_density == lower_bound(3, dmax, omega)


def test_report_levels_are_complete_and_sorted():
    report = best_up_to(6, 5, 3, 3)
    assert [lv.n for lv in report.levels] == list(range(1, 7))
    for lv in report.levels:
        assert lv.max_density == Fraction(lv.max_clique_count, lv.n)
        assert list(lv.witnesses) == sorted(lv.witnesses)
        for w in lv.witnesses:
            g = graph6_decode(w)
            assert clique_count(g, 3) == lv.max_clique_count


def test_results_identical_across_worker_counts():
    cases = [
        ((7, 5, 3, 3), None, (1, 2, 8)),
        ((9, 7, 3, 3), bt_density(3), (1, 2)),  # pool tasks prune their subtrees
    ]
    for args, prune_target, workers in cases:
        results = []
        for k in workers:
            report = best_up_to(*args, thread_count=k, prune_target=prune_target)
            results.append(([(lv.n, lv.graphs_enumerated, lv.max_clique_count, lv.witnesses)
                             for lv in report.levels], report.best_density))
        assert results == [results[0]] * len(workers), args


def test_pool_is_capped_at_task_count(monkeypatch):
    started = []
    monkeypatch.setattr("cdt.search.get_context", lambda method: inline_pool_context(started))
    report = best_up_to(6, 5, 3, 3, thread_count=64)
    assert [kw["processes"] for kw in started] == [10]  # one process per level-4 task
    # workers ignore Ctrl-C, so the parent alone reports it
    assert started[0]["initializer"] is signal.signal
    assert started[0]["initargs"] == (signal.SIGINT, signal.SIG_IGN)
    assert report.levels == best_up_to(6, 5, 3, 3).levels


# -- theorem verification ----------------------------------------------------

def _assert_turan_maximizes(n, omega, t):
    # Zykov: among n-vertex graphs with clique number <= omega the Turan
    # graph maximizes the t-clique count, uniquely when it has any
    lv = best_up_to(n, n, omega, t).level(n)
    expected = turan_clique_count(n, omega, t)
    assert lv.max_clique_count == expected, (n, omega, t)
    if expected:
        assert lv.witnesses == (canonical_form(turan_graph(n, omega)),), (n, omega, t)


def test_zykov_triangle_bound_six_vertices():
    _assert_turan_maximizes(6, 3, 3)
    lv = best_up_to(6, 5, 3, 3).level(6)
    assert lv.max_density * 6 == 8
    assert list(lv.witnesses) == [canonical_form(turan_graph(6, 3))]


def test_zykov_edges_seven_vertices():
    _assert_turan_maximizes(7, 3, 2)
    assert turan_graph(7, 3).edge_count() == 16


def test_zykov_vacuous_above_clique_bound():
    _assert_turan_maximizes(5, 2, 4)
    _assert_turan_maximizes(4, 1, 2)


def test_zykov_sweep_small():
    for n in range(1, 7):
        for omega in range(1, 5):
            for t in range(2, 5):
                _assert_turan_maximizes(n, omega, t)


def test_superadditivity_cases():
    # a disjoint union stays in the class, so max k_t at x + y vertices
    # is at least the sum of the maxima at x and y
    for dmax, omega, t, n_max in ((4, 4, 3, 8), (5, 3, 3, 8), (3, 4, 5, 7)):  # the last is all-zero
        best = {lv.n: lv.max_clique_count for lv in best_up_to(n_max, dmax, omega, t).levels}
        for x in range(1, n_max):
            for y in range(x, n_max - x + 1):
                assert best[x + y] >= best[x] + best[y], (dmax, omega, t, x, y)


def test_superadditive_maxima_strictly_grow_from_triangle():
    report = best_up_to(8, 5, 3, 3)
    best = {lv.n: lv.max_clique_count for lv in report.levels}
    assert best[1] == best[2] == 0
    for n in range(4, 9):
        assert best[n] > best[n - 1] >= 1


# -- the lemma sweep -------------------------------------------------------------

def test_sweep_lists_each_failing_graph_once():
    sweep = Sweep(5)
    for table in sweep.ceilings.values():
        table[:] = [0] * len(table)  # every graph with an edge now breaks a ceiling
    ceiling = sweep.run().checks()["ceiling"]
    assert not ceiling.ok
    assert len(ceiling.failures) == len(set(ceiling.failures)) <= ceiling.covered


def test_sweep_lists_each_graph_failing_equality_once(monkeypatch):
    # a vertex that attains a ceiling must have a Turan neighbourhood:
    # deny every one, and each graph that has such a vertex fails once
    checked = set()

    def never_perfect(adj, v, d, r):
        checked.add(canonical_form(Graph(len(adj), adj)))
        return False

    want = Sweep(6).run().checks()["equality"]
    monkeypatch.setattr("cdt.verify._is_perfect", never_perfect)
    equality = Sweep(6).run().checks()["equality"]
    assert want.ok and not equality.ok
    assert sorted(equality.failures) == sorted(checked)
    assert equality.covered == want.covered


@pytest.fixture(scope="module")
def clean_rows():
    """The rows of the unplanted sweeps, by n_max."""
    return {n_max: Sweep(n_max).run().checks() for n_max in (6, 7)}


def _assert_only_row_fails(key, want, got, faulted):
    """Row ``key`` fails in ``got`` and names each graph of ``faulted``
    once, over the same graphs; every other row is as in ``want``."""
    assert want[key].ok and not got[key].ok
    assert sorted(got[key].failures) == sorted(faulted)
    assert got[key].covered == want[key].covered
    others = [k for k in want if k != key]
    assert [got[k] for k in others] == [want[k] for k in others]


def test_sweep_lists_each_graph_failing_handshake_once(monkeypatch, clean_rows):
    # a counter that loses vertex 0's 1-clique in every graph with an
    # edge breaks the t = 1 sum, which no other row reads
    faulted = set()

    def miscount(n, adj):
        weights = _per_vertex_size_counts(n, adj)
        if any(adj):
            weights[0][1] = 0
            faulted.add(canonical_form(Graph(n, adj)))
        return weights

    monkeypatch.setattr("cdt.verify._per_vertex_size_counts", miscount)
    _assert_only_row_fails("handshake", clean_rows[6], Sweep(6).run().checks(), faulted)


def test_sweep_lists_each_graph_failing_heavy_neighbour_once(monkeypatch, clean_rows):
    # with every neighbourhood hidden, each graph of the degree-5
    # clique-4 class with a heavy vertex (on 7 triangles) fails
    heavy = set()

    def visit(g):
        if g.n >= 3 and any(w[3] == 7 for w in per_vertex_clique_counts(g)):
            heavy.add(canonical_form(g))

    enumerate_all_up_to(6, 5, 4, visit)
    monkeypatch.setattr("cdt.verify.bits", lambda mask: iter(()))
    _assert_only_row_fails("heavy-neighbour", clean_rows[6], Sweep(6).run().checks(), heavy)


def test_sweep_lists_each_graph_failing_configurations_once(monkeypatch, clean_rows):
    # every configuration reported twice overlaps its copy: each graph
    # with a configuration fails
    found = set()

    def twice(g, r):
        cfgs = find_configurations(g, r)
        if cfgs:
            found.add(canonical_form(g))
        return cfgs + cfgs

    monkeypatch.setattr("cdt.verify.find_configurations", twice)
    _assert_only_row_fails("configurations", clean_rows[7], Sweep(7).run().checks(), found)


def test_sweep_lists_each_graph_failing_superadd_once(clean_rows):
    # a maximum of -1 on 6 vertices is below every sum over x + y = 6,
    # so each union of maximizers on x and 6 - x vertices fails
    sweep = Sweep(6).run()
    case = (5, 3, 3)
    sweep.superadd[case][6] = -1
    wit = sweep.superadd_witness
    unions = {canonical_form(union(Graph(x, wit[case, x]), Graph(6 - x, wit[case, 6 - x])))
              for x in (1, 2, 3)}
    _assert_only_row_fails("superadd", clean_rows[6], sweep.checks(), unions)


def test_sweep_keeps_zykov_maximizers_only_where_turan_has_the_clique():
    sweep = Sweep(6).run()
    for (n, omega, t), (best, wits) in sweep.zykov.items():
        assert best == turan_clique_count(n, omega, t), (n, omega, t)
        assert (wits == []) == (t > min(n, omega)), (n, omega, t)
    rows = sweep.checks()
    assert [(row.scope, row.failures, row.covered) for row in rows.values()] == [
        ("n <= 6", [], covered) for covered in (208, 208, 208, 198, 0, 208, 201, 207)
    ]
    # a wrong maximum where T(n, omega) has no t-clique fails by its key
    sweep.zykov[3, 2, 3][0] = 1
    assert sweep.checks()["zykov"].failures == ["n=3,omega=2,t=3"]


# -- neighborhood classifications ----------------------------------------------

def test_neighborhood_lemmas_small_r():
    rows = verify_neighborhood_lemmas([3, 4])
    assert all(row.ok for row in rows)
    assert [(row.name, row.scope, row.covered) for row in rows] == [
        ("three-max-cliques", "r = 3, n = 3..5", 49),
        ("three-covers-of-size-two", "r = 3, n = 1..5", 52),
        ("three-max-cliques", "r = 4, n = 4..6", 201),
        ("three-covers-of-size-two", "r = 4, n = 1..6", 208),
    ]


def test_neighborhood_lemmas_reject_small_r_before_enumerating(monkeypatch):
    monkeypatch.setattr("cdt.verify.enumerate_all_up_to", lambda *args: pytest.fail("enumerated"))
    with pytest.raises(ValueError):
        verify_neighborhood_lemmas([6, 2])


def test_neighborhood_lemma_expected_sets_are_two_graphs():
    # the two constructions are distinct, so an ok row found exactly two graphs
    for m in range(4, 9):
        pair = [complement(build_graph(m, edges)) for edges in (_TRIANGLE, _PATH4)]
        assert not is_isomorphic(*pair)
    [three_max, _] = verify_neighborhood_lemmas([4])
    assert three_max.name == "three-max-cliques" and three_max.ok


# -- probes -----------------------------------------------------------------------

def test_probe_bt3_small_cap():
    res = beat(3, 7, 3, 8)
    assert res.target == bt_density(3) == Fraction(40, 11)
    assert res.ties == res.beats == {}
    assert res.report.pruned is True


@pytest.mark.parametrize("omega, ties, beats", [
    (3, {7: ("FFz~o",)}, {8: ("GLr~vo",)}),
    (4, {6: ("E]~w",), 8: ("G@\\rzw", "GBXz~o", "GK~vno", "GLvnno")}, {7: ("FNz~o",)}),
], ids=["3-5-3", "3-5-4"])
def test_beat_equals_unpruned_levels_reaching_the_target(omega, ties, beats):
    # the pruned search keeps every graph at or above the target, so its
    # ties and beats are exactly the unpruned levels that reach it
    res = beat(3, 5, omega, 8)
    full = best_up_to(8, 5, omega, 3)
    assert res.target == lower_bound(3, 5, omega)
    assert res.ties == {lv.n: lv.witnesses for lv in full.levels if lv.max_density == res.target} == ties
    assert res.beats == {lv.n: lv.witnesses for lv in full.levels if lv.max_density > res.target} == beats


def test_beat_rejects_a_miscounted_witness(monkeypatch):
    monkeypatch.setattr("cdt.search._count_of_size", lambda adj, cand, t: _count_of_size(adj, cand, t) + 1)
    with pytest.raises(RuntimeError, match="fails its recount"):
        beat(3, 5, 3, 7)


def test_probe_configuration_average_resolves_r5():
    out = probe_configuration_average(5, 8)
    assert out["claimed_bound"] == (5 + 1) * (10 - 3) == 42
    # the incident case is proven for r >= 5 and is attained exactly
    assert out["incident"]["max_total_weight"] == 42
    assert out["incident"]["within_bound"] is True
    # the non-incident case genuinely exceeds the bound at r = 5: the
    # average-weight estimate only closes from r = 6 onward
    assert out["non-incident"]["max_total_weight"] == 44
    assert out["non-incident"]["within_bound"] is False
