"""Exhaustive enumeration engine and the brute-force verification ops."""

import hashlib
import random
import signal
from collections import Counter
from fractions import Fraction

import pytest

from cdt import (
    CapExceeded,
    best_up_to,
    bt_density,
    canonical_form,
    clique_count,
    clique_number,
    enumerate_all_up_to,
    graph6_decode,
    lower_bound,
    max_degree,
    probe_configuration_average,
    probe_conjecture,
    turan_clique_count,
    turan_graph,
    verify_neighborhood_lemmas,
)

from cdt.canon import canon_raw, refine_colors, _orbit_find, _orbit_partition
from cdt.search import _accept
from cdt.verify import Sweep
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


def test_best_up_to_levels_match_golden():
    report = best_up_to(8, 5, 3, 3)
    got = [(lv.n, lv.graphs_enumerated, lv.max_clique_count, lv.witnesses) for lv in report.levels]
    assert got == GOLDEN_LEVELS_8_5_3_3
    assert report.best_density == Fraction(15, 8)
    assert report.best_n == 8
    assert report.meets_exact is True


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


def test_cap_enforced():
    with pytest.raises(CapExceeded):
        level_graphs(12, 3, 3)
    with pytest.raises(CapExceeded):
        best_up_to(12, 3, 3, 3)
    with pytest.raises(CapExceeded):
        level_graphs(17, 3, 3, cap=17)  # hard cap wins


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


@pytest.mark.parametrize("dmax, omega", [(7, 8), (4, 3)])
def test_accept_matches_reference_and_hands_over_the_group(dmax, omega):
    parents = []
    enumerate_all_up_to(7, dmax, omega, lambda g: parents.append((g.n, g.adj)))
    decided = handed = 0
    for n, adj in parents:
        for child in _degree_candidates(n, adj, dmax):
            got = _accept(n + 1, child)
            assert bool(got) == _reference_accept(n + 1, child), child
            if got:
                decided += 1
                if got[0] is not None:
                    handed += 1
                    assert got[0] == canon_raw(n + 1, child)[2], child
    assert decided > handed > 0


def _last_cell(colors):
    last = max(colors)
    return {v for v, c in enumerate(colors) if c == last}


def test_watched_refinement_decides_as_the_full_one():
    rng = random.Random(9)
    graphs = []
    enumerate_all_up_to(7, 7, 8, lambda g: graphs.append((g.n, g.adj)))
    stopped = 0
    for n, adj in graphs:
        starts = [None, [rng.randrange(n) for _ in range(n)], [rng.randrange(3) for _ in range(n)]]
        for colors in starts:
            full = refine_colors(n, adj, None if colors is None else list(colors))
            cell = _last_cell(full)
            for v in range(n):
                got = refine_colors(n, adj, None if colors is None else list(colors), watch=v)
                if got == full:
                    continue
                stopped += 1
                # stopped early: the vertex is decided, and as the full
                # refinement decides it
                early = _last_cell(got)
                assert v not in early or early == {v}, (adj, colors, v)
                assert (v in early) == (v in cell), (adj, colors, v)
                assert (early == {v}) == (cell == {v}), (adj, colors, v)
    assert stopped > 0


# -- maxima ---------------------------------------------------------------

def test_max_density_triangle_free_degree_two():
    lv = best_up_to(5, 2, 3, 3).level(5)
    assert lv.max_density == Fraction(1, 5)  # a 5-cycle cannot hold a triangle; C3+2K1 can
    assert len(lv.witnesses) >= 1


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
    assert report.meets_exact is True
    lv = report.level(5)
    assert lv.witnesses == (canonical_form(turan_graph(5, 4)),)


def test_best_up_to_tiny_class():
    report = best_up_to(3, 2, 3, 3)
    assert report.best_density == Fraction(1, 3)  # the triangle
    assert report.best_n == 3


def test_best_up_to_small_sizes_capped_by_lower_bound():
    # at up to dmax + a vertices nothing beats the lower bound graph
    for dmax, omega in [(3, 3), (4, 3), (5, 4)]:
        a = (dmax // (omega - 1))
        report = best_up_to(dmax + a, dmax, omega, 3)
        assert report.best_density == lower_bound(3, dmax, omega)
        assert report.meets_lower_bound is True


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


# -- neighborhood classifications ----------------------------------------------

def test_neighborhood_lemmas_small_r():
    report = verify_neighborhood_lemmas([3, 4])
    assert report.ok
    names = {(c.name, c.r) for c in report.checks}
    assert ("three-max-cliques", 3) in names
    assert ("three-covers-of-size-two", 4) in names


def test_neighborhood_lemmas_reject_small_r_before_enumerating(monkeypatch):
    monkeypatch.setattr("cdt.verify.enumerate_all_up_to", lambda *args: pytest.fail("enumerated"))
    with pytest.raises(ValueError):
        verify_neighborhood_lemmas([6, 2])


def test_neighborhood_lemma_expected_sets_are_two_graphs():
    report = verify_neighborhood_lemmas([4])
    for c in report.checks:
        if c.name == "three-max-cliques":
            assert len(c.expected) == 2
            assert c.found == c.expected


# -- probes -----------------------------------------------------------------------

def test_probe_bt3_small_cap():
    out = probe_conjecture("bt3", 8)
    assert out["target"] == bt_density(3) == Fraction(40, 11)
    assert out["beaten_at"] == []
    assert out["pruned"] is True


def test_probe_rejects_unknown_name():
    with pytest.raises(ValueError):
        probe_conjecture("nonsense", 5)


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
