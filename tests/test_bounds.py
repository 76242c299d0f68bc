"""Closed-form Turan counts, the bound pair, constructions, registry."""

from fractions import Fraction
from math import comb

import pytest

from cdt import (
    asymptotic_leading,
    bounds_report,
    bt_density,
    bt_graph,
    clique_count,
    clique_number,
    clique_size_counts,
    complement,
    complete_graph,
    conjectured_value,
    density,
    exact_value,
    g_star,
    is_isomorphic,
    lower_bound,
    lower_bound_graph,
    max_degree,
    rho_monotone_check,
    turan_clique_count,
    turan_density,
    turan_graph,
    upper_bound,
)


# -- shapes and closed form ------------------------------------------------

def _components(g):
    """Vertex sets of g's connected components, as bitsets, in order of
    their smallest vertex."""
    seen, comps = 0, []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp, frontier = 0, 1 << v
        while frontier:
            comp |= frontier
            reach = 0
            for u in range(g.n):
                if frontier >> u & 1:
                    reach |= g.adj[u]
            frontier = reach & ~comp
        seen |= comp
        comps.append(comp)
    return comps


def test_turan_graph_parts_are_balanced():
    # T(n, r) is complete multipartite: its complement is a disjoint union
    # of cliques, one per part
    for n in range(0, 13):
        for r in range(1, 9):
            co = complement(turan_graph(n, r))
            parts = _components(co)
            for p in parts:
                assert all(co.adj[v] | 1 << v == p for v in range(n) if p >> v & 1)
            sizes = [p.bit_count() for p in parts]
            q, c = divmod(n, r)
            # vertices are numbered part by part, the c larger parts first
            assert sizes == [s for s in [q + 1] * c + [q] * (r - c) if s]
    assert [p.bit_count() for p in _components(complement(turan_graph(7, 3)))] == [3, 2, 2]
    assert [p.bit_count() for p in _components(complement(turan_graph(8, 4)))] == [2, 2, 2, 2]


def test_turan_constructions_reject_bad_shapes():
    for call in (lambda: turan_graph(3, 0), lambda: turan_clique_count(3, 0, 2)):
        with pytest.raises(ValueError, match="Turan graphs need at least one part"):
            call()
    for call in (lambda: turan_graph(-1, 2), lambda: turan_clique_count(-1, 2, 2)):
        with pytest.raises(ValueError, match="vertex count must be non-negative"):
            call()
    with pytest.raises(ValueError, match="clique size must be non-negative"):
        turan_clique_count(3, 0, -1)


def test_turan_graph_extremes():
    assert turan_graph(5, 1).edge_count() == 0
    assert turan_graph(5, 5) == complete_graph(5)
    assert turan_graph(8, 4).edge_count() == 24


def test_turan_graph_more_parts_than_vertices():
    assert turan_graph(3, 7) == complete_graph(3)


def test_closed_form_vs_direct_count_small():
    for n in range(1, 10):
        for r in range(1, n + 1):
            counts = clique_size_counts(turan_graph(n, r))
            for t in range(0, n + 1):
                assert turan_clique_count(n, r, t) == counts[t]


def test_closed_form_conventions():
    assert turan_clique_count(7, 3, 3) == 12
    assert turan_clique_count(8, 4, 3) == 32
    assert turan_clique_count(9, 4, 1) == 9
    assert turan_clique_count(9, 4, 0) == 1
    assert turan_clique_count(6, 3, 4) == 0  # more vertices than parts


# -- lower bound graph ---------------------------------------------------------

def test_lower_bound_graph_examples():
    assert is_isomorphic(lower_bound_graph(5, 3), turan_graph(7, 3))
    assert is_isomorphic(lower_bound_graph(6, 4), turan_graph(8, 4))
    for omega in range(2, 7):
        assert is_isomorphic(lower_bound_graph(omega - 1, omega), complete_graph(omega))


def test_lower_bound_graph_order():
    # T(dmax + floor(dmax / (omega - 1)), omega): the largest Turan graph
    # with omega parts and maximum degree dmax
    for dmax in range(1, 31):
        for omega in range(2, dmax + 2):
            g = lower_bound_graph(dmax, omega)
            assert g.n == dmax + dmax // (omega - 1)
            assert max_degree(g) == dmax
            assert max_degree(turan_graph(g.n + 1, omega)) > dmax


def test_lower_bound_graph_blames_the_degree_bound():
    # a degree bound below 1 clamps the effective clique bound below 2:
    # the error must name the bound that is wrong
    for dmax, omega in ((0, 2), (-1, 3)):
        with pytest.raises(ValueError, match="degree bound must be at least 1"):
            lower_bound_graph(dmax, omega)


def test_lower_bound_graph_attains_degree_and_density():
    for dmax in range(1, 20):
        for omega in range(2, dmax + 2):
            if dmax + dmax // (omega - 1) > 20:
                continue
            g = lower_bound_graph(dmax, omega)
            assert max_degree(g) == dmax
            assert clique_number(g) == omega
            for t in range(2, min(omega, 6) + 1):
                assert density(g, t) == lower_bound(t, dmax, omega)


# -- bound pair ------------------------------------------------------------------

def test_bound_values_5_3():
    assert lower_bound(3, 5, 3) == Fraction(12, 7)
    assert upper_bound(3, 5, 3) == Fraction(2)
    # the proven optimum sits strictly between
    assert Fraction(12, 7) < Fraction(15, 8) < Fraction(2)


def test_bounds_agree_when_divisible():
    for dmax in range(1, 31):
        for omega in range(2, 11):
            if dmax % (omega - 1):
                continue
            for t in range(2, omega + 1):
                assert lower_bound(t, dmax, omega) == upper_bound(t, dmax, omega)


def test_sandwich_everywhere():
    for dmax in range(1, 21):
        for omega in range(2, dmax + 2):
            for t in range(2, omega + 1):
                assert lower_bound(t, dmax, omega) <= upper_bound(t, dmax, omega)


def test_upper_bound_zero_above_clique_bound():
    for omega in range(2, 6):
        for t in range(omega + 1, omega + 4):
            assert upper_bound(t, 7, omega) == 0


def test_inactive_clique_bound_is_clamped():
    # clique bounds above dmax+1 change nothing
    assert lower_bound(3, 4, 9) == lower_bound(3, 4, 5)
    assert upper_bound(3, 4, 9) == upper_bound(3, 4, 5)


def test_asymptotic_leading_formulas():
    for dmax in range(2, 30):
        assert asymptotic_leading(3, dmax, 3) == Fraction(dmax * dmax, 12)
        assert asymptotic_leading(2, dmax, 5) == Fraction(dmax, 2)


def test_asymptotic_leading_clamps_inactive_clique_bound():
    assert asymptotic_leading(3, 4, 9) == asymptotic_leading(3, 4, 5) == 2
    assert asymptotic_leading(3, 2, 10) == Fraction(1, 3) == lower_bound(3, 2, 10)
    for t in range(2, 7):
        for dmax in range(1, 13):
            for omega in range(2, 17):
                assert asymptotic_leading(t, dmax, omega) == asymptotic_leading(
                    t, dmax, min(omega, dmax + 1))


def test_bound_ratio_approaches_one():
    for dmax, tol in ((101, Fraction(101, 100)), (1001, Fraction(1001, 1000))):
        lo = lower_bound(3, dmax, 3)
        hi = upper_bound(3, dmax, 3)
        assert hi / lo <= tol
    assert lower_bound(3, 101, 3) == Fraction(127500, 151)
    assert upper_bound(3, 101, 3) == 850


def test_asymptotic_matches_lower_bound_in_the_limit():
    for dmax in (100, 1000):
        ratio = asymptotic_leading(3, dmax, 3) / lower_bound(3, dmax, 3)
        assert abs(ratio - 1) <= Fraction(2, dmax)


def test_density_identity_used_for_limits():
    for omega in range(1, 31):
        for t in range(1, omega + 1):
            assert Fraction(comb(omega, t), omega) == Fraction(comb(omega - 1, t - 1), t)


def test_monotone_in_n():
    assert rho_monotone_check(3, 3, 200)
    assert rho_monotone_check(1, 2, 50)
    assert rho_monotone_check(10, 7, 200)


# -- constructions ------------------------------------------------------------------

def test_bt_graph_shape():
    for k in (2, 3, 4):
        g = bt_graph(k)
        assert g.n == 3 * k + 2
        assert max_degree(g) == 2 * k + 1
        assert clique_number(g) == 3


def test_bt_density_matches_graph():
    for k in (2, 3, 4):
        assert density(bt_graph(k), 3) == bt_density(k)
    assert bt_density(2) == Fraction(15, 8)
    assert bt_density(3) == Fraction(40, 11)


def test_bt3_beats_turan():
    assert bt_density(3) > turan_density(10, 3, 3) == Fraction(18, 5)


def test_gstar_shape_and_density():
    g = g_star()
    assert g.n == 7
    assert g.edge_count() == 17
    assert max_degree(g) == 5
    assert clique_number(g) == 4
    assert clique_count(g, 3) == 16
    assert density(g, 3) == Fraction(16, 7)


# -- exact value registry --------------------------------------------------------------

def test_registry_special_triples():
    ev = exact_value(3, 5, 3)
    assert ev.value == Fraction(15, 8)
    assert is_isomorphic(ev.witness, bt_graph(2))
    ev = exact_value(3, 5, 4)
    assert ev.value == Fraction(16, 7)
    assert is_isomorphic(ev.witness, g_star())
    ev = exact_value(3, 6, 5)
    assert ev.value == 4
    assert is_isomorphic(ev.witness, turan_graph(8, 4))


def test_registry_degree_equals_clique_bound():
    for r in range(3, 8):
        for t in range(3, r + 1):
            ev = exact_value(t, r, r)
            assert ev is not None
            assert ev.value == turan_density(r + 1, r, t)
            assert is_isomorphic(ev.witness, turan_graph(r + 1, r))


def test_registry_degree_one_above_clique_bound():
    ev = exact_value(5, 6, 5)
    assert ev.value == Fraction(4, 7)
    ev = exact_value(4, 6, 5)
    assert ev.value == Fraction(16, 7)
    for r in range(4, 9):
        assert exact_value(r, r + 1, r).value == Fraction(4, r + 2)
    for r in range(5, 9):
        assert exact_value(r - 1, r + 1, r).value == Fraction(4 * r - 4, r + 2)


def test_registry_range_side_conditions():
    assert exact_value(3, 7, 3) is None  # conjectured only
    # at degree 5, clique bound 4, the t = omega - 1 row needs omega >= 5;
    # the individually proven triple covers it instead, and beats the
    # balanced construction (16/7 > 2)
    assert exact_value(3, 5, 4).value == Fraction(16, 7)
    assert exact_value(2, 3, 3).value == Fraction(3, 2)  # edges: the handshake row
    assert exact_value(4, 4, 3) is None  # above the clique bound, no theorem row
    assert exact_value(2, 5, 5).value == Fraction(5, 2)
    assert exact_value(2, 4, 5).provenance == "divisibility"  # 4 mod (5-1) == 0


def test_registry_edges_row_is_half_the_degree_bound():
    for dmax in range(1, 9):
        for omega in range(2, 10):
            ev = exact_value(2, dmax, omega)
            assert ev.value == Fraction(dmax, 2) == upper_bound(2, dmax, omega)
            assert ev.provenance in ("divisibility", "handshake")
    ev = exact_value(2, 3, 3)
    assert ev.provenance == "handshake"
    assert is_isomorphic(ev.witness, turan_graph(6, 2))  # K_{3,3}


def test_registry_witness_is_none_beyond_64_vertices():
    ev = exact_value(3, 100, 3)  # T(150, 3): three parts of 50
    assert (ev.value, ev.witness, ev.provenance) == (Fraction(2500, 3), None, "divisibility")
    assert exact_value(2, 41, 3).witness is None  # K_{41,41}
    assert exact_value(3, 70, 70).witness is None  # T(71, 70)
    rep = bounds_report(3, 100, 3)
    assert (rep.exact, rep.witness) == (Fraction(2500, 3), None)
    rep = bounds_report(5, 100, 4)  # no registry row; the sandwich pins 0 with T(133, 4)
    assert (rep.exact, rep.witness, rep.provenance) == (0, None, "none")
    assert bounds_report(3, 32, 3).witness is not None  # T(48, 3) fits
    assert exact_value(3, 62, 32).witness == turan_graph(64, 32)  # fits exactly


def test_registry_witness_density_matches_value():
    for (t, dmax, omega) in [
        (3, 5, 3), (3, 5, 4), (3, 6, 5), (3, 4, 4), (4, 5, 4),
        (5, 6, 5), (4, 6, 5), (2, 4, 3), (3, 6, 4), (4, 9, 4),
    ]:
        ev = exact_value(t, dmax, omega)
        if ev is None:
            continue
        assert density(ev.witness, t) == ev.value
        assert max_degree(ev.witness) <= dmax
        assert clique_number(ev.witness) <= omega


def test_registry_rows_are_the_bound_they_make_tight():
    lower_rows = {"divisibility", "delta-eq-omega", "delta-eq-omega-plus-one"}
    graphs = {}
    for dmax in range(1, 41):
        for omega in range(2, 42):
            order = dmax + dmax // (min(omega, dmax + 1) - 1)
            for t in range(2, 9):
                ev = exact_value(t, dmax, omega)
                if ev is None or ev.provenance == "special-triple":
                    continue
                if ev.provenance == "handshake":
                    assert ev.value == upper_bound(2, dmax, omega)
                    continue
                assert ev.provenance in lower_rows
                assert ev.value == lower_bound(t, dmax, omega)
                if order > 64:
                    assert ev.witness is None
                else:
                    if (dmax, omega) not in graphs:
                        graphs[dmax, omega] = lower_bound_graph(dmax, omega)
                    assert ev.witness == graphs[dmax, omega]


def test_conjectured_values():
    assert conjectured_value(3, 7, 3) == Fraction(40, 11)
    assert conjectured_value(3, 9, 3) is None
    assert conjectured_value(4, 7, 3) is None


# -- aggregated report --------------------------------------------------------------------

def test_report_5_3():
    rep = bounds_report(3, 5, 3)
    assert (rep.lower, rep.upper, rep.exact) == (Fraction(12, 7), 2, Fraction(15, 8))
    assert rep.provenance == "special-triple"
    assert is_isomorphic(rep.witness, bt_graph(2))


def test_report_divisible():
    rep = bounds_report(3, 6, 4)
    assert rep.lower == rep.upper == rep.exact == 4
    assert rep.provenance == "divisibility"


def test_report_divisible_8_3():
    rep = bounds_report(3, 8, 3)
    assert rep.lower == rep.upper == rep.exact
    assert rep.provenance == "divisibility"


def test_report_conjecture_note():
    rep = bounds_report(3, 7, 3)
    assert rep.exact is None
    assert rep.lower == Fraction(18, 5)
    assert rep.upper == 4
    assert rep.conjecture == Fraction(40, 11)


def test_report_clamps_inactive_clique_bound():
    rep = bounds_report(3, 2, 9)
    assert rep.clamped and rep.omega_effective == 3
    assert rep.exact == Fraction(1, 3)  # a triangle per 3 vertices


def test_report_trivial_zero_above_clique_bound():
    rep = bounds_report(5, 6, 4)
    assert rep.lower == rep.upper == rep.exact == 0
    assert rep.witness is not None


def test_report_invariants_sweep():
    for dmax in range(1, 9):
        for omega in range(2, 10):
            for t in range(2, 7):
                rep = bounds_report(t, dmax, omega)
                assert rep.lower <= rep.upper
                if rep.exact is not None:
                    assert rep.lower <= rep.exact <= rep.upper
                    w = rep.witness
                    assert density(w, t) == rep.exact
                    assert max_degree(w) <= dmax
                    assert clique_number(w) <= omega
