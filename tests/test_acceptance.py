"""Acceptance suite: one test per criterion, exact tolerances, with a
PASS/FAIL line printed per criterion (run with -s or -v to see them).

Criterion 9 runs the stacked-visitor sweep of `cdt.verify` over every
isomorphism class on up to 9 vertices.
"""

import sys
import time
from fractions import Fraction

from cdt import (
    beat,
    best_up_to,
    bt_graph,
    build_graph,
    canonical_form,
    clique_size_counts,
    complement,
    g_star,
    is_isomorphic,
    lower_bound,
    rho_monotone_check,
    turan_clique_count,
    turan_density,
    turan_graph,
    upper_bound,
    verify_neighborhood_lemmas,
)
from cdt.verify import Sweep, _PATH4, _TRIANGLE


def _crit(num: int, desc: str, budget_s: float):
    """Wrap a criterion body: enforce the time budget, print the verdict.

    Verdict lines go to the real stdout so they survive pytest's
    capture: one pass/fail line per criterion, any invocation.
    """

    def deco(fn):
        def wrapper(*args, **kwargs):
            t0 = time.time()
            try:
                fn(*args, **kwargs)
            except Exception:
                print(f"FAIL criterion {num}: {desc} [{time.time() - t0:.1f}s]",
                      file=sys.__stdout__)
                raise
            dt = time.time() - t0
            assert dt < budget_s, f"criterion {num} overran its {budget_s}s budget ({dt:.1f}s)"
            print(f"PASS criterion {num}: {desc} [{dt:.1f}s]", file=sys.__stdout__)

        wrapper.__name__ = fn.__name__
        return wrapper

    return deco


# -- criterion 1 --------------------------------------------------------------

@_crit(1, "closed-form Turan clique counts match the direct counter up to n = 11", 30)
def test_criterion_1_closed_form_vs_oracle():
    for n in range(1, 12):
        for r in range(1, n + 1):
            counts = clique_size_counts(turan_graph(n, r))
            for t in range(0, n + 1):
                assert turan_clique_count(n, r, t) == counts[t], (n, r, t)


# -- criteria 2-4: the three individually proven triples -----------------------

@_crit(2, "degree 5 / clique 3: optimum 15/8 at n = 8, witness bt_graph(2)", 300)
def test_criterion_2_degree5_clique3():
    report = best_up_to(8, 5, 3, 3)
    assert report.best_density == Fraction(15, 8)
    lv = report.level(8)
    assert lv.max_density == Fraction(15, 8)
    assert canonical_form(bt_graph(2)) in lv.witnesses
    for other in report.levels:
        assert other.max_density <= Fraction(15, 8)


@_crit(3, "degree 5 / clique 4: optimum 16/7 at n = 7, witness g_star", 120)
def test_criterion_3_degree5_clique4():
    report = best_up_to(7, 5, 4, 3)
    lv = report.level(7)
    assert lv.max_density == Fraction(16, 7)
    assert canonical_form(g_star()) in lv.witnesses
    assert report.best_density == Fraction(16, 7)


@_crit(4, "degree 6 / clique 5: optimum 4 at n = 8, witness T(8,4)", 300)
def test_criterion_4_degree6_clique5():
    report = best_up_to(8, 6, 5, 3)
    lv = report.level(8)
    assert lv.max_density == 4
    assert canonical_form(turan_graph(8, 4)) in lv.witnesses
    assert report.best_density == 4


# -- criterion 5: degree equal to clique bound ----------------------------------

@_crit(5, "degree = clique bound r = 4, 5: search attains the Turan density exactly", 600)
def test_criterion_5_degree_equals_clique_bound():
    frozen = {(4, 3): Fraction(7, 5), (4, 4): Fraction(2, 5)}
    for r in (4, 5):
        for t in range(3, r + 1):
            expected = turan_density(r + 1, r, t)
            if (r, t) in frozen:
                assert expected == frozen[(r, t)]
            report = best_up_to(r + 2, r, r, t)
            assert report.best_density == expected, (r, t)
            assert canonical_form(turan_graph(r + 1, r)) in report.level(
                r + 1
            ).witnesses


# -- criterion 6 ------------------------------------------------------------------

@_crit(6, "degree 5 / clique 4 at t = 4: optimum 2/3 with witness T(6,4)", 300)
def test_criterion_6_largest_clique_size_row():
    report = best_up_to(8, 5, 4, 4)
    assert report.best_density == Fraction(2, 3)
    lv = report.level(6)
    assert lv.max_density == Fraction(2, 3)
    assert lv.witnesses == (canonical_form(turan_graph(6, 4)),)


# -- criteria 7-8: closed-form bound behavior ----------------------------------------

@_crit(7, "bounds coincide whenever the clique bound minus one divides the degree", 1)
def test_criterion_7_divisibility():
    hits = 0
    for dmax in range(1, 31):
        for omega in range(2, 11):
            if dmax % (omega - 1):
                continue
            for t in range(2, omega + 1):
                assert lower_bound(t, dmax, omega) == upper_bound(t, dmax, omega)
                hits += 1
    assert hits > 100


@_crit(8, "lower <= upper everywhere; ratio within 1.01 at degree 101, 1.001 at 1001", 1)
def test_criterion_8_sandwich_and_asymptotics():
    for dmax in range(1, 21):
        for omega in range(2, dmax + 2):
            for t in range(2, omega + 1):
                assert lower_bound(t, dmax, omega) <= upper_bound(t, dmax, omega)
    assert lower_bound(3, 101, 3) == Fraction(127500, 151)
    assert upper_bound(3, 101, 3) == 850
    assert upper_bound(3, 101, 3) / lower_bound(3, 101, 3) <= Fraction(101, 100)
    assert upper_bound(3, 1001, 3) / lower_bound(3, 1001, 3) <= Fraction(1001, 1000)


# -- criterion 9: the exhaustive lemma sweep -------------------------------------------

@_crit(9, "lemma suites by exhaustion over all graphs with up to 9 vertices", 1800)
def test_criterion_9_lemma_suites():
    from cdt import Graph

    sweep = Sweep(9).run()
    assert sweep.graphs_seen == sum((1, 2, 4, 11, 34, 156, 1044, 12346, 274668))
    assert sweep.bad["handshake"] == []
    assert sweep.bad["ceiling"] == []
    assert sweep.bad["equality"] == []
    assert sweep.bad["heavy-neighbour"] == []
    assert sweep.bad["configurations"] == []
    assert sweep.bad["detachability"] == []

    # Turan graphs maximize each clique count, uniquely when nonzero
    for (n, omega, t), (best, wits) in sorted(sweep.zykov.items()):
        expected = turan_clique_count(n, omega, t)
        assert best == expected, (n, omega, t)
        if expected > 0:
            forms = {canonical_form(Graph(n, adj)) for adj in wits}
            assert forms == {canonical_form(turan_graph(n, omega))}, (n, omega, t)

    # superadditivity of the per-size maxima
    for case, table in sweep.superadd.items():
        for x in range(1, 8):
            for y in range(x, 9 - x):
                assert table[x + y] >= table[x] + table[y], (case, x, y)
    assert all(check.ok for check in sweep.checks().values())


# -- criterion 10 --------------------------------------------------------------------

@_crit(10, "neighborhood classifications for r = 3..5 and cover windows for r = 5, 6", 600)
def test_criterion_10_neighborhood_classifications():
    rows = verify_neighborhood_lemmas([3, 4, 5, 6])
    assert all(row.ok for row in rows)
    assert [row.covered for row in rows] == [49, 52, 201, 208, 1234, 1252, 156, 208, 13546, 13598, 1044, 1252]
    by_key = {(row.name, row.scope): row for row in rows}
    for r in (3, 4, 5):
        assert by_key[("three-max-cliques", f"r = {r}, n = {r}..{r + 2}")].ok
        # the two classified graphs are distinct, so the ok row found exactly them
        pair = [complement(build_graph(r + 2, edges)) for edges in (_TRIANGLE, _PATH4)]
        assert not is_isomorphic(*pair)
    for r in (5, 6):
        assert by_key[("cover-window", f"r = {r}, n = {r + 1}")].ok
        assert by_key[("near-max-weight-window", f"r = {r}, n = 1..{r + 1}")].ok
        assert by_key[("three-covers-of-size-two", f"r = {r}, n = 1..{r + 2}")].ok


# -- criterion 11 --------------------------------------------------------------------

@_crit(11, "Turan density is monotone in n up to 200 for all small part counts", 5)
def test_criterion_11_monotonicity():
    for omega in range(1, 13):
        for t in range(2, omega + 1):
            assert rho_monotone_check(omega, t, 200), (omega, t)


# -- criterion 12 ---------------------------------------------------------------------

@_crit(12, "conjecture probe: nothing in the degree-7 triangle class beats 40/11 (n <= 10)", 1800)
def test_criterion_12_bt3_probe():
    res = beat(3, 7, 3, 10)
    assert res.target == Fraction(40, 11)
    assert res.beats == {}
    print(f"  bt3 probe to n=10: ties at {sorted(res.ties)}, "
          f"wall {res.report.wall_time:.1f}s")


@_crit(12, "conjecture probe to n = 11: nothing beats 40/11, bt_graph(3) the unique tie at 11", 600)
def test_criterion_12_bt3_probe_n11():
    res = beat(3, 7, 3, 11)
    assert res.beats == {}
    assert res.ties[11] == (canonical_form(bt_graph(3)),)
    print(f"  bt3 probe to n=11: ties at {sorted(res.ties)}, "
          f"wall {res.report.wall_time:.1f}s")


# -- criterion 13 ---------------------------------------------------------------------

@_crit(13, "search beats the Turan lower bound in four open degree-7 triples (n <= 10)", 600)
def test_criterion_13_degree_7_beats():
    # (t, dmax, omega, n_cap), the lower bound, and the one maximizer that beats it
    cases = [
        ((3, 7, 4, 10), Fraction(44, 9), "ILr~vv|~_", Fraction(5)),  # complement of 2 C_5
        ((3, 7, 5, 9), Fraction(19, 4), "HNz~v~}", Fraction(50, 9)),  # complement of P_3 + 3 K_2
        ((3, 7, 6, 9), Fraction(11, 2), "HNz~v~}", Fraction(50, 9)),
        ((4, 7, 5, 9), Fraction(7, 2), "HNz~v~}", Fraction(4)),
    ]
    for (t, dmax, omega, n_cap), target, g6, found in cases:
        res = beat(t, dmax, omega, n_cap)
        assert res.target == lower_bound(t, dmax, omega) == target
        assert res.beats == {n_cap: (g6,)}
        assert target < res.report.level(n_cap).max_density == found <= upper_bound(t, dmax, omega)
        print(f"  ({t},{dmax},{omega}) to n={n_cap}: {g6} has density {found} > {target}")
