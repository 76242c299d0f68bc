"""Acceptance suite: one test per criterion, exact tolerances, with a
PASS/FAIL line printed per criterion (run with -s or -v to see them).

Criterion 9 runs the stacked-visitor sweep of `cdt.verify` over every
isomorphism class on up to 9 vertices.
"""

import sys
import time
from fractions import Fraction

from cdt import (
    best_up_to,
    bt_graph,
    canonical_form,
    clique_size_counts,
    g_star,
    lower_bound,
    probe_conjecture,
    rho_monotone_check,
    turan_clique_count,
    turan_density,
    turan_graph,
    upper_bound,
    verify_neighborhood_lemmas,
)
from cdt.verify import Sweep


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
    assert sweep.handshake_bad == []
    assert sweep.ceiling_bad == []
    assert sweep.equality_without_turan_neighborhood == []
    assert sweep.seven_neighbor_bad == []
    assert sweep.config_overlap_bad == []
    assert sweep.detach_bad == []

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
    report = verify_neighborhood_lemmas([3, 4, 5, 6])
    by_key = {(c.name, c.r): c for c in report.checks}
    for r in (3, 4, 5):
        check = by_key[("three-max-cliques", r)]
        assert check.ok
        assert len(check.found) == 2  # exactly the two classified graphs
    for r in (5, 6):
        assert by_key[("cover-window", r)].ok
        assert by_key[("near-max-weight-window", r)].ok
        assert by_key[("three-covers-of-size-two", r)].ok


# -- criterion 11 --------------------------------------------------------------------

@_crit(11, "Turan density is monotone in n up to 200 for all small part counts", 5)
def test_criterion_11_monotonicity():
    for omega in range(1, 13):
        for t in range(2, omega + 1):
            assert rho_monotone_check(omega, t, 200), (omega, t)


# -- criterion 12 ---------------------------------------------------------------------

@_crit(12, "conjecture probe: nothing in the degree-7 triangle class beats 40/11 (n <= 10)", 1800)
def test_criterion_12_bt3_probe():
    out = probe_conjecture("bt3", 10)
    assert out["target"] == Fraction(40, 11)
    assert out["beaten_at"] == []
    print(f"  bt3 probe to n=10: ties at {sorted(out['ties_at'])}, "
          f"wall {out['wall_time']:.1f}s")


@_crit(12, "conjecture probe to n = 11: nothing beats 40/11, bt_graph(3) the unique tie at 11", 600)
def test_criterion_12_bt3_probe_n11():
    out = probe_conjecture("bt3", 11)
    assert out["beaten_at"] == []
    assert out["unique_best_at_11"] is True
    print(f"  bt3 probe to n=11: ties at {sorted(out['ties_at'])}, "
          f"wall {out['wall_time']:.1f}s")
