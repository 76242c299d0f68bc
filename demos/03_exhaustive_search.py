#!/usr/bin/env python3
"""Reproduce the three individually proven optimal densities by
isomorph-free exhaustive search, and watch the per-size maxima climb
to them.

Runs in well under a minute; the searches enumerate every graph in the
class up to the stated size, one representative per isomorphism class.
"""

from fractions import Fraction

from cdt import best_up_to, bt_graph, canonical_form, g_star, turan_graph

CASES = [
    ("degree <= 5, clique <= 3, triangles", 8, 5, 3, 3, Fraction(15, 8), bt_graph(2)),
    ("degree <= 5, clique <= 4, triangles", 7, 5, 4, 3, Fraction(16, 7), g_star()),
    ("degree <= 6, clique <= 5, triangles", 8, 6, 5, 3, Fraction(4), turan_graph(8, 4)),
]

for label, n_max, dmax, omega, t, expected, witness in CASES:
    print(f"{label}: search all classes up to {n_max} vertices")
    report = best_up_to(n_max, dmax, omega, t)
    for lv in report.levels:
        marker = "  <- optimum" if lv.max_density == expected else ""
        print(f"  n={lv.n}: {lv.graphs_enumerated:6d} graphs, "
              f"best k_{t}/n = {lv.max_density}{marker}")
    assert report.best_density == expected
    want = canonical_form(witness)
    got = report.level(report.best_n).witnesses
    print(f"  best witness(es): {', '.join(got)}  "
          f"(expected construction: {want}, found: {want in got})")
    print(f"  wall time {report.wall_time:.1f}s")
    print()
