#!/usr/bin/env python3
"""Probe the open question for degree bound 7, clique bound 3: is the
triangle density 40/11 of bt_graph(3) optimal?

`beat(3, 7, 3, n)` searches exhaustively but prunes subtrees whose sound
upper bound (current count plus the per-vertex ceiling times the
vertices still to come) cannot reach 40/11, so every graph that ties or
beats the target survives.  Every witness it reports is recounted by a
subset scan.  Takes a few seconds at the default n = 10.
"""

import sys

from cdt import beat, bt_graph, canonical_form

n_cap = int(sys.argv[1]) if len(sys.argv) > 1 else 10

print(f"searching the degree-7 triangle-allowed class up to {n_cap} vertices...")
res = beat(3, 7, 3, n_cap)
print(f"target: max(lower bound, conjectured value) = {res.target} (~{float(res.target):.4f})")

if res.beats:
    print(f"COUNTEREXAMPLE sizes: {sorted(res.beats)}")
else:
    print(f"no graph on up to {n_cap} vertices beats {res.target}")
print(f"sizes tying the target: {sorted(res.ties)}")
for n, wits in sorted(res.ties.items()):
    print(f"  n={n}: {list(wits)}")
if n_cap >= 11:
    print(f"bt_graph(3) ({canonical_form(bt_graph(3))}) unique best at n=11: "
          f"{res.ties.get(11) == (canonical_form(bt_graph(3)),)}")
print(f"wall time {res.report.wall_time:.1f}s (maxima below the target are not exhaustive under pruning)")
