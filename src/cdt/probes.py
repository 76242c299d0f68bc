"""Search-based probes of questions the paper leaves open: whether
bt_graph(3) is optimal in the degree-7 triangle class, and whether the
configuration-average estimate holds at r = 5."""

from __future__ import annotations

from math import comb
from typing import Optional

from .bounds import bt_density, bt_graph
from .canon import canonical_form
from .cliques import _per_vertex_size_counts, find_configurations
from .graphs import Graph, bits
from .search import best_up_to, enumerate_all_up_to


def probe_conjecture(
    name: str,
    n_cap: int,
    thread_count: int = 1,
    cap: Optional[int] = None,
) -> dict:
    """Search-based probe of an open question.

    "bt3": does anything in the degree-7 triangle-allowed class beat
    the triangle density (k+1)(k^2+1)/(3k+2) of bt_graph(3)?  Pruned by
    the sound per-vertex ceiling, which keeps every graph that ties or
    beats the target.
    """
    if name.strip() != "bt3":
        raise ValueError(f"unknown probe {name!r}")
    target = bt_density(3)
    report = best_up_to(
        n_cap, 7, 3, 3, thread_count=thread_count, prune_target=target, cap=cap
    )
    beaten = [lv.n for lv in report.levels if lv.max_density > target]
    ties = {lv.n: list(lv.witnesses) for lv in report.levels if lv.max_density == target}
    bt3_g6 = canonical_form(bt_graph(3)).decode("ascii")
    unique_at_11 = None
    if n_cap >= 11 and 11 in ties:
        unique_at_11 = ties[11] == [bt3_g6]
    return {
        "probe": "bt3",
        "n_cap": n_cap,
        "target": target,
        "beaten_at": beaten,
        "ties_at": ties,
        "bt3_graph6": bt3_g6,
        "unique_best_at_11": unique_at_11,
        "pruned": True,
        "note": "per-size maxima below the target are not exhaustive under pruning",
        "wall_time": report.wall_time,
    }


def probe_configuration_average(r: int = 5, n_cap: int = 8) -> dict:
    """Open-question probe: in the degree-r clique-r class, does the
    average triangle weight over a configuration (an (r+1)-set inducing
    a complete graph minus two edges) stay at or below C(r,2) - 3 per
    vertex, split by whether the two missing edges share a vertex?

    The incident case is proven for r >= 5; the non-incident case only
    for r >= 6, so at r = 5 this records what exhaustion finds.
    """
    bound = (r + 1) * (comb(r, 2) - 3)
    best = {"incident": None, "non-incident": None}

    def check(g: Graph) -> None:
        if g.n < r + 1:
            return
        configs = find_configurations(g, r)
        if not configs:
            return
        weights = _per_vertex_size_counts(g.n, g.adj)
        for cfg in configs:
            total = sum(weights[v][3] for v in bits(cfg.vertices))
            key = "incident" if cfg.incident else "non-incident"
            if best[key] is None or total > best[key][0]:
                best[key] = (total, canonical_form(g).decode("ascii"))

    enumerate_all_up_to(n_cap, r, r, check)
    out = {"r": r, "n_cap": n_cap, "claimed_bound": bound}
    for key, val in best.items():
        out[key] = {
            "max_total_weight": val[0] if val else None,
            "witness": val[1] if val else None,
            "within_bound": (val[0] <= bound) if val else None,
        }
    return out
