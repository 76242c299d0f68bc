"""Canonical forms: permutation invariance, class separation, orbits.

The oracle throughout is permutation brute force, which is feasible up
to 6 vertices and keeps these checks independent of the refinement
machinery under test.  The refinement itself is checked against
`_reference_refine`, the earlier tuple-keyed implementation kept here
verbatim, and the labelling search against `_reference_canon`, the
search without backjumps, also kept verbatim.
"""

import random
from itertools import permutations
from typing import Optional, Sequence

from cdt import (
    build_graph,
    canonical_form,
    complement,
    enumerate_all_up_to,
    canonical_graph,
    graph6_decode,
    graph6_encode,
    complete_graph,
    cycle_graph,
    empty_graph,
    is_isomorphic,
    path_graph,
    relabel,
    turan_graph,
    union,
)
from cdt.bounds import bt_graph, g_star
from cdt.canon import (
    automorphism_generators,
    automorphism_orbits,
    canon_raw,
    refine_colors,
    _orbit_find,
    _orbit_partition,
    _permutation_between,
)

from helpers import all_labeled_graphs, brute_canonical, random_graph, random_permutation


TEST_GRAPHS = [
    empty_graph(0),
    empty_graph(7),
    complete_graph(7),
    cycle_graph(8),
    path_graph(6),
    turan_graph(8, 4),
    turan_graph(7, 3),
    union(complete_graph(3), complete_graph(3)),
    bt_graph(2),
    g_star(),
]


def test_invariance_under_100_random_permutations_each():
    rng = random.Random(2024)
    for g in TEST_GRAPHS:
        want = canonical_form(g)
        for _ in range(100):
            h = relabel(g, random_permutation(g.n, rng))
            assert canonical_form(h) == want


def test_different_labelings_of_c4_agree():
    a = cycle_graph(4)
    b = relabel(a, [2, 0, 3, 1])
    assert a != b  # different labeled graphs
    assert canonical_form(a) == canonical_form(b)


def test_triangle_vs_path_distinct():
    assert canonical_form(complete_graph(3)) != canonical_form(path_graph(3))


def test_eleven_classes_on_four_vertices():
    # oracle: brute-force canonical form over all 64 labelings
    brute = {brute_canonical(g) for g in all_labeled_graphs(4)}
    fancy = {canonical_form(g) for g in all_labeled_graphs(4)}
    assert len(brute) == len(fancy) == 11


def test_canonical_form_refines_exactly_like_brute_force():
    # same partition into classes on all graphs with n <= 5
    for n in range(6):
        by_brute = {}
        for g in all_labeled_graphs(n):
            by_brute.setdefault(brute_canonical(g), set()).add(canonical_form(g))
        for forms in by_brute.values():
            assert len(forms) == 1
        assert len(by_brute) == len({f for s in by_brute.values() for f in s})


def test_canonical_form_is_graph6_of_an_isomorphic_graph():
    graphs = []
    enumerate_all_up_to(6, 6, 7, graphs.append)  # every class on <= 6 vertices
    graphs += [bt_graph(2), bt_graph(3), g_star(), turan_graph(12, 6)]
    for g in graphs:
        form = canonical_form(g)
        assert isinstance(form, str) and form == graph6_encode(canonical_graph(g))
        # the labelling is an explicit isomorphism: new vertex i is old lab[i]
        h, lab = graph6_decode(form), canon_raw(g.n, g.adj)[0]
        assert sorted(lab) == list(range(g.n))
        assert all(
            (h.adj[i] >> j & 1) == (g.adj[lab[i]] >> lab[j] & 1)
            for i in range(g.n) for j in range(g.n)
        ), form


def test_canonical_graph_is_isomorphic_relabeling():
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng.randint(1, 9), rng.random(), rng)
        h = canonical_graph(g)
        assert is_isomorphic(g, h)
        assert canonical_form(h) == canonical_form(g)


def test_is_isomorphic_matches_brute_force_on_pairs():
    rng = random.Random(17)
    graphs5 = [random_graph(5, rng.random(), rng) for _ in range(25)]
    for a in graphs5:
        for b in graphs5:
            assert is_isomorphic(a, b) == (brute_canonical(a) == brute_canonical(b))


def test_orbits_match_brute_force():
    def brute_orbits(g):
        parent = list(range(g.n))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for perm in permutations(range(g.n)):
            if tuple(relabel(g, perm).adj) == tuple(g.adj):
                for v in range(g.n):
                    a, b = find(v), find(perm[v])
                    if a != b:
                        parent[b] = a
        return [tuple(sorted(u for u in range(g.n) if find(u) == find(v))) for v in range(g.n)]

    rng = random.Random(23)
    cases = [random_graph(5, rng.random(), rng) for _ in range(40)]
    cases += [empty_graph(5), complete_graph(5), cycle_graph(5), turan_graph(6, 3)]
    for g in cases:
        got = automorphism_orbits(g)
        mine = [tuple(sorted(u for u in range(g.n) if got[u] == got[v])) for v in range(g.n)]
        assert mine == brute_orbits(g)


def _closure(n, gens):
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for gen in gens:
                q = tuple(gen[p[v]] for v in range(n))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def test_generators_generate_full_group():
    # closure of the discovered generators has the brute-force order
    def brute_order(g):
        return sum(
            1
            for perm in permutations(range(g.n))
            if tuple(relabel(g, perm).adj) == tuple(g.adj)
        )

    rng = random.Random(37)
    cases = [random_graph(6, rng.random(), rng) for _ in range(25)]
    cases += [empty_graph(6), complete_graph(6), cycle_graph(6), turan_graph(6, 3),
              union(complete_graph(3), complete_graph(3))]
    for g in cases:
        gens = automorphism_generators(g)
        assert len(_closure(g.n, gens)) == brute_order(g)


def test_highly_symmetric_graphs_stay_fast():
    # these would have factorial trees without orbit pruning
    for g in (empty_graph(12), complete_graph(12), turan_graph(12, 3), turan_graph(10, 5)):
        lab, form, gens = canon_raw(g.n, g.adj)
        parent = _orbit_partition(g.n, gens)
        assert len(set(parent)) <= 2  # at most two orbits in all four cases


def _reference_refine(n, adj, colors=None):
    """Tuple-keyed refinement that `refine_colors` must reproduce exactly."""
    if colors is None:
        colors = [0] * n
    if n == 0:
        return []
    while True:
        ids = sorted(set(colors))
        idx = {c: i for i, c in enumerate(ids)}
        masks = [0] * len(ids)
        for v in range(n):
            masks[idx[colors[v]]] |= 1 << v
        sigs = []
        for v in range(n):
            a = adj[v]
            sigs.append((idx[colors[v]], tuple((a & m).bit_count() for m in masks)))
        order = sorted(set(sigs))
        if len(order) == len(ids):
            # stable: no cell split, return the normalized ranks
            return [sigs[v][0] for v in range(n)]
        rank = {s: i for i, s in enumerate(order)}
        colors = [rank[sigs[v]] for v in range(n)]


def _every_graph_up_to_7():
    """Every class on <= 7 vertices, as generated and once relabeled,
    and every labeled graph on 1..5 vertices."""
    rng = random.Random(7)
    out = [g for n in range(1, 6) for g in all_labeled_graphs(n)]

    def visit(g):
        out.append(g)
        out.append(relabel(g, random_permutation(g.n, rng)))

    assert enumerate_all_up_to(7, 7, 8, visit) == 1252
    return out


def test_refine_colors_matches_reference():
    rng = random.Random(11)
    for g in _every_graph_up_to_7():
        assert refine_colors(g.n, g.adj) == _reference_refine(g.n, g.adj)
        # even colors with one odd, as canon_raw individualizes a vertex
        colors = [2 * rng.randrange(g.n) for _ in range(g.n)]
        colors[rng.randrange(g.n)] -= 1
        want = _reference_refine(g.n, g.adj, list(colors))
        assert refine_colors(g.n, g.adj, list(colors)) == want
        # already ranks, and the input list is left untouched
        before = list(want)
        assert refine_colors(g.n, g.adj, want) == _reference_refine(g.n, g.adj, before)
        assert want == before


def test_last_cell_holds_only_maximum_degree_vertices():
    # search._expand offers _accept only maximum-degree new vertices on
    # this invariant
    for g in _every_graph_up_to_7():
        colors = refine_colors(g.n, g.adj)
        degs = [a.bit_count() for a in g.adj]
        last = max(colors)
        assert all(degs[v] == max(degs) for v in range(g.n) if colors[v] == last)


def _reference_canon(
    n: int, adj: Sequence[int], colors: Optional[list[int]] = None
) -> tuple[list[int], tuple[int, ...], list[tuple[int, ...]]]:
    """Canonical labeling of a raw graph.

    Returns (lab, form, gens): lab[i] is the vertex placed at position
    i, form the relabeled adjacency rows (the canonical form), and gens
    a generating set of the automorphism group.
    """
    if n == 0:
        return [], (), []
    gens: list[tuple[int, ...]] = []
    first_form: Optional[tuple[int, ...]] = None
    first_lab: list[int] = []
    best_form: Optional[tuple[int, ...]] = None
    best_lab: list[int] = []

    def add_gen(lab_a: list[int], lab_b: list[int]) -> None:
        p = _permutation_between(lab_a, lab_b, n)
        if any(p[v] != v for v in range(n)) and p not in gens:
            gens.append(p)

    def handle_leaf(colors: list[int]) -> None:
        nonlocal first_form, first_lab, best_form, best_lab
        lab = [0] * n
        for v in range(n):
            lab[colors[v]] = v
        form_rows = []
        for i in range(n):
            a = adj[lab[i]]
            row = 0
            while a:
                low = a & -a
                a ^= low
                row |= 1 << colors[low.bit_length() - 1]
            form_rows.append(row)
        form = tuple(form_rows)
        if first_form is None:
            first_form = best_form = form
            first_lab = best_lab = lab
            return
        if form == first_form and lab != first_lab:
            add_gen(first_lab, lab)
        if form == best_form and lab != best_lab and best_lab is not first_lab:
            add_gen(best_lab, lab)
        if form < best_form:
            best_form, best_lab = form, lab

    def rec(colors: Optional[list[int]], base: list[int]) -> None:
        colors = refine_colors(n, adj, colors)
        ncolors = max(colors) + 1
        if ncolors == n:
            handle_leaf(colors)
            return
        counts = [0] * ncolors
        for c in colors:
            counts[c] += 1
        target = next(i for i in range(ncolors) if counts[i] > 1)
        cell = [v for v in range(n) if colors[v] == target]
        branched: list[int] = []
        # ``base`` is restored after each child and ``gens`` only grows,
        # so the stabilizer's orbits change only when a generator is new
        ngens = -1
        parent: Optional[list[int]] = None
        for v in cell:
            if branched:
                if len(gens) != ngens:
                    ngens = len(gens)
                    stab = [g for g in gens if all(g[b] == b for b in base)]
                    parent = _orbit_partition(n, stab) if stab else None
                if parent is not None:
                    rv = _orbit_find(parent, v)
                    if any(_orbit_find(parent, u) == rv for u in branched):
                        continue
            branched.append(v)
            child = [2 * c for c in colors]
            child[v] -= 1
            base.append(v)
            rec(child, base)
            base.pop()

    rec(colors, [])
    # rec holds itself through its closure cell; clearing the cell frees
    # the graph and the search state now, not at the next cyclic collection
    del rec
    assert best_form is not None
    return best_lab, best_form, gens


def _orbit_ids(n, gens):
    """Smallest vertex of each vertex's orbit, by a search over the
    generators' images."""
    ids = [-1] * n
    for s in range(n):
        if ids[s] < 0:
            ids[s] = s
            stack = [s]
            while stack:
                v = stack.pop()
                for g in gens:
                    if ids[g[v]] < 0:
                        ids[g[v]] = s
                        stack.append(g[v])
    return ids


def _circulants():
    """Vertex-transitive circulants C_n(1, k) on 8..16 vertices and
    C_n(1, k, m) on 9..14."""
    for n in range(8, 17):
        for jumps in [(1, k) for k in range(2, n // 2 + 1)] + [
            (1, k, m) for k in range(2, n // 2) for m in range(k + 1, n // 2 + 1) if n <= 14
        ]:
            yield build_graph(n, [(i, (i + j) % n) for i in range(n) for j in jumps])


def test_automorphism_orbits_match_generator_search():
    # equal ids must mean the same orbit: the union-find array is read
    # directly, so every entry has to point at its root
    rng = random.Random(19)
    for g in _circulants():
        for h in [g] + [relabel(g, random_permutation(g.n, rng)) for _ in range(3)]:
            got = automorphism_orbits(h)
            want = _orbit_ids(h.n, automorphism_generators(h))
            assert all((got[u] == got[v]) == (want[u] == want[v])
                       for u in range(h.n) for v in range(h.n))


def test_canon_raw_matches_reference():
    # backjumps skip images of explored subtrees: the labelling, the
    # form and the group must come out as without them
    rng = random.Random(13)
    graphs = []

    def visit(g):
        graphs.append(g)
        graphs.append(relabel(g, random_permutation(g.n, rng)))

    assert enumerate_all_up_to(7, 7, 8, visit) == 1252
    special = [turan_graph(12, 6), turan_graph(16, 4), turan_graph(15, 5),
               bt_graph(2), bt_graph(3), g_star()]
    graphs += special + [complement(g) for g in special]
    # relabeled circulants give deep trees in which a jump past the
    # divergence depth loses leaves
    for g in _circulants():
        graphs += [g, complement(g)]
        graphs += [relabel(g, random_permutation(g.n, rng)) for _ in range(3)]
    for g in graphs:
        n = g.n
        for colors in (None, refine_colors(n, g.adj)):
            lab, form, gens = canon_raw(n, g.adj, colors)
            ref_lab, ref_form, ref_gens = _reference_canon(n, g.adj, colors)
            assert form == ref_form
            assert lab == ref_lab
            orbits = _orbit_ids(n, gens)
            assert orbits == _orbit_ids(n, ref_gens)
            assert orbits[lab[n - 1]] == orbits[ref_lab[n - 1]]
            if n <= 7:
                assert _closure(n, gens) == _closure(n, ref_gens)
