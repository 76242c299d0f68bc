"""Canonical labeling by individualization and refinement.

The labeling tree follows the classic scheme: refine the vertex
coloring to the coarsest equitable partition, individualize one vertex
of the first non-singleton cell, repeat.  Leaves are discrete colorings
i.e. labelings; the canonical form is the lexicographic minimum of the
relabeled adjacency rows over all leaves.

Two labelings that produce the same adjacency string differ by an
automorphism, so every coincidence at a leaf yields a generator.  Cell
elements already known to be equivalent (under the discovered group
elements fixing the current individualization prefix pointwise) are
skipped, which collapses the factorial blow-up on highly symmetric
graphs such as edgeless or complete multipartite ones.

The search also jumps back (McKay & Piperno, "Practical graph
isomorphism, II", 2014).  The path of individualized vertices is
recorded for the first leaf and for the best leaf.  When a later leaf
has the same form as one of them, the automorphism g between the two
maps the stored path onto the current one (a leaf's labeling
determines its path, and the tree is invariant under automorphisms).
Let d be the first depth where the paths differ: g fixes the common
prefix and maps the stored path's subtree at depth d+1, explored
earlier, onto the current one, so the rest of the current subtree
holds only images of leaves already seen and the search resumes at
depth d.  A jump is taken only after checking that g maps the stored
path onto the current one up to depth d.  Every skipped leaf has the
form of an earlier leaf, so the smallest form, and the first leaf that
attains it, are the same as without jumps.  Fewer generators are
found, but every automorphism a skipped leaf would have given lies in
the group generated by g and the automorphisms the explored subtree
gave, so they generate the same group.

Refinement keys a vertex by its old color and its neighbor counts in
the fresh cells only: those the previous round created, less the last
fragment of each cell it split.  Every vertex of a current cell had
the same key last round, so it has the same count in every older cell;
the last fragment's count is the old cell's count minus the other
fragments' counts, which come earlier in the key.  So the counts left
out are constant within a cell or decided by earlier digits, and the
new ranks are exactly those of keying on every cell.  The key is
packed into one int, in base n+1 with the old color as the leading
digit: every entry is at most n and all keys of a round have the same
length, so numeric order is the lexicographic order of the
(color, counts...) tuples, and sorting ints replaces sorting tuples.
Refinement enters at the unit coloring, whose first round ranks the
degrees, or at an equitable coloring with one vertex individualized,
which splits only its own cell: a child of the labeling tree starts
with one fresh cell, the vertex itself.

Everything here works on raw (n, adjacency-row tuple) pairs so the
enumeration engine can stay allocation-light; thin wrappers accept
Graph values.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .graphs import Graph, graph6_encode


def refine_colors(
    n: int,
    adj: Sequence[int],
    colors: Optional[list[int]] = None,
    *,
    split: int = -1,
) -> list[int]:
    """Coarsest equitable coloring, from one of two entries:
    ``refine_colors(n, adj)`` refines the unit coloring, and
    ``refine_colors(n, adj, colors, split=v)`` refines ``colors``, which
    must be equitable and in ranks, with ``v`` individualized (put first
    in its cell), as `canon_raw` does for a child of the labeling tree.
    A ``colors`` argument comes only with ``split``.

    Color ids are ranks 0..k-1 assigned in an isomorphism-invariant
    order: vertices are re-keyed each round by (old color, neighbor
    count per color class) and the sorted distinct keys become the new
    ids.  The synchronous update keeps the cell order canonical.  Only
    the counts in the cells the previous round made are computed; the
    module docstring shows why the others cannot change the ranks.

    From the unit coloring the first round ranks vertices by degree,
    ascending, and every later round keeps the old color as the
    primary key, so the last cell holds only maximum-degree vertices.
    The canonical-parent rule relies on this: `cdt.search._expand`
    offers `_accept` only children whose new vertex has maximum degree.
    """
    if split < 0:
        # round one keys the unit coloring by degree: every old color
        # is 0, so every cell but the last (maximum degree) is fresh
        sigs = [a.bit_count() for a in adj]
        shift = n + 1
    else:
        # keys (old color, not split itself, adjacent to split) in base
        # 2: split's own cell is the one fresh cell, and the keys' leading
        # digits 2c and 2c+1 tell split from the rest of its cell c
        sigs = [4 * c + 2 + (a >> split & 1) for c, a in zip(colors, adj)]
        sigs[split] = 4 * colors[split]
        shift = 2
    base = n + 1
    order = sorted(set(sigs))
    while True:
        # rank the last round's keys; a new cell is fresh unless it is
        # the last one with its old color, the leading digit
        k = len(order)
        rank = {}
        fresh = []
        prev = -1
        for i, s in enumerate(order):
            rank[s] = i
            old = s // shift
            if old == prev:
                fresh.append(i - 1)
            prev = old
        colors = [rank[s] for s in sigs]
        if not fresh or k == n:
            break
        masks = [0] * k
        for v in range(n):
            masks[colors[v]] |= 1 << v
        masks = [masks[i] for i in fresh]
        sigs = []
        for v in range(n):
            a = adj[v]
            key = colors[v]
            for m in masks:
                key = key * base + (a & m).bit_count()
            sigs.append(key)
        order = sorted(set(sigs))
        if len(order) == k:
            break  # stable: no cell split
        shift = base ** len(masks)
    return colors


def _permutation_between(lab_a: list[int], lab_b: list[int], n: int) -> tuple[int, ...]:
    """Vertex permutation sending lab_a's labeling onto lab_b's."""
    p = [0] * n
    for i in range(n):
        p[lab_a[i]] = lab_b[i]
    return tuple(p)


def _orbit_find(parent: list[int], v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _orbit_merge(parent: list[int], g: tuple[int, ...]) -> None:
    """Join each vertex's orbit with its image's under ``g``."""
    for v in range(len(parent)):
        a, b = _orbit_find(parent, v), _orbit_find(parent, g[v])
        if a != b:
            parent[b] = a


def _orbit_partition(n: int, gens: list[tuple[int, ...]]) -> list[int]:
    """The root of each vertex's orbit under the group generated by
    ``gens``: equal entries mean the same orbit."""
    parent = list(range(n))
    for g in gens:
        _orbit_merge(parent, g)
    # path halving leaves some entries pointing below their root
    return [_orbit_find(parent, v) for v in range(n)]


def _leaf_form(n: int, adj: Sequence[int], colors: list[int]) -> tuple[int, ...]:
    """The adjacency rows relabeled by a discrete coloring: vertex v
    goes to position colors[v]."""
    rows = [0] * n
    for v in range(n):
        a = adj[v]
        row = 0
        while a:
            low = a & -a
            a ^= low
            row |= 1 << colors[low.bit_length() - 1]
        rows[colors[v]] = row
    return tuple(rows)


def canon_raw(
    n: int, adj: Sequence[int], colors: Optional[list[int]] = None
) -> tuple[list[int], tuple[int, ...], list[tuple[int, ...]]]:
    """Canonical labeling of a raw graph.

    Returns (lab, form, gens): lab[i] is the vertex placed at position
    i, form the relabeled adjacency rows (the canonical form), and gens
    a generating set of the automorphism group.

    ``colors``, when given, must be a full `refine_colors` result, an
    equitable coloring in ranks; it is the root of the search as it
    stands.  By default the root is the refined unit coloring.
    """
    if n == 0:
        return [], (), []
    gens: list[tuple[int, ...]] = []
    # (form, lab, base) of the first leaf and of the best leaf so far
    first: Optional[tuple] = None
    best: Optional[tuple] = None

    def backjump(leaf: tuple, lab: list[int], base: list[int]) -> int:
        """Record the automorphism sending the recorded ``leaf`` onto
        the current leaf and return the depth to resume at: the first
        index where the two paths differ, or n (no jump) if the map
        does not send one path onto the other up to there."""
        _, lab_a, base_a = leaf
        p = _permutation_between(lab_a, lab, n)
        if p not in gens:
            gens.append(p)
        for d, (a, b) in enumerate(zip(base_a, base)):
            if p[a] != b:
                return n
            if a != b:
                return d
        return n

    def handle_leaf(colors: list[int], base: list[int]) -> int:
        nonlocal first, best
        lab = [0] * n
        for v in range(n):
            lab[colors[v]] = v
        form = _leaf_form(n, adj, colors)
        if first is None:
            first = best = (form, lab, list(base))
            return n
        if form == first[0]:
            return backjump(first, lab, base)
        if form == best[0]:
            return backjump(best, lab, base)
        if form < best[0]:
            best = (form, lab, list(base))
        return n

    def rec(colors: list[int], base: list[int]) -> int:
        """Search below the node reached by ``base``, whose equitable
        coloring is ``colors``; return the depth of the node to resume
        at (n when no jump is due)."""
        ncolors = max(colors) + 1
        if ncolors == n:
            return handle_leaf(colors, base)
        depth = len(base)
        counts = [0] * ncolors
        for c in colors:
            counts[c] += 1
        target = next(i for i in range(ncolors) if counts[i] > 1)
        cell = [v for v in range(n) if colors[v] == target]
        branched: list[int] = []
        # ``base`` is restored after each child and ``gens`` only grows,
        # so the stabilizer's orbits only coarsen: merge in the new
        # generators that fix ``base``
        seen = 0
        parent: Optional[list[int]] = None
        for v in cell:
            if branched:
                for g in gens[seen:]:
                    if all(g[b] == b for b in base):
                        if parent is None:
                            parent = list(range(n))
                        _orbit_merge(parent, g)
                seen = len(gens)
                if parent is not None:
                    rv = _orbit_find(parent, v)
                    if any(_orbit_find(parent, u) == rv for u in branched):
                        continue
            branched.append(v)
            base.append(v)
            resume = rec(refine_colors(n, adj, colors, split=v), base)
            base.pop()
            if resume < depth:
                return resume
        return n

    rec(refine_colors(n, adj) if colors is None else colors, [])
    # rec holds itself through its closure cell; clearing the cell frees
    # the graph and the search state now, not at the next cyclic collection
    del rec
    assert best is not None
    form, lab, _ = best
    return lab, form, gens


def canonical_form(g: Graph) -> str:
    """Canonical graph6 string: graph6 of the canonically relabeled graph.

    Equal strings iff the graphs are isomorphic.
    """
    _, form, _ = canon_raw(g.n, g.adj)
    return graph6_encode(Graph(g.n, form))


def canonical_graph(g: Graph) -> Graph:
    _, form, _ = canon_raw(g.n, g.adj)
    return Graph(g.n, form)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n:
        return False
    if sorted(r.bit_count() for r in g.adj) != sorted(r.bit_count() for r in h.adj):
        return False
    return canon_raw(g.n, g.adj)[1] == canon_raw(h.n, h.adj)[1]


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    return canon_raw(g.n, g.adj)[2]


def automorphism_orbits(g: Graph) -> list[int]:
    """Orbit id per vertex under the full automorphism group."""
    gens = canon_raw(g.n, g.adj)[2]
    parent = _orbit_partition(g.n, gens)
    reps = sorted(set(parent))
    rank = {r: i for i, r in enumerate(reps)}
    return [rank[parent[v]] for v in range(g.n)]
