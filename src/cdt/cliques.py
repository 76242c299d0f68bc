"""Exact clique statistics and local structure analysis.

Clique counting walks ordered cliques with bitset candidate
intersection: a clique is grown by popping its smallest admissible
vertex, so every complete subgraph is visited exactly once and the
whole size profile k_0..k_n falls out of a single pass.

Densities and averaging bounds are exact rationals throughout; no
float ever enters a comparison.  Values like 15/8 vs 16/7 must tie
or split exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .graphs import Graph, GraphError, bits, max_degree


# -- raw bitset cores (shared with the search engine) -----------------

def _size_counts(adj: Sequence[int], full: int) -> list[int]:
    """counts[k] = number of k-cliques inside the mask ``full``."""
    counts = [0] * (full.bit_count() + 1)
    counts[0] = 1

    def walk(cand: int, size: int) -> None:
        while cand:
            low = cand & -cand
            cand ^= low
            counts[size] += 1
            nxt = cand & adj[low.bit_length() - 1]
            if nxt:
                walk(nxt, size + 1)

    if full:
        walk(full, 1)
    return counts


def _count_of_size(adj: Sequence[int], cand: int, t: int) -> int:
    """Number of t-cliques inside the candidate mask (t >= 0)."""
    if t == 0:
        return 1
    if t == 1:
        return cand.bit_count()
    total = 0

    def walk(cand: int, left: int) -> None:
        nonlocal total
        while cand:
            if cand.bit_count() < left:
                return
            low = cand & -cand
            cand ^= low
            nxt = cand & adj[low.bit_length() - 1]
            if left == 2:
                total += nxt.bit_count()
            elif nxt:
                walk(nxt, left - 1)

    walk(cand, t)
    return total


def _has_clique(adj: Sequence[int], cand: int, k: int) -> bool:
    """Does the candidate mask contain a clique of size k?"""
    if k <= 0:
        return True
    if cand.bit_count() < k:
        return False
    if k == 1:
        return True
    while cand:
        low = cand & -cand
        cand ^= low
        if _has_clique(adj, cand & adj[low.bit_length() - 1], k - 1):
            return True
        if cand.bit_count() < k:
            return False
    return False


def _max_clique(adj: Sequence[int], full: int) -> int:
    """Size of the largest clique inside the mask ``full``.

    Each node colors its candidates greedily, one maximal independent
    class after another, and branches on them from the last class back.
    The candidates left when a vertex of class c is taken lie in
    classes 1..c, so they hold no clique larger than c, and the node
    stops once ``size + c`` cannot beat the best (Tomita & Seki's MCQ,
    2003).  On T(2k, k) the size bound alone walks all 2^k maximum
    cliques.
    """
    best = 0

    def walk(cand: int, size: int) -> None:
        nonlocal best
        n = cand.bit_count()
        if size + n <= best:
            return
        if n < 3:  # two candidates extend the clique by two when adjacent
            if n == 2:
                low = cand & -cand
                if not adj[low.bit_length() - 1] & cand:
                    n = 1
            best = size + n
            return
        classes = []
        rest = cand
        while rest:
            avail = rest
            cls = 0
            while avail:
                low = avail & -avail
                cls |= low
                avail &= ~(adj[low.bit_length() - 1] | low)
            rest ^= cls
            classes.append(cls)
        c = len(classes)
        while size + c > best:
            cls = classes[c - 1]
            while cls:
                low = cls & -cls
                cls ^= low
                cand ^= low
                walk(cand & adj[low.bit_length() - 1], size + 1)
                if size + c <= best:
                    return
            c -= 1

    walk(full, 0)
    return best


def _per_vertex_size_counts(n: int, adj: Sequence[int]) -> list[list[int]]:
    """weights[v][t] = number of t-cliques containing v (t = 0..n)."""
    weights = [[0] * (n + 1) for _ in range(n)]
    stack: list[int] = []

    def walk(cand: int) -> None:
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            stack.append(v)
            size = len(stack)
            for u in stack:
                weights[u][size] += 1
            nxt = cand & adj[v]
            if nxt:
                walk(nxt)
            stack.pop()

    if n:
        walk((1 << n) - 1)
    return weights


def _is_perfect(adj: Sequence[int], v: int, d: int, r: int) -> bool:
    """Does the neighborhood N of v induce the Turan graph T(d, r)?

    The part of u in N is N minus u's neighbors (u itself included, as
    there are no self-loops); see `is_perfect_vertex` for why the checks
    below decide the question.
    """
    nb = adj[v]
    if nb.bit_count() != d:
        return False
    sizes = []
    rest = nb
    while rest:
        part = nb & ~adj[(rest & -rest).bit_length() - 1]
        for w in bits(part):
            if nb & ~adj[w] != part:
                return False
        sizes.append(part.bit_count())
        rest &= ~part
    return len(sizes) == min(d, r) and max(sizes, default=0) - min(sizes, default=0) <= 1


# -- public clique counts ---------------------------------------------

def clique_size_counts(g: Graph) -> list[int]:
    """Full profile [k_0, k_1, ..., k_n]; k_0 = 1 by convention."""
    return _size_counts(g.adj, g.vertex_mask())


def clique_count(g: Graph, t: int) -> int:
    """Exact number of t-vertex complete subgraphs; 0 for t > n."""
    if t < 0:
        raise ValueError("clique size must be non-negative")
    return _count_of_size(g.adj, g.vertex_mask(), t)


def clique_number(g: Graph) -> int:
    """Size of the largest clique; 0 for the empty graph."""
    return _max_clique(g.adj, g.vertex_mask())


def per_vertex_clique_counts(g: Graph) -> list[list[int]]:
    return _per_vertex_size_counts(g.n, g.adj)


def vertex_weight(g: Graph, v: int, t: int) -> int:
    """Number of t-cliques containing v (the t-weight of v)."""
    g._check_vertex(v)
    if t <= 0:
        return 0
    return _count_of_size(g.adj, g.adj[v], t - 1)


def edge_weight(g: Graph, u: int, v: int, t: int) -> int:
    """Number of t-cliques containing the edge uv."""
    if not g.has_edge(u, v):
        raise GraphError(f"({u},{v}) is not an edge")
    if t <= 1:
        return 0
    return _count_of_size(g.adj, g.adj[u] & g.adj[v], t - 2)


def density(g: Graph, t: int) -> Fraction:
    """t-clique count per vertex, k_t(G)/n, in lowest terms."""
    if g.n == 0:
        raise GraphError("density of the empty graph is undefined")
    return Fraction(clique_count(g, t), g.n)


# -- perfect vertices --------------------------------------------------

def in_class(g: Graph, dmax: int, omega: int) -> bool:
    """Membership in the class of graphs with max degree <= dmax and
    clique number <= omega."""
    return max_degree(g) <= dmax and not _has_clique(g.adj, g.vertex_mask(), omega + 1)


def is_perfect_vertex(g: Graph, v: int, dmax: int, omega: int) -> bool:
    """True iff the open neighborhood of v induces the Turan graph on
    dmax vertices with omega-1 parts, i.e. v attains the maximum
    possible t-weight for every t >= 2 within the class.

    Decided from the neighborhood's bitsets, with no canonical
    labelling.  A graph is complete multipartite exactly when
    non-adjacency (with each vertex related to itself) is an
    equivalence relation; its classes are the parts.  Two complete
    multipartite graphs are isomorphic exactly when their multisets of
    part sizes agree, and T(dmax, omega-1) is the one with
    min(dmax, omega-1) nonempty parts whose sizes differ by at most
    one.  So the neighborhood induces T(dmax, omega-1) exactly when it
    has dmax vertices, non-adjacency partitions it, and the parts have
    that count and that balance.
    """
    if omega < 2:
        raise ValueError("perfect vertices need a clique bound of at least 2")
    if not in_class(g, dmax, omega):
        raise GraphError(f"graph violates the (max degree {dmax}, clique {omega}) class")
    g._check_vertex(v)
    return _is_perfect(g.adj, v, dmax, omega - 1)


# -- border vertices and detachability ---------------------------------

@dataclass(frozen=True)
class BorderProfile:
    """Border structure of an induced subgraph H.

    border lists (vertex, cross degree) for every v in H whose degree
    inside H is strictly below the degree bound; border_clique_number
    is the clique number of the graph induced by the border vertices;
    max_cross the largest cross degree (0 if the border is empty).
    """

    border: tuple[tuple[int, int], ...]
    border_clique_number: int
    max_cross: int


def border_profile(g: Graph, subset: int, dmax: int) -> BorderProfile:
    if subset & ~g.vertex_mask():
        raise GraphError("subset is not contained in the vertex set")
    outside = g.vertex_mask() & ~subset
    border = []
    border_mask = 0
    for v in bits(subset):
        if (g.adj[v] & subset).bit_count() < dmax:
            border.append((v, (g.adj[v] & outside).bit_count()))
            border_mask |= 1 << v
    i = _max_clique(g.adj, border_mask)
    j = max((d for _, d in border), default=0)
    return BorderProfile(tuple(border), i, j)


def is_detachable(g: Graph, subset: int, t: int) -> bool:
    """Exact test: no t-clique uses an edge between H and the rest, so
    k_t adds over the two sides.  A 1-clique uses no edge."""
    if t < 1:
        raise ValueError("clique size must be at least 1")
    if subset & ~g.vertex_mask():
        raise GraphError("subset is not contained in the vertex set")
    if t == 1:
        return True
    outside = g.vertex_mask() & ~subset
    for v in bits(subset):
        for u in bits(g.adj[v] & outside):
            if _has_clique(g.adj, g.adj[v] & g.adj[u], t - 2):
                return False
    return True


def detach_sufficient(profile: BorderProfile, t: int, strong: bool = False) -> bool:
    """Sufficient criterion: with i the border clique number and j the
    cross-degree cap, t > i + j forces detachability.  The strong form
    t > i + j - 1 applies only when the caller has checked that every
    i-clique of the border has a vertex with cross degree below j.
    """
    slack = 1 if strong else 0
    return t > profile.border_clique_number + profile.max_cross - slack


# -- averaging bounds ---------------------------------------------------

def averaging_bound(m: int, t: int) -> Fraction:
    """If every vertex has t-weight at most m, the t-density is at most m/t."""
    if t < 1:
        raise ValueError("clique size must be at least 1")
    return Fraction(m, t)


def capped_weight_bound(k: int, ell: int, dmax: int, t: int) -> Fraction:
    """Density bound when every vertex of peak weight k has at least
    ell neighbors of weight below k: (k - ell/(ell + dmax)) / t.

    With ell = 0 this degenerates to the plain averaging bound k/t.
    """
    if t < 1:
        raise ValueError("clique size must be at least 1")
    if ell < 0:
        raise ValueError("neighbor count must be non-negative")
    if dmax < 1:
        raise ValueError("degree bound must be at least 1")
    return Fraction(k, t) - Fraction(ell, t * (ell + dmax))


# -- vertex covers ------------------------------------------------------

def vertex_cover_count(g: Graph, s: int) -> int:
    """Number of s-subsets meeting every edge.

    Direct subset scan, independent of the clique counter, so the two
    can cross-check each other through complementation.
    """
    if not 0 <= s <= g.n:
        raise ValueError(f"cover size {s} outside 0..{g.n}")
    full = g.vertex_mask()
    count = 0
    for combo in combinations(range(g.n), g.n - s):
        rest = 0
        for v in combo:
            rest |= 1 << v
        # complement of the cover must be independent
        if all(not (g.adj[v] & rest) for v in combo):
            count += 1
    return count


# -- configurations ------------------------------------------------------

@dataclass(frozen=True)
class ConfigurationFinding:
    """(r+1)-set inducing a complete graph minus exactly two edges."""

    vertices: int
    missing_edges: tuple[tuple[int, int], tuple[int, int]]
    incident: bool


def find_configurations(g: Graph, r: int) -> list[ConfigurationFinding]:
    """All (r+1)-subsets inducing K_{r+1} minus exactly two edges.

    Subset scan over the vertices of degree at least r - 2: in K_{r+1}
    minus two edges every vertex keeps r - 2 neighbours.  Intended for
    graphs in the degree-r, clique-r class at desk scale.
    """
    found = []
    size = r + 1
    if size > g.n or size < 2:
        return found
    for combo in combinations([v for v in range(g.n) if g.adj[v].bit_count() >= r - 2], size):
        missing = []
        for a in range(size):
            if len(missing) > 2:
                break
            u = combo[a]
            for b in range(a + 1, size):
                if not g.adj[u] & (1 << combo[b]):
                    missing.append((u, combo[b]))
                    if len(missing) > 2:
                        break
        if len(missing) == 2:
            (u1, v1), (u2, v2) = missing
            incident = len({u1, v1, u2, v2}) == 3
            mask = 0
            for v in combo:
                mask |= 1 << v
            found.append(ConfigurationFinding(mask, (missing[0], missing[1]), incident))
    return found
