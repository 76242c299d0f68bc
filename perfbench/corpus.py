"""The benchmark's own graph tools and the seeded corpus of the `local`
workload.

Everything here is written independently of the `cdt` library, so the
checks built on it (clique counts, isomorphism invariants, witness
isomorphism, graph6 lines) do not share a defect with the code under
test.  Graphs are (n, adjacency-bitmask tuple) pairs.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

# -- graph6 ---------------------------------------------------------------


def g6_encode(n: int, adj) -> str:
    """Header-less graph6 for n <= 62."""
    out = [chr(63 + n)]
    acc = nbits = 0
    for v in range(1, n):
        for u in range(v):
            acc = (acc << 1) | ((adj[v] >> u) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)


def g6_decode(text: str) -> tuple[int, tuple[int, ...]]:
    s = text.strip()
    n = ord(s[0]) - 63
    adj = [0] * n
    k = 0
    for v in range(1, n):
        for u in range(v):
            if ((ord(s[1 + k // 6]) - 63) >> (5 - k % 6)) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            k += 1
    return n, tuple(adj)


# -- cliques, invariants, isomorphism ---------------------------------------


def clique_profile(n: int, adj) -> list[int]:
    """profile[k] = number of k-cliques, k = 0..n, by extending each
    clique with higher-numbered common neighbours only."""
    profile = [0] * (n + 1)
    profile[0] = 1
    stack = [(1, (adj[v] >> (v + 1)) << (v + 1)) for v in range(n)]
    while stack:
        size, cand = stack.pop()
        profile[size] += 1
        while cand:
            low = cand & -cand
            cand ^= low
            u = low.bit_length() - 1
            stack.append((size + 1, cand & adj[u]))
    return profile


def has_clique(adj, cand: int, k: int) -> bool:
    """Does the vertex set ``cand`` contain a k-clique?"""
    if k <= 0:
        return True
    if cand.bit_count() < k:
        return False
    while cand:
        low = cand & -cand
        cand ^= low
        if has_clique(adj, cand & adj[low.bit_length() - 1], k - 1):
            return True
    return False


def invariant(n: int, adj) -> tuple:
    """Isomorphism invariant: sorted per-vertex (degree, triangles,
    sorted neighbour degrees)."""
    deg = [row.bit_count() for row in adj]
    per_vertex = []
    for v in range(n):
        row = adj[v]
        tri = 0
        nbr_deg = []
        x = row
        while x:
            low = x & -x
            x ^= low
            u = low.bit_length() - 1
            tri += (adj[u] & row).bit_count()
            nbr_deg.append(deg[u])
        per_vertex.append((deg[v], tri // 2, tuple(sorted(nbr_deg))))
    return (n, tuple(sorted(per_vertex)))


def level_digests(graphs) -> dict[int, str]:
    """Order-insensitive digest of the invariant multiset per vertex count."""
    by_level: dict[int, list[str]] = {}
    for n, adj in graphs:
        by_level.setdefault(n, []).append(repr(invariant(n, adj)))
    return {
        n: hashlib.sha256("\n".join(sorted(items)).encode()).hexdigest()[:16]
        for n, items in by_level.items()
    }


def isomorphic(n: int, a, b) -> bool:
    """Backtracking isomorphism test, pruned by degree and adjacency to
    the vertices already mapped."""
    if len(a) != n or len(b) != n:
        return False
    da = [r.bit_count() for r in a]
    db = [r.bit_count() for r in b]
    if sorted(da) != sorted(db):
        return False
    order = sorted(range(n), key=lambda v: -da[v])
    image = [-1] * n
    used = 0

    def extend(i: int) -> bool:
        nonlocal used
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if used >> w & 1 or db[w] != da[v]:
                continue
            if any((a[v] >> order[j] & 1) != (b[w] >> image[order[j]] & 1) for j in range(i)):
                continue
            image[v] = w
            used |= 1 << w
            if extend(i + 1):
                return True
            used ^= 1 << w
        return False

    return extend(0)


def relabel(n: int, adj, perm) -> tuple[int, ...]:
    out = [0] * n
    for v in range(n):
        row = 0
        x = adj[v]
        while x:
            low = x & -x
            x ^= low
            row |= 1 << perm[low.bit_length() - 1]
        out[perm[v]] = row
    return tuple(out)


# -- constructions ------------------------------------------------------------


def from_edges(n: int, edges) -> tuple[int, ...]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def turan(n: int, r: int) -> tuple[int, ...]:
    return from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if u % r != v % r])


def complement(n: int, adj) -> tuple[int, ...]:
    full = (1 << n) - 1
    return tuple(full & ~row & ~(1 << v) for v, row in enumerate(adj))


def disjoint_union(g, h) -> tuple[int, tuple[int, ...]]:
    (n, a), (m, b) = g, h
    return n + m, tuple(a) + tuple(row << n for row in b)


def greedy_member(rng: random.Random, n: int, dmax: int, omega: int) -> tuple[int, ...]:
    """Random maximal-by-greedy member of the (dmax, omega) class: add
    edges in random order while degrees stay <= dmax and the common
    neighbourhood of the new edge holds no (omega-1)-clique."""
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    adj = [0] * n
    for u, v in pairs:
        if adj[u].bit_count() >= dmax or adj[v].bit_count() >= dmax:
            continue
        if has_clique(adj, adj[u] & adj[v], omega - 1):
            continue
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


# (dmax, omega) classes sampled by the `local` corpus
CLASSES = ((4, 3), (5, 3), (5, 4), (6, 3), (6, 4), (6, 5), (7, 3))
# 15 members make 276 entries in all, so the nearest-rank p99 is the
# third slowest: one of the three orders of the slowest graph.
MEMBERS_PER_CLASS = 15
SUBSETS_PER_GRAPH = 4
# The member graphs come from a fixed stream, not from the seed.  Their
# cost varies tenfold from graph to graph, and with seeded members the
# median latency spread by 13% across seeds from the graphs alone.
MEMBER_SEED = 1
# Random relabellings per graph.  Labelling a symmetric construction
# costs +-30% depending on the vertex order, and these few graphs make
# the tail latency.  Like `enumerate` and `extremal`, they are fixed
# instances: their orders come from one fixed stream, not from the seed,
# so every seed compares the same tail.
MEMBER_RELABELLINGS = 1
SYMMETRIC_RELABELLINGS = 2
SYMMETRIC_ORDER_SEED = 0


def symmetric_constructions(bt2, bt3, gstar) -> list[tuple[int, tuple[int, ...]]]:
    """Turan graphs, the paper's bt_graph(2), bt_graph(3) and g_star(),
    their complements and a few disjoint unions (all on <= 16 vertices)."""
    base = [(n, turan(n, r)) for n, r in ((8, 4), (9, 3), (10, 5), (12, 4), (12, 3), (12, 6))]
    base += [bt2, bt3, gstar]
    out = list(base)
    out += [(n, complement(n, adj)) for n, adj in base]
    out += [
        disjoint_union(bt2, gstar),
        disjoint_union(gstar, gstar),
        disjoint_union(bt2, (4, turan(4, 4))),
        disjoint_union((8, turan(8, 4)), (8, turan(8, 2))),
    ]
    return out


def build_corpus(seed: int, bt2, bt3, gstar) -> list[dict]:
    """The `local` inputs: every graph followed by random relabellings
    of it, each with seeded vertex subsets for the border and
    detachability calls.  Entries with equal "group" are one
    isomorphism class.  The seed draws the members' relabellings and
    all subsets; the graphs themselves and the relabellings of the
    symmetric constructions come from fixed streams."""
    rng = random.Random(seed)
    members = random.Random(MEMBER_SEED)
    fixed = random.Random(SYMMETRIC_ORDER_SEED)
    graphs = []
    for dmax, omega in CLASSES:
        for _ in range(MEMBERS_PER_CLASS):
            n = members.randint(8, 12)
            graphs.append((n, greedy_member(members, n, dmax, omega), MEMBER_RELABELLINGS, rng))
    graphs += [(n, adj, SYMMETRIC_RELABELLINGS, fixed) for n, adj in symmetric_constructions(bt2, bt3, gstar)]
    corpus = []
    for group, (n, adj, relabellings, order_rng) in enumerate(graphs):
        variants = [adj]
        for _ in range(relabellings):
            perm = list(range(n))
            order_rng.shuffle(perm)
            variants.append(relabel(n, adj, perm))
        for variant in variants:
            full = (1 << n) - 1
            subsets = [rng.randint(1, full - 1) for _ in range(SUBSETS_PER_GRAPH)]
            corpus.append({"g6": g6_encode(n, variant), "subsets": subsets, "group": group})
    return corpus
