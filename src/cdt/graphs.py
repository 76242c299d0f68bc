"""Small-graph kernel on single-word adjacency bitsets.

A graph is stored as a vertex count ``n`` plus one integer bitmask per
vertex holding its open neighborhood.  The exhaustive search stays at
n <= 16 (its hard cap) and the named constructions within a hard
capacity of 64 vertices, so every set operation is a single
machine-word ``&``/``|``/``bit_count``.

Graphs are immutable values: every combinator returns a fresh Graph, so
they can be shared freely across worker processes.

Vertex subsets are plain ints used as bitmasks (bit v = vertex v).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class GraphError(ValueError):
    """Raised for capacity violations, self-loops, or bad vertex indices."""


class Graph:
    """Immutable simple graph on vertices 0..n-1.

    adj[v] is the bitmask of v's open neighborhood.  Invariants checked
    at construction: symmetry, irreflexivity, no bits at index >= n.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[int]):
        if not 0 <= n <= MAX_VERTICES:
            raise GraphError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        adj = tuple(adj)
        if len(adj) != n:
            raise GraphError(f"adjacency length {len(adj)} != n = {n}")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & (1 << v):
                raise GraphError(f"self-loop at vertex {v}")
            if row & ~full:
                raise GraphError(f"adjacency bit above n-1 at vertex {v}")
        for v, row in enumerate(adj):
            for u in bits(row):
                if not adj[u] & (1 << v):
                    raise GraphError(f"asymmetric edge {v}->{u}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """Wrap an adjacency tuple that is valid by construction, such as
        a class emitted by the search engine, without re-checking it."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={sorted(self.edges())})"

    # -- basic queries ------------------------------------------------

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] & (1 << v))

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for u in bits(self.adj[v] >> (v + 1)):
                yield (v, v + 1 + u)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} out of range 0..{self.n - 1}")


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph with exactly the given undirected edges; duplicates collapse."""
    if not 0 <= n <= MAX_VERTICES:
        raise GraphError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj)


def empty_graph(n: int) -> Graph:
    return Graph(n, [0] * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << v) for v in range(n)])


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complement(g: Graph) -> Graph:
    """Edge present iff absent in g; an involution."""
    full = g.vertex_mask()
    return Graph(g.n, [(full ^ row) & ~(1 << v) & full for v, row in enumerate(g.adj)])


def induced(g: Graph, subset: int) -> Graph:
    """Relabeled subgraph on the vertices of ``subset``, relative order kept."""
    if subset & ~g.vertex_mask():
        raise GraphError("subset is not contained in the vertex set")
    verts = list(bits(subset))
    pos = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for v in verts:
        for u in bits(g.adj[v] & subset):
            adj[pos[v]] |= 1 << pos[u]
    return Graph(len(verts), adj)


def union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; h's vertices are offset by g.n."""
    if g.n + h.n > MAX_VERTICES:
        raise GraphError("union exceeds 64-vertex capacity")
    adj = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(g.n + h.n, adj)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all cross edges."""
    if g.n + h.n > MAX_VERTICES:
        raise GraphError("join exceeds 64-vertex capacity")
    gmask = (1 << g.n) - 1
    hmask = ((1 << h.n) - 1) << g.n
    adj = [row | hmask for row in g.adj]
    adj += [(row << g.n) | gmask for row in h.adj]
    return Graph(g.n + h.n, adj)


def neighborhood(g: Graph, v: int, closed: bool = False) -> int:
    """Open (default) or closed neighborhood of v as a bitmask."""
    g._check_vertex(v)
    nb = g.adj[v]
    return nb | (1 << v) if closed else nb


def max_degree(g: Graph) -> int:
    return max((row.bit_count() for row in g.adj), default=0)


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Image of g under the vertex permutation v -> perm[v]."""
    adj = [0] * g.n
    for v in range(g.n):
        row = 0
        for u in bits(g.adj[v]):
            row |= 1 << perm[u]
        adj[perm[v]] = row
    return Graph(g.n, adj)


# -- graph6 codec ----------------------------------------------------
#
# Standard header-less graph6: vertex count, then the upper triangle of
# the adjacency matrix in column-major order, packed 6 bits per
# printable character (offset 63).


class Graph6Error(ValueError):
    """Raised for malformed graph6 input."""


_HEADER = ">>graph6<<"


def graph6_encode(g: Graph) -> str:
    out = []
    n = g.n
    if n <= 62:
        out.append(chr(63 + n))
    else:
        # n <= 258047 uses '~' plus 18 bits; capacity keeps us here
        out.append(chr(126))
        out.append(chr(63 + ((n >> 12) & 63)))
        out.append(chr(63 + ((n >> 6) & 63)))
        out.append(chr(63 + (n & 63)))
    acc = 0
    nbits = 0
    for v in range(1, n):
        row = g.adj[v]
        for u in range(v):
            acc = (acc << 1) | ((row >> u) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)


def graph6_decode(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>"):
        if not s.startswith(_HEADER):
            raise Graph6Error(f"malformed graph6 header in {text!r}")
        s = s[len(_HEADER):]
    if not s:
        raise Graph6Error("empty graph6 string")
    vals = []
    for ch in s:
        c = ord(ch)
        if not 63 <= c <= 126:
            raise Graph6Error(f"character {ch!r} outside graph6 alphabet")
        vals.append(c - 63)
    if vals[0] < 63:
        n = vals[0]
        body = vals[1:]
    else:
        if len(vals) >= 2 and vals[1] == 63:
            raise Graph6Error("graph6 vertex counts above 258047 are unsupported")
        if len(vals) < 4:
            raise Graph6Error("truncated graph6 vertex count")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
    if n > MAX_VERTICES:
        raise Graph6Error(f"graph6 vertex count {n} exceeds capacity {MAX_VERTICES}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        kind = "truncated" if len(body) < need else "oversized"
        raise Graph6Error(f"{kind} graph6 edge payload for n = {n}")
    adj = [0] * n
    k = 0
    for v in range(1, n):
        for u in range(v):
            if (body[k // 6] >> (5 - k % 6)) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            k += 1
    if k % 6 and body and body[-1] & ((1 << (6 - k % 6)) - 1):
        raise Graph6Error("nonzero padding bits in graph6 payload")
    return Graph(n, adj)
