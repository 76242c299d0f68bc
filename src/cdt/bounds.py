"""Turan-graph constructions, closed-form clique counts, and the
density bounds for bounded-degree bounded-clique graph classes.

Everything is exact: clique counts are arbitrary-precision ints and
densities are Fractions.  The registry in exact_value returns a proven
optimum only when the query matches a known theorem's hypotheses,
including the range side conditions; nothing is extrapolated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from .graphs import MAX_VERTICES, Graph, GraphError, build_graph, join, max_degree


# -- Turan graphs -------------------------------------------------------

def _turan_parts(n: int, r: int) -> tuple[int, int]:
    """(q, c) with n = q*r + c: T(n, r) has c parts of size q+1 and
    r - c parts of size q."""
    if r < 1:
        raise ValueError("Turan graphs need at least one part")
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    return divmod(n, r)


def turan_graph(n: int, r: int) -> Graph:
    """Complete r-partite graph with parts as equal as possible.

    The c larger parts come first; vertices are numbered part by part.
    """
    q, c = _turan_parts(n, r)
    sizes = [q + 1] * c + [q] * (r - c)
    part_of = []
    for i, s in enumerate(sizes):
        part_of.extend([i] * s)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if part_of[u] != part_of[v]
    ]
    return build_graph(n, edges)


def turan_clique_count(n: int, r: int, t: int) -> int:
    """Closed-form number of t-cliques in the Turan graph, no graph built.

    Sums over how many clique vertices sit in parts of size q+1.
    """
    if t < 0:
        raise ValueError("clique size must be non-negative")
    q, c = _turan_parts(n, r)
    return sum(comb(c, k) * comb(r - c, t - k) * (q + 1) ** k * q ** (t - k)
               for k in range(min(c, t) + 1))


def turan_density(n: int, r: int, t: int) -> Fraction:
    if n < 1:
        raise ValueError("density needs at least one vertex")
    return Fraction(turan_clique_count(n, r, t), n)


# -- the bound pair -------------------------------------------------------

def effective_omega(dmax: int, omega: int) -> int:
    """Clique bounds above dmax + 1 are inactive: no graph with maximum
    degree <= dmax contains a clique that large."""
    return min(omega, dmax + 1)


def _lower_bound_order(dmax: int, omega: int) -> int:
    """dmax + floor(dmax / (omega - 1)): the most vertices a Turan graph
    with omega parts can have while its maximum degree stays dmax."""
    return dmax + dmax // (omega - 1)


def lower_bound_graph(dmax: int, omega: int) -> Graph:
    """The witness construction T(dmax + floor(dmax / (omega - 1)), omega)
    for the lower bound."""
    if dmax < 1:
        raise ValueError("degree bound must be at least 1")
    omega = effective_omega(dmax, omega)
    if omega < 2:
        raise ValueError("clique bound must be at least 2")
    n = _lower_bound_order(dmax, omega)
    g = turan_graph(n, omega)
    assert max_degree(g) == dmax
    # omega distinct sets {v} + non-neighbours of v, of total size n, partition
    # g into omega independent parts joined completely: its clique number is omega
    parts = {((1 << n) - 1) & ~row for row in g.adj}
    assert len(parts) == omega and sum(p.bit_count() for p in parts) == n
    return g


def lower_bound(t: int, dmax: int, omega: int) -> Fraction:
    """t-density of the lower bound graph; always attainable."""
    _check_bound_args(t, dmax, omega)
    omega = effective_omega(dmax, omega)
    return turan_density(_lower_bound_order(dmax, omega), omega, t)


def upper_bound(t: int, dmax: int, omega: int) -> Fraction:
    """Averaging bound: every vertex weight is capped by the (t-1)-clique
    count of T(dmax, omega - 1), so the density is at most that over t."""
    _check_bound_args(t, dmax, omega)
    omega = effective_omega(dmax, omega)
    return Fraction(turan_clique_count(dmax, omega - 1, t - 1), t)


def asymptotic_leading(t: int, dmax: int, omega: int) -> Fraction:
    """Leading term (1/t) C(omega-1, t-1) (dmax/(omega-1))^(t-1): both
    bounds approach it as dmax grows with t, omega fixed."""
    _check_bound_args(t, dmax, omega)
    omega = effective_omega(dmax, omega)
    return Fraction(comb(omega - 1, t - 1), t) * Fraction(dmax, omega - 1) ** (t - 1)


def _check_bound_args(t: int, dmax: int, omega: int) -> None:
    if t < 2:
        raise ValueError("clique size must be at least 2")
    if omega < 2:
        raise ValueError("clique bound must be at least 2")
    if dmax < 1:
        raise ValueError("degree bound must be at least 1")


def rho_monotone_check(omega: int, t: int, n_max: int) -> bool:
    """Is the Turan t-density non-decreasing in n over 1..n_max?
    Closed-form evaluation only."""
    if omega < 1:
        raise ValueError("need at least one part")
    prev = Fraction(0)
    for n in range(1, n_max + 1):
        cur = turan_density(n, omega, t)
        if cur < prev:
            return False
        prev = cur
    return True


# -- special constructions ----------------------------------------------

def bt_graph(k: int) -> Graph:
    """Triangle-rich member of the degree-(2k+1) triangle-allowed class.

    Take the balanced complete bipartite graph on 2k vertices, delete
    one edge, hang a new vertex on the two endpoints, then join an
    independent set of size k+1 to all of it.  3k+2 vertices, maximum
    degree 2k+1, clique number 3.
    """
    if k < 2:
        raise ValueError("needs k >= 2")
    n_core = 2 * k + 1
    if 3 * k + 2 > 64:
        raise GraphError("construction exceeds 64-vertex capacity")
    edges = [(u, k + v) for u in range(k) for v in range(k)]
    edges.remove((0, k))
    edges += [(0, 2 * k), (k, 2 * k)]
    core = build_graph(n_core, edges)
    g = join(core, Graph(k + 1, [0] * (k + 1)))
    assert max_degree(g) == 2 * k + 1
    return g


def bt_density(k: int) -> Fraction:
    """Triangle density of bt_graph(k): (k+1)(k^2+1)/(3k+2).

    Every triangle uses one core edge and one vertex of the joined
    independent set, so the count is (k+1) times the core edge count.
    """
    if k < 2:
        raise ValueError("needs k >= 2")
    return Fraction((k + 1) * (k * k + 1), 3 * k + 2)


def g_star() -> Graph:
    """7-vertex optimum for triangle density at degree bound 5, clique
    bound 4: K_6 minus a 2-edge matching, plus an apex joined to the
    four matched vertices.  17 edges, maximum degree 5, clique number 4.
    """
    missing = {(0, 1), (2, 3)}
    edges = [
        (u, v) for u in range(6) for v in range(u + 1, 6) if (u, v) not in missing
    ]
    edges += [(v, 6) for v in range(4)]
    return build_graph(7, edges)


# -- proven exact values --------------------------------------------------

PROVENANCE_DIVISIBILITY = "divisibility"
PROVENANCE_HANDSHAKE = "handshake"
PROVENANCE_DELTA_EQ_OMEGA = "delta-eq-omega"
PROVENANCE_DELTA_EQ_OMEGA_PLUS_ONE = "delta-eq-omega-plus-one"
PROVENANCE_SPECIAL = "special-triple"
PROVENANCE_NONE = "none"


@dataclass(frozen=True)
class ExactValue:
    value: Fraction
    witness: Optional[Graph]  # None when it has more than 64 vertices
    provenance: str


def _lower_bound_witness(dmax: int, omega: int) -> Optional[Graph]:
    """`lower_bound_graph`, or None when it exceeds the 64-vertex capacity."""
    if _lower_bound_order(dmax, omega) > MAX_VERTICES:
        return None
    return lower_bound_graph(dmax, omega)


def exact_value(t: int, dmax: int, omega: int) -> Optional[ExactValue]:
    """Proven optimum density for the triple, or None.

    Rows, each naming the bound it makes tight: the lower bound for a
    divisible degree bound (2 <= t <= omega), for degree equal to clique
    bound (3 <= t <= omega) and for degree one above clique bound at the
    two largest clique sizes (with their range conditions); the upper
    bound for edges (t = 2), where the handshake lemma gives
    k_2 = (sum of degrees)/2 <= n*dmax/2 and K_{dmax,dmax} = T(2 dmax, 2)
    attains dmax/2; and the three individually proven triples (3,5,3),
    (3,5,4), (3,6,5).

    The witness is None when it would exceed the 64-vertex capacity.
    """
    if t < 2:
        raise ValueError("clique size must be at least 2")
    if omega < 2 or dmax < 1:
        return None
    omega = effective_omega(dmax, omega)

    if t <= omega and dmax % (omega - 1) == 0:
        provenance = PROVENANCE_DIVISIBILITY
    elif dmax == omega and 3 <= t <= omega:
        provenance = PROVENANCE_DELTA_EQ_OMEGA
    elif dmax == omega + 1 and (t == omega >= 4 or t == omega - 1 >= 4):
        provenance = PROVENANCE_DELTA_EQ_OMEGA_PLUS_ONE
    else:
        provenance = None
    if provenance is not None:
        return ExactValue(lower_bound(t, dmax, omega), _lower_bound_witness(dmax, omega), provenance)

    if t == 2:
        witness = turan_graph(2 * dmax, 2) if 2 * dmax <= MAX_VERTICES else None
        return ExactValue(upper_bound(t, dmax, omega), witness, PROVENANCE_HANDSHAKE)

    if (t, dmax, omega) == (3, 5, 3):
        return ExactValue(Fraction(15, 8), bt_graph(2), PROVENANCE_SPECIAL)
    if (t, dmax, omega) == (3, 5, 4):
        return ExactValue(Fraction(16, 7), g_star(), PROVENANCE_SPECIAL)
    if (t, dmax, omega) == (3, 6, 5):
        return ExactValue(Fraction(4), turan_graph(8, 4), PROVENANCE_SPECIAL)

    return None


def conjectured_value(t: int, dmax: int, omega: int) -> Optional[Fraction]:
    """Best-known conjectured optimum where no proof exists: the
    triangle density of bt_graph(3) for the (3, 7, 3) triple."""
    if (t, dmax, effective_omega(dmax, omega)) == (3, 7, 3):
        return bt_density(3)
    return None


# -- aggregated report -----------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    t: int
    dmax: int
    omega: int
    omega_effective: int
    lower: Fraction
    upper: Fraction
    exact: Optional[Fraction]
    witness: Optional[Graph]  # None when unknown or over 64 vertices
    provenance: str
    conjecture: Optional[Fraction]

    @property
    def clamped(self) -> bool:
        return self.omega_effective != self.omega


def bounds_report(t: int, dmax: int, omega: int) -> BoundReport:
    """Lower/upper/exact summary for one (t, dmax, omega) triple."""
    _check_bound_args(t, dmax, omega)
    omega_eff = effective_omega(dmax, omega)
    lo = lower_bound(t, dmax, omega_eff)
    hi = upper_bound(t, dmax, omega_eff)
    ev = exact_value(t, dmax, omega_eff)
    if ev is not None:
        exact, witness, provenance = ev.value, ev.witness, ev.provenance
    elif lo == hi:
        # the sandwich pins the value even without a registry row
        exact, witness, provenance = lo, _lower_bound_witness(dmax, omega_eff), PROVENANCE_NONE
    else:
        exact, witness, provenance = None, None, PROVENANCE_NONE
    return BoundReport(
        t=t,
        dmax=dmax,
        omega=omega,
        omega_effective=omega_eff,
        lower=lo,
        upper=hi,
        exact=exact,
        witness=witness,
        provenance=provenance,
        conjecture=conjectured_value(t, dmax, omega_eff),
    )
