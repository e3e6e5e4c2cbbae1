"""Exact chromatic and fractional chromatic numbers.

The chromatic number comes from branch and bound over color classes
with a clique lower bound and greedy upper bound.  The fractional
chromatic number is the optimum of the fractional-clique LP (maximize
total vertex weight subject to weight-sum ≤ 1 on every maximal
independent set), solved exactly with lazy constraint generation and
a strong-duality certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import LinearProgram, _BlandPath, lp_solve_exact, over_lcm
from .graphs import (
    Graph,
    heaviest_maximal_independent_set,
    is_connected,
    iter_bits,
    maximal_set_per_vertex,
)


def _degree_order(g: Graph) -> list[int]:
    return sorted(range(g.n), key=lambda v: (-g.degree(v), v))


def max_clique(g: Graph) -> tuple[int, int]:
    """(size, vertex mask) of a maximum clique; deterministic."""
    order = _degree_order(g)
    best_size = 0
    best_mask = 0

    def extend(mask: int, size: int, cand: int):
        nonlocal best_size, best_mask
        if size > best_size:
            best_size = size
            best_mask = mask
        if size + cand.bit_count() <= best_size:
            return
        for v in order:
            if cand >> v & 1:
                extend(mask | (1 << v), size + 1, cand & g.rows[v])
                cand &= ~(1 << v)

    extend(0, 0, g.vertex_mask())
    return best_size, best_mask


def is_colorable(g: Graph, k: int) -> tuple[int, ...] | None:
    """A proper k-coloring as a tuple of color indices, or None.

    Vertices are attempted in descending-degree order (ties by index);
    color symmetry is broken by allowing at most one brand-new color
    per step.
    """
    if k <= 0:
        return None if g.n else ()
    order = _degree_order(g)
    color_mask = [0] * k  # vertices holding each color
    assigned: dict[int, int] = {}

    def rec(idx: int, used: int) -> bool:
        if idx == g.n:
            return True
        v = order[idx]
        limit = min(used + 1, k)
        for c in range(limit):
            if not g.rows[v] & color_mask[c]:
                color_mask[c] |= 1 << v
                assigned[v] = c
                if rec(idx + 1, max(used, c + 1)):
                    return True
                color_mask[c] &= ~(1 << v)
        return False

    if not rec(0, 0):
        return None
    return tuple(assigned[v] for v in range(g.n))


@dataclass(frozen=True)
class ChromaticResult:
    value: int
    coloring: tuple[int, ...]
    clique: int  # mask of a maximum clique found for the lower bound
    closed_by_clique: bool  # False: optimality shown by exhausting k-1


def chromatic_number(g: Graph) -> ChromaticResult:
    omega, clique_mask = max_clique(g)
    k = omega
    coloring = is_colorable(g, k)
    while coloring is None:
        k += 1
        coloring = is_colorable(g, k)
    return ChromaticResult(k, coloring, clique_mask, closed_by_clique=(k == omega))


# ---------------------------------------------------------------------------
# fractional chromatic number
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FractionalResult:
    """Exact optimum of the fractional-clique LP with its certificate.

    weights is the optimal vertex weighting (sum = value); tight_sets
    are the generated maximal independent sets met with equality, a
    non-empty superset of the cover support; cover pairs (set mask,
    dual weight) form the matching fractional cover of the same total
    weight, which is the strong-duality certificate.
    """

    value: Fraction
    weights: tuple[Fraction, ...]
    tight_sets: tuple[int, ...]
    cover: tuple[tuple[int, Fraction], ...]


def fractional_chromatic_number(g: Graph) -> FractionalResult:
    """χ_f(g) as an exact rational, via lazy constraint generation.

    Starting from one maximal independent set through each vertex, the
    LP is re-solved and the heaviest maximal independent set under the
    current weights (found exactly by branch and bound) is added until
    none weighs more than 1.  The final solution is therefore optimal
    for the full LP over all maximal independent sets, which are never
    enumerated.

    Each round's LP is the last round's plus one row, all with rhs 1, so
    each solve is handed the last solve's Bland path.  It replays the
    pivots the two paths share instead of re-pivoting them from the
    slack basis (see lp_solve_exact): every pivot, weight and dual is
    the solve from scratch's, so Bland's rule picks the same optimal
    vertex.  The path is dropped when this function returns.
    """
    working = maximal_set_per_vertex(g)
    rows = [_indicator(s, g.n) for s in working]
    path = _BlandPath()  # each round's LP is the last one plus a row
    while True:
        lp = LinearProgram((1,) * g.n, tuple(rows), (1,) * len(rows))
        res = lp_solve_exact(lp, _path=path)
        assert res.status == "optimal"  # feasible (w=0) and bounded (covers)
        # the weights as int numerators over their lcm: a positive
        # scale keeps the oracle's comparisons, ties and mask
        nums, den = over_lcm(res.solution)
        worst, weight = heaviest_maximal_independent_set(g, nums)
        if weight <= den:
            break
        assert worst not in working
        working.append(worst)
        rows.append(_indicator(worst, g.n))

    tight = tuple(s for s in working
                  if sum(nums[v] for v in iter_bits(s)) == den)
    cover = tuple((working[i], y) for i, y in enumerate(res.dual) if y != 0)
    return FractionalResult(res.value, res.solution, tight, cover)


def _indicator(s: int, n: int) -> tuple[int, ...]:
    """The 0/1 row of the vertex set s."""
    return tuple(s >> v & 1 for v in range(n))


def chi_greater_than(g: Graph, d: int) -> bool:
    """Exact χ(g) > d, with cheap shortcuts before the search.

    A graph needs max degree ≥ d to beat d colors, and a connected
    graph with max degree exactly d only does when it is complete on
    d+1 vertices or an odd cycle at d=2 (Brooks bound)."""
    if d <= 0:
        return g.n >= 1
    if g.n <= d:
        return False
    degs = [g.degree(v) for v in range(g.n)]
    dmax = max(degs)
    if dmax < d:
        return False
    if dmax == d and is_connected(g):
        complete = g.n == d + 1 and all(dg == d for dg in degs)
        odd_cycle = d == 2 and g.n % 2 == 1 and all(dg == 2 for dg in degs)
        return complete or odd_cycle
    return is_colorable(g, d) is None


@dataclass(frozen=True)
class NecessaryConditions:
    chi_ok: bool
    chi_f_ok: bool


def sic_necessary_conditions(g: Graph, d: int) -> NecessaryConditions:
    """Both graph conditions a projector set in dimension d must meet:
    χ(g) > d and χ_f(g) > d."""
    chi = chromatic_number(g).value
    chi_f = fractional_chromatic_number(g).value
    return NecessaryConditions(chi_ok=chi > d, chi_f_ok=chi_f > d)


def rh_sic_graph_test(g: Graph, d: int, r: int = 1) -> bool:
    """Exact test of χ_f(g) > d/r, the threshold for a graph to admit
    a state-dependent violation with rank-r projectors in dimension d
    on the maximally mixed state."""
    if r < 1:
        raise ValueError("r must be at least 1")
    if d < r:
        raise ValueError("dimension must be at least r")
    return fractional_chromatic_number(g).value > Fraction(d, r)
