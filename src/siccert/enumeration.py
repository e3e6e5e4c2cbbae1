"""Census of square-free connected graphs via canonical augmentation.

Graphs grow one vertex at a time.  A new vertex may attach to any set
of existing vertices that is pairwise compatible (no two may already
share a neighbor), which is exactly the condition preserving
square-freeness.  A child is accepted only when its new vertex lies
in the automorphism orbit of the canonically-last vertex, so each
isomorphism class is produced exactly once from its unique canonical
parent.  Disconnected intermediates are kept (the canonical parent of
a connected graph need not be connected); connectivity is only an
emission filter, plus a pruning rule at the final level.

The canonically-last vertex has maximum degree, so the new vertex
must too.  Attachment sets smaller than the parent's maximum degree
are never generated, and a set of exactly that size is rejected when
it holds a vertex of maximum degree, before any child graph is built
or refined.  A set larger than every old vertex's degree in the child
leaves the new vertex alone of maximum degree, and so alone in the
last cell of the root equitable partition, whose first split is by
degree: that child is accepted before its partition is refined.

Every leaf of the canonical search refines the root equitable
partition in place, so the canonically-last vertex lies in the root's
last cell.  A child whose new vertex is outside that cell is rejected,
and one whose last cell is the new vertex alone is accepted, both
without a canonical search.  Refinement replaces a cell in place by
its parts, so the last cell only shrinks: a child's root refinement
stops, and the child is rejected, as soon as the new vertex leaves
the last cell.  A child that keeps it runs the full refinement.  A
child accepted without a search is canonicalized only when its
labeling is used: to grow it further, to pass its canonical form to a
sink, or to print the graph6 line of a graph that passes the χ
filter.  Counting and the χ test are isomorphism-invariant, so they
run on the child as built.  The search, when it runs, starts from the
root partition already computed, if any.

Children and canonical forms are built without Graph's checks, since
their rows are valid by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .canon import CanonResult, canonicalize, equitable_partition
from .coloring import chi_greater_than
from .graphs import (
    Graph,
    connected_components,
    encode_graph6,
    is_connected,
    is_square_free,
    iter_bits,
)
from .runner import as_integer, check_workers, ordered_results

MAX_ENUM_N = 13
SEED_LEVEL = 8


@dataclass
class EnumerationReport:
    """Counts of connected square-free isomorphism classes per vertex
    count, plus the graphs passing the optional χ > d filter."""

    n_max: int
    counts: dict[int, int] = field(default_factory=dict)
    chi_filter: int | None = None
    filtered: list[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def emit(self, g: Graph, cres: CanonResult | None, sink=None,
             cells: list[int] | None = None) -> None:
        """Count g's class, apply the χ > d filter, then pass the
        canonical form to sink.  g may have any labeling: the count and
        χ do not depend on it.  cres is g's CanonResult or None; then
        g is canonicalized, from its root partition cells when given,
        only if a filtered line or sink needs the canonical form."""
        self.counts[g.n] = self.counts.get(g.n, 0) + 1
        passes = (self.chi_filter is not None
                  and chi_greater_than(g, self.chi_filter))
        if not passes and sink is None:
            return
        if cres is None:
            cres = canonicalize(g, _root=cells)
        form = Graph._trusted(g.n, cres.key)
        if passes:
            self.filtered.append(encode_graph6(form))
        if sink is not None:
            sink(form)

    def merge(self, other: EnumerationReport) -> None:
        """Add the counts and filtered graphs of a worker's report."""
        for k, c in other.counts.items():
            self.counts[k] = self.counts.get(k, 0) + c
        self.filtered.extend(other.filtered)


def _apply_perm_to_mask(perm: tuple[int, ...], mask: int) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def _compatible_sets(g: Graph, min_size: int = 0) -> list[int]:
    """All vertex sets of at least min_size vertices that a new vertex
    may attach to without creating a pair of vertices with two common
    neighbors, depth-first.  With min_size 0 this includes the empty
    set.  Two attachment points are compatible iff they have no
    common neighbor; pairwise compatibility is exactly child
    square-freeness (given g itself square-free).  A branch whose set
    plus every vertex still allowed is below min_size is pruned, so
    the order is that of the unbounded list with small sets left out."""
    n = g.n
    rows = g.rows
    compat = []
    for v in range(n):
        m = 0
        for u in range(n):
            if u != v and not rows[u] & rows[v]:
                m |= 1 << u
        compat.append(m)
    out: list[int] = []

    def rec(cur: int, size: int, allowed: int):
        if size + allowed.bit_count() < min_size:
            return
        if size >= min_size:
            out.append(cur)
        rest = allowed
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            rec(cur | low, size + 1, rest & compat[v])

    rec(0, 0, g.vertex_mask())
    return out


def _extend(parent: Graph, s: int) -> Graph:
    bit = 1 << parent.n
    rows = tuple(r | bit if s >> v & 1 else r
                 for v, r in enumerate(parent.rows)) + (s,)
    return Graph._trusted(parent.n + 1, rows)


def _children(parent: Graph, canon: CanonResult, *, require_connected: bool
              ) -> list[tuple[Graph, list[int] | None, CanonResult | None]]:
    """Accepted one-vertex extensions of parent, one per class, each
    with its root equitable partition, or None when it was accepted
    without one, and its CanonResult, or None when it was accepted
    without a canonical search.  With require_connected, only the
    connected ones."""
    # degree reject: the canonically-last vertex always lies in the
    # last cell of the root equitable partition, which holds only
    # vertices of maximum degree, so the new vertex x can be accepted
    # only if |s| >= deg(v) + [v in s] for every parent vertex v: that
    # is |s| > top, or |s| == top with no degree-top vertex in s.
    # _compatible_sets never generates the sets below top.
    degs = [r.bit_count() for r in parent.rows]
    top = max(degs)
    top_mask = 0
    for v, d in enumerate(degs):
        if d == top:
            top_mask |= 1 << v
    candidates = _compatible_sets(parent, top)
    if require_connected:
        comps = connected_components(parent)
        candidates = [s for s in candidates if all(s & c for c in comps)]

    # candidate sets in one Aut(parent)-orbit give isomorphic children
    # with identical acceptance outcomes; process one per orbit.  The
    # degree reject is orbit-invariant too, so a rejected set need not
    # enter seen: its orbit mates are rejected in turn.
    x = parent.n
    xbit = 1 << x
    seen: set[int] = set()
    out = []
    for s in candidates:
        if s & top_mask and s.bit_count() == top:
            continue
        if s in seen:
            continue
        orbit = {s}
        frontier = [s]
        while frontier:
            t = frontier.pop()
            for p in canon.generators:
                u = _apply_perm_to_mask(p, t)
                if u not in orbit:
                    orbit.add(u)
                    frontier.append(u)
        seen.update(orbit)

        child = _extend(parent, s)
        # degree accept: x of strictly maximum degree is alone in the
        # last cell, since the first split is by degree, ascending
        if s.bit_count() > top + bool(s & top_mask):
            out.append((child, None, None))
            continue
        # leaf partitions refine the root equitable partition in place,
        # so the canonically-last vertex lies in its last cell.  Cheap
        # reject: x outside that cell, found as soon as x leaves it;
        # cheap accept: x alone in it.
        cells = equitable_partition(child, _keep=xbit)
        if cells is None:
            continue
        if cells[-1] == xbit:
            out.append((child, cells, None))
            continue
        cres = canonicalize(child, _root=cells)
        last = cres.order[child.n - 1]
        if cres.orbit_of(x) >> last & 1:
            out.append((child, cells, cres))
    return out


def _expand(g: Graph, cres: CanonResult, report: EnumerationReport,
            sink) -> list[tuple[Graph, CanonResult]]:
    """One growth step: emit every connected accepted child of g and
    return the children still to grow, each with its CanonResult."""
    last = g.n + 1 == report.n_max
    grow = []
    for child, cells, ccres in _children(g, cres, require_connected=last):
        if not last:
            if ccres is None:
                ccres = canonicalize(child, _root=cells)
            grow.append((child, ccres))
        # a last-level child is connected: its new vertex meets every
        # component of g
        if last or is_connected(child):
            report.emit(child, ccres, sink, cells)
    return grow


def _seed_worker(job) -> tuple[EnumerationReport, list[Graph] | None]:
    """Grow one seed depth-first to n_max in its own report, emitting
    connected graphs at every level above the seed's; with keep_graphs
    the emitted graphs come back too, in emission order."""
    seed, seed_canon, n_max, chi_gt, keep_graphs = job
    report = EnumerationReport(n_max=n_max, chi_filter=chi_gt)
    kept: list[Graph] | None = [] if keep_graphs else None
    sink = None if kept is None else kept.append
    stack = [(seed, seed_canon)]
    while stack:
        g, cres = stack.pop()
        stack.extend(_expand(g, cres, report, sink))
    return report, kept


def enumerate_square_free_connected(
    n_max: int,
    sink=None,
    *,
    chi_gt: int | None = None,
    workers: int = 1,
) -> EnumerationReport:
    """Generate every square-free connected graph class with 1..n_max
    vertices exactly once, in canonical labeling.

    sink, when given, is called with each emitted Graph: levels up to
    SEED_LEVEL breadth-first, then each seed's subtree depth-first.
    Seed subtrees are jobs for ordered_results, so results stream
    back in seed order for any worker count, and sink gets a seed's
    graphs, in this process, once that seed and all before it are done.
    """
    n_max = as_integer(n_max, "n_max")
    if chi_gt is not None:
        chi_gt = as_integer(chi_gt, "chi_gt")
    if not 1 <= n_max <= MAX_ENUM_N:
        raise ValueError(f"n_max must be within 1..{MAX_ENUM_N}")
    check_workers(workers)
    report = EnumerationReport(n_max=n_max, chi_filter=chi_gt)

    root = Graph.empty(1)
    root_canon = canonicalize(root)
    report.emit(root, root_canon, sink)

    level: list[tuple[Graph, CanonResult]] = [(root, root_canon)]
    for _ in range(2, min(SEED_LEVEL, n_max) + 1):
        level = [nxt for g, cres in level
                 for nxt in _expand(g, cres, report, sink)]

    seeds = level if n_max > SEED_LEVEL else []  # n_max = 1 keeps the root
    jobs = [(g, cres, n_max, chi_gt, sink is not None) for g, cres in seeds]
    for sub, graphs in ordered_results(_seed_worker, jobs, workers):
        report.merge(sub)
        for g in graphs or ():
            sink(g)

    report.filtered.sort(key=lambda s: (len(s), s))
    return report


def brute_force_enumerate(n: int, *, square_free: bool = False,
                          connected: bool = False) -> list[Graph]:
    """Oracle: all isomorphism classes on exactly n vertices by
    exhausting labeled graphs, with optional predicate filters applied
    before deduplication.  Guarded at n ≤ 7."""
    if not 1 <= n <= 7:
        raise ValueError("brute force is guarded at 1..7 vertices")
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    seen: set[tuple[int, ...]] = set()
    out: list[Graph] = []
    for mask in range(1 << len(pairs)):
        g = Graph.from_edges(n, (pairs[b] for b in iter_bits(mask)))
        if square_free and not is_square_free(g):
            continue
        if connected and not is_connected(g):
            continue
        key = canonicalize(g).key
        if key not in seen:
            seen.add(key)
            out.append(Graph(n, key))
    return out
