"""Canonical labelings, automorphism generators, and vertex orbits.

Individualization-refinement search.  The canonical form of a graph
is the lexicographically smallest relabeled adjacency-row tuple over
the leaves the search explores; equal-key leaves yield automorphisms,
which both prune the search and give the vertex orbits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, iter_bits


def equitable_partition(g: Graph, cells: list[int] | None = None,
                        splitters: list[int] | None = None, *,
                        _keep: int = -1) -> list[int] | None:
    """Refine an ordered partition until every cell sees uniform degree
    into every other cell.  Cells stay in order; a splitting cell is
    replaced in place by its parts, ordered by ascending degree count.
    Deterministic, so the result is isomorphism-invariant.

    cells must partition the vertex set (default: one cell).  Every
    input cell starts on the work stack of splitters, popped last
    first.  splitters, when given, is that initial stack instead.  Its
    precondition: the input is an equitable partition except for one
    cell split into exactly the parts in splitters (the search passes
    [{v}, cell - v]).  Every other input cell is then a cell of that
    equitable partition and would split nothing when popped, so the
    result is the same list as without splitters.  Refinement stops
    once every cell is a singleton.

    _keep is private to the census: a mask of vertices the last cell
    must meet (default: any).  The result is None when the last cell of
    the refined partition misses _keep, and otherwise the same list as
    without _keep.  A split cell's parts take its place, so the last
    cell only shrinks: once it misses _keep, refinement stops there.
    """
    rows = g.rows
    n = g.n
    if cells is None:
        cells = [g.vertex_mask()]
    cells = list(cells)
    work = list(cells if splitters is None else splitters)
    while work and len(cells) < n:
        w = work.pop()
        # a cell missing N(w) has all counts 0 and cannot split
        reach = 0
        m = w
        while m:
            low = m & -m
            reach |= rows[low.bit_length() - 1]
            m ^= low
        out = []
        for c in cells:
            if not c & reach or not c & (c - 1):
                out.append(c)
                continue
            groups: dict[int, int] = {}
            m = c
            while m:
                low = m & -m
                k = (rows[low.bit_length() - 1] & w).bit_count()
                groups[k] = groups.get(k, 0) | low
                m ^= low
            if len(groups) == 1:
                out.append(c)
            else:
                parts = [groups[k] for k in sorted(groups)]
                out.extend(parts)
                work.extend(parts)
        cells = out
        if not cells[-1] & _keep:
            return None
    return cells if cells[-1] & _keep else None


def _relabel_rows(rows: tuple[int, ...], order: tuple[int, ...]) -> tuple[int, ...]:
    """Adjacency rows after placing original vertex order[i] at label i."""
    n = len(order)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    out = []
    for v in order:
        row = 0
        m = rows[v]
        while m:
            low = m & -m
            row |= 1 << pos[low.bit_length() - 1]
            m ^= low
        out.append(row)
    return tuple(out)


def _orbit_closure(n: int, generators: list[tuple[int, ...]]) -> list[int]:
    """Union-find closure of the generator permutations; orbit masks
    ordered by lowest contained vertex."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p in generators:
        for v in range(n):
            ra, rb = find(v), find(p[v])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    masks: dict[int, int] = {}
    for v in range(n):
        r = find(v)
        masks[r] = masks.get(r, 0) | (1 << v)
    return [masks[r] for r in sorted(masks)]


@dataclass(frozen=True)
class CanonResult:
    """Outcome of a canonical labeling search.

    key: adjacency rows of the canonical relabeling (the form itself).
    order: original vertex placed at each canonical label.
    generators: automorphisms found during the search; they generate
        the full automorphism group.
    orbits: vertex orbit masks under that group, by lowest vertex.
    """

    key: tuple[int, ...]
    order: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]
    orbits: tuple[int, ...]

    def orbit_of(self, v: int) -> int:
        for m in self.orbits:
            if m >> v & 1:
                return m
        raise ValueError(f"vertex {v} out of range")


def canonicalize(g: Graph, *, _root: list[int] | None = None) -> CanonResult:
    """Canonical labeling, automorphism generators and orbits of g.

    _root is private to the census: equitable_partition(g) when the
    caller has just computed it, so the search need not refine it again.
    """
    rows = g.rows
    n = g.n
    best_key: tuple[int, ...] | None = None
    best_order: tuple[int, ...] | None = None
    generators: list[tuple[int, ...]] = []

    def in_tried_orbit(v: int, tried: int, path: list[int]) -> bool:
        # orbit pruning: only automorphisms fixing every individualized
        # vertex on the path may identify candidates at this node
        usable = [p for p in generators if all(p[q] == q for q in path)]
        if not usable:
            return False
        orbit = 1 << v
        frontier = orbit
        while frontier:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                u = low.bit_length() - 1
                for p in usable:
                    nxt |= 1 << p[u]
                m ^= low
            frontier = nxt & ~orbit
            orbit |= frontier
            if orbit & tried:
                return True
        return False

    def rec(cells: list[int], path: list[int]):
        nonlocal best_key, best_order
        tgt = -1
        for i, c in enumerate(cells):
            if c.bit_count() > 1:
                tgt = i
                break
        if tgt < 0:
            order = tuple(c.bit_length() - 1 for c in cells)
            key = _relabel_rows(rows, order)
            if best_key is None or key < best_key:
                best_key = key
                best_order = order
            elif key == best_key:
                perm = [0] * n
                for i in range(n):
                    perm[best_order[i]] = order[i]
                generators.append(tuple(perm))
            return
        cell = cells[tgt]
        tried = 0
        for v in iter_bits(cell):
            if tried and in_tried_orbit(v, tried, path):
                continue
            tried |= 1 << v
            parts = [1 << v, cell ^ (1 << v)]
            split = cells[:tgt] + parts + cells[tgt + 1:]
            rec(equitable_partition(g, split, parts), path + [v])

    rec(equitable_partition(g) if _root is None else _root, [])
    assert best_key is not None and best_order is not None
    return CanonResult(best_key, best_order, tuple(generators),
                       tuple(_orbit_closure(n, generators)))


def canonical_graph(g: Graph) -> Graph:
    return Graph(g.n, canonicalize(g).key)


def canonical_key(g: Graph) -> tuple[int, ...]:
    return canonicalize(g).key


def automorphism_orbits(g: Graph) -> tuple[int, ...]:
    return canonicalize(g).orbits
