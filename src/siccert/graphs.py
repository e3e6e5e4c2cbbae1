"""Bit-matrix graphs, the graph6 codec, and structural predicates.

Graphs are immutable: a vertex count plus one adjacency bitmask per
vertex.  Vertex sets are plain ints used as bitmasks, so all the
set algebra is &, |, ~ and bit_count().
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_VERTICES = 64
GRAPH6_MAX = 62  # the largest n of graph6's one-byte (short) header


class Graph6Error(ValueError):
    """Raised on malformed graph6 input; carries the offending byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class CapacityError(RuntimeError):
    """Raised when an enumeration exceeds its configured cap."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with bitmask rows."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside 1..{MAX_VERTICES}")
        if len(self.rows) != self.n:
            raise ValueError("row count does not match vertex count")
        rows = self.rows
        full = (1 << self.n) - 1
        for i, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {i} has bits beyond vertex range")
            if row >> i & 1:
                raise ValueError(f"self-loop at vertex {i}")
        for i, row in enumerate(rows):
            while row:
                low = row & -row
                j = low.bit_length() - 1
                if not rows[j] >> i & 1:
                    raise ValueError(f"adjacency not symmetric at ({i},{j})")
                row ^= low

    @classmethod
    def _trusted(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        """The Graph(n, rows) of rows already known valid, built without
        __post_init__'s checks.  Only for callers whose rows are valid
        by construction: the census's _extend (a valid parent's rows
        plus a new vertex joined both ways to a set of its vertices,
        at most 13 vertices in all),
        the canonical form in EnumerationReport.emit (a relabeling of a
        valid graph's rows) and parse_graph6 (its header gives n in
        1..64, and it sets each decoded pair in both rows, never on the
        diagonal and never past n)."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, rows=rows)
        return g

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph(n, (0,) * n)

    @staticmethod
    def complete(n: int) -> "Graph":
        full = (1 << n) - 1
        return Graph(n, tuple(full ^ (1 << i) for i in range(n)))

    @staticmethod
    def cycle(n: int) -> "Graph":
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @staticmethod
    def path(n: int) -> "Graph":
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in iter_bits(self.rows[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1


# ---------------------------------------------------------------------------
# graph6 codec: the short form for n <= 62, the long form for n = 63, 64
# ---------------------------------------------------------------------------

def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string.

    The header is one byte n + 63 for n <= 62, or "~" and n in three
    6-bit groups for n = 63, 64.  Bits are the upper triangle in
    column-major order, packed into 6-bit groups offset by 63.  Strict:
    length must match, padding bits must be zero, and n must use the
    shorter header.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    for k, ch in enumerate(s):
        o = ord(ch)
        if not 63 <= o <= 126:
            raise Graph6Error(f"character {ch!r} outside graph6 range 63..126", k)
    if s[0] != "~":
        start, n = 1, ord(s[0]) - 63
        if not 1 <= n <= GRAPH6_MAX:
            raise Graph6Error(f"vertex count {n} outside 1..{GRAPH6_MAX}", 0)
    else:
        if len(s) < 4:
            raise Graph6Error("truncated long-form graph6 header", len(s))
        start, n = 4, (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | ord(s[3]) - 63
        if not GRAPH6_MAX < n <= MAX_VERTICES:
            raise Graph6Error(f"long-form vertex count {n} outside "
                              f"{GRAPH6_MAX + 1}..{MAX_VERTICES}", 1)
    nbits = n * (n - 1) // 2
    expect = start + (nbits + 5) // 6
    if len(s) != expect:
        off = min(len(s), expect)
        raise Graph6Error(
            f"length {len(s)} does not match {expect} for n={n}", off)
    rows = [0] * n
    # column-major upper triangle: column j holds the bits base..base+j-1,
    # the pairs (i, j) for i < j, and set bits are met in ascending order
    j, base = 1, 0
    for k in range(start, len(s)):
        group = ord(s[k]) - 63
        first = 6 * (k - start) + 5  # the bit of group's lowest position
        while group:
            top = group.bit_length() - 1
            group ^= 1 << top
            bit = first - top
            if bit >= nbits:
                raise Graph6Error("nonzero padding bits", k)
            while bit >= base + j:
                base += j
                j += 1
            i = bit - base
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph._trusted(n, tuple(rows))


def encode_graph6(g: Graph) -> str:
    """Encode a graph as its graph6 string, in the long form for n > 62."""
    n = g.n
    if n <= GRAPH6_MAX:
        out = [chr(63 + n)]
    else:
        out = ["~", chr(63 + (n >> 12)), chr(63 + (n >> 6 & 63)), chr(63 + (n & 63))]
    group = 0
    nb = 0
    for j in range(1, g.n):
        for i in range(j):
            group = group << 1 | (g.rows[i] >> j & 1)
            nb += 1
            if nb == 6:
                out.append(chr(63 + group))
                group = 0
                nb = 0
    if nb:
        out.append(chr(63 + (group << (6 - nb))))
    return "".join(out)


# ---------------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------------

def is_square_free(g: Graph) -> bool:
    """True iff no two distinct vertices share two or more neighbors."""
    rows = g.rows
    for u in range(g.n):
        ru = rows[u]
        for v in range(u + 1, g.n):
            if (ru & rows[v]).bit_count() >= 2:
                return False
    return True


def connected_components(g: Graph) -> list[int]:
    """Component vertex masks, ordered by lowest contained vertex."""
    comps = []
    todo = g.vertex_mask()
    while todo:
        start = todo & -todo
        seen = start
        frontier = start
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= g.rows[v]
            frontier = nxt & ~seen
            seen |= frontier
        comps.append(seen)
        todo &= ~seen
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


# ---------------------------------------------------------------------------
# maximal independent sets
# ---------------------------------------------------------------------------

def maximal_independent_sets(g: Graph, cap: int = 100_000) -> list[int]:
    """Inclusion-maximal independent sets as bitmasks, ascending.

    Bron-Kerbosch with pivoting on the complement graph: maximal
    independent sets of g are maximal cliques of its complement.
    The pivot is the candidate with the most candidate neighbors,
    ties broken by lowest index.  Raises CapacityError past cap.
    """
    full = g.vertex_mask()
    comp = tuple((full ^ g.rows[v]) & ~(1 << v) for v in range(g.n))
    out: list[int] = []

    def extend(r: int, p: int, x: int):
        if not p and not x:
            out.append(r)
            if len(out) > cap:
                raise CapacityError(
                    f"more than {cap} maximal independent sets")
            return
        px = p | x
        pivot = -1
        best = -1
        for u in iter_bits(px):
            d = (comp[u] & p).bit_count()
            if d > best:
                best = d
                pivot = u
        for v in iter_bits(p & ~comp[pivot]):
            bit = 1 << v
            extend(r | bit, p & comp[v], x & comp[v])
            p &= ~bit
            x |= bit

    extend(0, full, 0)
    out.sort()
    return out


def max_weight_independent_set(g: Graph, weights) -> tuple[int, object]:
    """Exact maximum-weight independent set for nonnegative weights.

    Branch and bound over bitmask candidates; returns (mask, weight).
    Weight type only needs +, comparison, zero (Fraction or int work).
    Deterministic: vertices are tried in descending weight order,
    ties by index, so the returned mask is reproducible.
    """
    order = sorted(range(g.n), key=lambda v: (-weights[v], v))
    zero = weights[0] - weights[0]
    best_mask = 0
    best_val = zero

    def rec(idx: int, avail: int, cur_mask: int, cur_val):
        nonlocal best_mask, best_val
        if cur_val > best_val:
            best_val = cur_val
            best_mask = cur_mask
        bound = cur_val
        for k in range(idx, g.n):
            if avail >> order[k] & 1:
                bound = bound + weights[order[k]]
        if bound <= best_val:
            return
        for k in range(idx, g.n):
            v = order[k]
            if avail >> v & 1:
                rec(k + 1, avail & ~(g.rows[v] | (1 << v)),
                    cur_mask | (1 << v), cur_val + weights[v])
                avail &= ~(1 << v)

    rec(0, g.vertex_mask(), 0, zero)
    return best_mask, best_val


def _greedy_maximal_extension(g: Graph, s: int) -> int:
    """Extend an independent set to a maximal one, lowest index first."""
    blocked = s
    for v in iter_bits(s):
        blocked |= g.rows[v]
    for v in range(g.n):
        if not blocked >> v & 1:
            s |= 1 << v
            blocked |= g.rows[v] | (1 << v)
    return s


def maximal_set_per_vertex(g: Graph) -> list[int]:
    """The greedy maximal independent set through each vertex, without
    repeats: rows that bound an LP over independent sets."""
    return list(dict.fromkeys(_greedy_maximal_extension(g, 1 << v)
                              for v in range(g.n)))


def heaviest_maximal_independent_set(g: Graph, weights) -> tuple[int, object]:
    """Separation oracle of the LPs over independent sets: (mask,
    weight) of max_weight_independent_set extended to a maximal set,
    which adds no weight when the weights are nonnegative."""
    mask, val = max_weight_independent_set(g, weights)
    return _greedy_maximal_extension(g, mask), val


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def cone(g: Graph) -> Graph:
    """Add one vertex adjacent to every vertex of g."""
    if g.n + 1 > MAX_VERTICES:
        raise ValueError(f"cone would exceed {MAX_VERTICES} vertices")
    apex = 1 << g.n
    rows = tuple(r | apex for r in g.rows) + (g.vertex_mask(),)
    return Graph(g.n + 1, rows)


def complement(g: Graph) -> Graph:
    full = g.vertex_mask()
    return Graph(g.n, tuple((full ^ r) & ~(1 << v) for v, r in enumerate(g.rows)))


def induced_subgraph(g: Graph, s: int) -> Graph:
    """Subgraph induced by the vertex bitmask s, relabeled 0..k-1."""
    if s & ~g.vertex_mask():
        raise ValueError("vertex mask names vertices outside the graph")
    verts = list(iter_bits(s))
    if not verts:
        raise ValueError("induced subgraph needs at least one vertex")
    pos = {v: i for i, v in enumerate(verts)}
    rows = []
    for v in verts:
        row = 0
        for u in iter_bits(g.rows[v] & s):
            row |= 1 << pos[u]
        rows.append(row)
    return Graph(len(verts), tuple(rows))
