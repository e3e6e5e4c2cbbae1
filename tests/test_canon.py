"""Canonical forms, automorphism generators, and vertex orbits."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import THIRTEEN_CHI4_G6, random_graph, random_square_free
from siccert.canon import (
    automorphism_orbits,
    canonical_graph,
    canonical_key,
    canonicalize,
    equitable_partition,
)
from siccert.graphs import Graph, iter_bits, parse_graph6


def relabel(g: Graph, perm: list[int]) -> Graph:
    rows = [0] * g.n
    for i in range(g.n):
        for j in range(g.n):
            if g.rows[i] >> j & 1:
                rows[perm[i]] |= 1 << perm[j]
    return Graph(g.n, tuple(rows))


def is_automorphism(g: Graph, perm: tuple[int, ...]) -> bool:
    return relabel(g, list(perm)).rows == g.rows


class TestEquitablePartition:
    def test_regular_graph_single_cell(self):
        cells = equitable_partition(Graph.cycle(6))
        assert cells == [0b111111]

    def test_star_splits_by_degree(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        cells = equitable_partition(g)
        assert sorted(c.bit_count() for c in cells) == [1, 3]

    def test_refines_initial_cells(self):
        g = Graph.cycle(4)
        cells = equitable_partition(g, [0b0001, 0b1110])
        # individualizing vertex 0 separates its neighbors {1,3} from 2
        assert 0b0001 in cells and 0b1010 in cells and 0b0100 in cells


class TestCanonicalForm:
    def test_relabeling_invariance(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 10)
            g = random_graph(n, rng.random(), rng)
            key = canonical_key(g)
            for _ in range(20):
                perm = list(range(n))
                rng.shuffle(perm)
                assert canonical_key(relabel(g, perm)) == key

    def test_distinguishes_nonisomorphic(self):
        # same degree sequence, not isomorphic: C6 vs two triangles
        c6 = Graph.cycle(6)
        tt = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                  (3, 4), (4, 5), (3, 5)])
        assert canonical_key(c6) != canonical_key(tt)

    def test_canonical_graph_idempotent(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_graph(rng.randint(1, 9), rng.random(), rng)
            cg = canonical_graph(g)
            assert canonical_graph(cg).rows == cg.rows
            assert canonical_key(cg) == canonical_key(g)

    def test_order_is_permutation_realizing_key(self):
        rng = random.Random(17)
        for _ in range(40):
            g = random_graph(rng.randint(2, 9), rng.random(), rng)
            res = canonicalize(g)
            inv = [0] * g.n
            for pos, v in enumerate(res.order):
                inv[v] = pos
            assert relabel(g, inv).rows == res.key


class TestAutomorphisms:
    def test_generators_are_automorphisms(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_graph(rng.randint(2, 9), rng.random(), rng)
            res = canonicalize(g)
            for perm in res.generators:
                assert is_automorphism(g, perm)

    def test_orbits_cycle(self):
        res = canonicalize(Graph.cycle(7))
        assert res.orbits == (0b1111111,)
        assert all(res.orbit_of(v) == 0b1111111 for v in range(7))

    def test_orbit_of_outside_vertex(self):
        with pytest.raises(ValueError) as exc:
            canonicalize(Graph.empty(3)).orbit_of(5)
        assert str(exc.value) == "vertex 5 out of range"

    def test_orbits_path(self):
        # path 0-1-2-3: ends {0,3} and middles {1,2}
        orbits = set(automorphism_orbits(Graph.path(4)))
        assert orbits == {0b1001, 0b0110}

    def test_orbits_petersen(self):
        petersen = Graph.from_edges(10, [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
            (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
            (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])
        assert automorphism_orbits(petersen) == (0b1111111111,)

    def test_orbits_closed_under_brute_force_automorphisms(self):
        import itertools
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(2, 6)
            g = random_graph(n, rng.random(), rng)
            orbits = automorphism_orbits(g)
            # orbit of v under the full automorphism group, brute force
            full = {v: {v} for v in range(n)}
            for perm in itertools.permutations(range(n)):
                if is_automorphism(g, perm):
                    for v in range(n):
                        full[v].add(perm[v])
            for v in range(n):
                mine = next(o for o in orbits if o >> v & 1)
                assert mine == sum(1 << u for u in full[v])


class TestAgainstNetworkx:
    def test_key_equality_is_isomorphism(self):
        nx = pytest.importorskip("networkx")

        def to_nx(g: Graph):
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            return h

        rng = random.Random(23)
        for _ in range(80):
            n = rng.randint(1, 12)
            g = random_square_free(n, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            twin = relabel(g, perm)
            other = random_square_free(n, rng)
            for h in (twin, other):
                same_key = canonical_key(g) == canonical_key(h)
                assert same_key == nx.is_isomorphic(to_nx(g), to_nx(h))


class TestThirteenVertexClasses:
    def test_known_strings_pairwise_distinct(self):
        keys = {canonical_key(parse_graph6(s)) for s in THIRTEEN_CHI4_G6}
        assert len(keys) == 8


def reference_refinement(g: Graph, cells: list[int]) -> list[int]:
    """Textbook refinement: every input cell is a splitter, and each
    splitter is tried against every cell.  Same split order as
    equitable_partition, with none of its shortcuts."""
    cells = list(cells)
    work = list(cells)
    while work:
        w = work.pop()
        out = []
        for c in cells:
            groups: dict[int, int] = {}
            for v in range(g.n):
                if c >> v & 1:
                    k = (g.rows[v] & w).bit_count()
                    groups[k] = groups.get(k, 0) | (1 << v)
            parts = [groups[k] for k in sorted(groups)]
            out.extend(parts)
            if len(parts) > 1:
                work.extend(parts)
        cells = out
    return cells


@st.composite
def graphs_with_partitions(draw):
    """A seeded random graph on n <= 14 vertices, or two disjoint
    copies of one (so that some cells stay wide), and a random ordered
    partition of its vertices."""
    n = draw(st.integers(1, 14))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    p = rng.choice([0.15, 0.3, 0.5, 0.8])
    if n >= 2 and draw(st.booleans()):
        half = random_graph(n // 2, p, rng).rows
        n = 2 * (n // 2)
        g = Graph(n, half + tuple(r << n // 2 for r in half))
    else:
        g = random_graph(n, p, rng)
    k = draw(st.integers(1, 4))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    rank = draw(st.permutations(range(k)))
    cells = [sum(1 << v for v in range(n) if labels[v] == k)
             for k in rank]
    return g, [c for c in cells if c]


class TestRefinementProperties:
    @settings(max_examples=300, deadline=None)
    @given(graphs_with_partitions())
    def test_ordered_equitable_refinement(self, case):
        g, initial = case
        cells = equitable_partition(g, initial)
        # an ordered refinement: each input cell is replaced in place
        # by consecutive parts covering exactly it
        i = 0
        for c in initial:
            acc = 0
            while acc != c:
                assert cells[i] & ~c == 0 and cells[i] & acc == 0
                acc |= cells[i]
                i += 1
        assert i == len(cells)
        # equitable: uniform neighbour counts from each cell into each
        for a in cells:
            for b in cells:
                counts = {(g.rows[v] & b).bit_count()
                          for v in range(g.n) if a >> v & 1}
                assert len(counts) == 1
        assert equitable_partition(g, cells) == cells
        assert cells == reference_refinement(g, initial)

    @settings(max_examples=300, deadline=None)
    @given(graphs_with_partitions(), st.integers(0, 2 ** 32))
    def test_splitters_of_one_split_cell(self, case, pick):
        g, initial = case
        cells = equitable_partition(g, initial)
        wide = [i for i, c in enumerate(cells) if c.bit_count() > 1]
        assume(wide)
        i = wide[pick % len(wide)]
        cell = cells[i]
        members = [v for v in range(g.n) if cell >> v & 1]
        v = members[pick // len(wide) % len(members)]
        parts = [1 << v, cell ^ (1 << v)]
        split = cells[:i] + parts + cells[i + 1:]
        assert equitable_partition(g, split, parts) == \
            equitable_partition(g, split)

    @settings(max_examples=300, deadline=None)
    @given(graphs_with_partitions(), st.integers(0, 2 ** 64), st.booleans())
    def test_keep_stops_exactly_when_the_last_cell_misses_it(
            self, case, pick, one_vertex):
        g, initial = case
        # one vertex, as the census passes, or any mask within the graph
        keep = 1 << pick % g.n if one_vertex else pick & g.vertex_mask()
        full = equitable_partition(g, initial)
        assert equitable_partition(g, initial, _keep=keep) == \
            (full if full[-1] & keep else None)


def reference_canonicalize(g: Graph) -> tuple:
    """The individualization-refinement search as it stood before its
    bit walks were inlined and before it could take the root partition
    from its caller: (key, order, generators, orbits)."""
    n = g.n
    best: list = [None, None]
    generators: list[tuple[int, ...]] = []

    def relabel_rows(order):
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        return tuple(sum(1 << pos[u] for u in iter_bits(g.rows[v]))
                     for v in order)

    def in_tried_orbit(v, tried, path):
        usable = [p for p in generators if all(p[q] == q for q in path)]
        orbit = frontier = 1 << v
        while usable and frontier:
            nxt = 0
            for u in iter_bits(frontier):
                for p in usable:
                    nxt |= 1 << p[u]
            frontier = nxt & ~orbit
            orbit |= frontier
            if orbit & tried:
                return True
        return False

    def rec(cells, path):
        wide = [i for i, c in enumerate(cells) if c.bit_count() > 1]
        if not wide:
            order = tuple(c.bit_length() - 1 for c in cells)
            key = relabel_rows(order)
            if best[0] is None or key < best[0]:
                best[:] = [key, order]
            elif key == best[0]:
                perm = [0] * n
                for i in range(n):
                    perm[best[1][i]] = order[i]
                generators.append(tuple(perm))
            return
        tgt = wide[0]
        cell = cells[tgt]
        tried = 0
        for v in iter_bits(cell):
            if tried and in_tried_orbit(v, tried, path):
                continue
            tried |= 1 << v
            parts = [1 << v, cell ^ (1 << v)]
            split = cells[:tgt] + parts + cells[tgt + 1:]
            rec(equitable_partition(g, split, parts), path + [v])

    rec(equitable_partition(g), [])
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for p in generators:
        for v in range(n):
            ra, rb = find(v), find(p[v])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    orbits: dict[int, int] = {}
    for v in range(n):
        orbits[find(v)] = orbits.get(find(v), 0) | 1 << v
    return (best[0], best[1], tuple(generators),
            tuple(orbits[r] for r in sorted(orbits)))


def square_free_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Random edges in random order, each kept with probability p
    unless it would close a 4-cycle."""
    rows = [0] * n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    for i, j in pairs:
        if rng.random() >= p:
            continue
        # a 4-cycle through ij is a path i-a-b-j with a, b new to it
        if any(rows[a] & rows[j] & ~(1 << i)
               for a in iter_bits(rows[i] & ~(1 << j))):
            continue
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def seeded_graphs(count: int, seed: int):
    """count seeded graphs on 1..18 vertices: random, square-free,
    circulant (vertex-transitive, so the search finds automorphisms and
    prunes by orbit), and two disjoint copies of a dense square-free
    graph."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(1, 18)
        kind = i % 4
        p = rng.uniform(0.1, 0.9)
        if kind == 0:
            yield random_graph(n, p, rng)
        elif kind == 1:
            yield square_free_graph(n, p, rng)
        elif kind == 2:  # at most 12 vertices, as their searches are long
            n = min(n, 12)
            jumps = {rng.randint(1, max(1, n // 2))
                     for _ in range(rng.randint(1, 3))}
            yield Graph.from_edges(n, {tuple(sorted((v, (v + d) % n)))
                                       for v in range(n) for d in jumps
                                       if (v + d) % n != v})
        else:
            half = square_free_graph(max(1, n // 2), 0.5 + p / 2, rng)
            k = half.n
            yield Graph(2 * k, half.rows + tuple(r << k for r in half.rows))


class TestRootReuse:
    def test_same_result_from_the_callers_root_partition(self):
        automorphic = 0
        for g in seeded_graphs(10_000, 2026):
            res = canonicalize(g)
            assert canonicalize(g, _root=equitable_partition(g)) == res
            assert (res.key, res.order, res.generators, res.orbits) == \
                reference_canonicalize(g)
            automorphic += bool(res.generators)
        # the orbit pruning of the search is exercised, not only leaves
        assert automorphic > 3_000
