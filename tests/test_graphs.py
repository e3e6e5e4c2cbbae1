"""Graph container, graph6 codec, and independent-set machinery."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_passes_checks, is_independent, random_graph
from siccert.graphs import (
    CapacityError,
    Graph,
    Graph6Error,
    complement,
    cone,
    encode_graph6,
    heaviest_maximal_independent_set,
    induced_subgraph,
    is_connected,
    is_square_free,
    iter_bits,
    max_weight_independent_set,
    maximal_independent_sets,
    maximal_set_per_vertex,
    parse_graph6,
)

PAIRS = {n: [(i, j) for j in range(n) for i in range(j)] for n in range(1, 8)}


def graph_from_mask(n: int, mask: int) -> Graph:
    rows = [0] * n
    for (i, j) in PAIRS[n]:
        if mask & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        mask >>= 1
    return Graph(n, tuple(rows))


def to_networkx(nx, g: Graph):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def is_maximal_independent(g: Graph, s: int) -> bool:
    return is_independent(g, s) and not any(
        is_independent(g, s | 1 << v) for v in range(g.n) if not s >> v & 1)


class TestGraph:
    def test_constructors(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.has_edge(0, 1) and g.has_edge(1, 2) and not g.has_edge(0, 2)
        assert g.degree(1) == 2
        assert list(g.edges()) == [(0, 1), (1, 2)]
        assert g.edge_count() == 2
        assert Graph.complete(4).edge_count() == 6
        assert Graph.cycle(5).edge_count() == 5
        assert Graph.path(5).edge_count() == 4
        assert Graph.empty(3).edge_count() == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Graph(2, (1, 0))  # asymmetric
        with pytest.raises(ValueError):
            Graph(2, (1, 2))  # self loop via bit 1 of row 1? -> row mismatch
        with pytest.raises(ValueError):
            Graph(1, (1,))  # self loop
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 5)])

    @pytest.mark.parametrize("n, rows, message", [
        (0, (), "vertex count 0 outside 1..64"),
        (2, (2,), "row count does not match vertex count"),
        (2, (4, 0), "row 0 has bits beyond vertex range"),
        (3, (0, 2, 0), "self-loop at vertex 1"),
        (3, (2, 0, 0), r"adjacency not symmetric at \(0,1\)"),
        (3, (0, 4, 0), r"adjacency not symmetric at \(1,2\)"),
        (4, (0, 0, 8, 1), r"adjacency not symmetric at \(2,3\)"),
    ])
    def test_validation_messages(self, n, rows, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Graph(n, rows)

    def test_vertex_mask(self):
        assert Graph.empty(4).vertex_mask() == 0b1111


class TestGraph6:
    def test_known_strings(self):
        # complete graph on 4 vertices
        assert encode_graph6(Graph.complete(4)) == "C~"
        assert parse_graph6("C~").rows == Graph.complete(4).rows
        # empty graph
        assert encode_graph6(Graph.empty(5)) == "D??"
        # header form accepted
        assert parse_graph6(">>graph6<<C~").rows == Graph.complete(4).rows

    def test_zero_vertices(self):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6("?")
        assert str(exc.value) == "vertex count 0 outside 1..62 (byte offset 0)"

    def test_round_trip_exhaustive_small(self):
        # every labeled graph on up to 5 vertices
        for n in range(1, 6):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = graph_from_mask(n, mask)
                assert parse_graph6(encode_graph6(g)).rows == g.rows

    def test_round_trip_sampled(self):
        rng = random.Random(20240817)
        for n in (6, 7, 13, 20, 40, 62):
            for _ in range(60):
                g = random_graph(n, rng.random(), rng)
                s = encode_graph6(g)
                h = parse_graph6(s)
                assert h.n == g.n and h.rows == g.rows

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 64), st.binary(max_size=400))
    def test_parsed_graphs_pass_the_checks(self, n, data):
        # any body of the right length in the graph6 range either has
        # nonzero padding or parses to a graph Graph's checks accept
        head = chr(63 + n) if n <= 62 else "~?" + chr(63 + (n >> 6)) + \
            chr(63 + (n & 63))
        size = (n * (n - 1) // 2 + 5) // 6
        body = "".join(chr(63 + b % 64) for b in data[:size])
        body += "?" * (size - len(body))
        try:
            g = parse_graph6(head + body)
        except Graph6Error as exc:
            assert str(exc).startswith("nonzero padding bits")
            return
        assert g.n == n
        assert_passes_checks(g)
        assert encode_graph6(g) == head + body

    def test_codec_against_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(1, 30)
            g = random_graph(n, rng.random(), rng)
            h = to_networkx(nx, g)
            theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert encode_graph6(g) == theirs
            assert parse_graph6(theirs) == g
            back = nx.from_graph6_bytes(encode_graph6(g).encode())
            assert nx.utils.graphs_equal(back, h)

    def test_parse_errors_name_byte_offset(self):
        with pytest.raises(Graph6Error, match="byte offset 0"):
            parse_graph6("")
        with pytest.raises(Graph6Error, match="byte offset 1"):
            parse_graph6("C" + chr(20))
        with pytest.raises(Graph6Error, match="byte offset"):
            parse_graph6("C~~")  # trailing garbage
        with pytest.raises(Graph6Error):
            parse_graph6("C")  # truncated
        # nonzero padding bits
        bad = "A" + chr(63 + 0b100000 + 1)
        with pytest.raises(Graph6Error):
            parse_graph6(bad)

    def test_capacity(self):
        # n = 63, 64 take the long form: "~" and n in three 6-bit groups
        for n, header in ((63, "~??~"), (64, "~?@?")):
            g = Graph.path(n)
            s = encode_graph6(g)
            assert s[:4] == header
            assert len(s) == 4 + (n * (n - 1) // 2 + 5) // 6
            assert parse_graph6(s) == g
        assert encode_graph6(Graph.path(62))[0] == chr(63 + 62)

    def test_long_form_against_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(63)
        for n in (63, 64, 63, 64, 63, 64):
            g = random_graph(n, rng.random(), rng)
            h = to_networkx(nx, g)
            theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert encode_graph6(g) == theirs
            assert parse_graph6(theirs) == g
            back = nx.from_graph6_bytes(encode_graph6(g).encode())
            assert nx.utils.graphs_equal(back, h)

    def test_parse_against_networkx(self):
        # networkx writes the strings, so the decode is checked against
        # an independent codec, in the short and the long form
        nx = pytest.importorskip("networkx")
        rng = random.Random(64)
        cases = [nx.complete_graph(64), nx.complete_graph(62),
                 nx.empty_graph(64), nx.path_graph(63)]
        for n in [rng.randint(1, 62) for _ in range(40)] + [63, 64] * 5:
            cases.append(nx.gnp_random_graph(n, rng.random(),
                                             seed=rng.randrange(2 ** 30)))
        for h in cases:
            text = nx.to_graph6_bytes(h, header=False).decode().strip()
            g = parse_graph6(text)
            assert g.n == h.number_of_nodes()
            assert set(g.edges()) == {tuple(sorted(e)) for e in h.edges()}

    def test_padding_error_offset(self):
        # n = 2 has one data bit; the rest of the byte is padding
        with pytest.raises(Graph6Error,
                           match=r"^nonzero padding bits \(byte offset 1\)$"):
            parse_graph6("A" + chr(63 + 0b100001))
        with pytest.raises(Graph6Error,
                           match=r"^nonzero padding bits \(byte offset 3\)$"):
            parse_graph6("E?" + chr(63 + 0b111111) + chr(63 + 0b111001))

    @pytest.mark.parametrize("text, offset", [
        ("~?", 2),  # truncated header
        ("~??}", 1),  # n = 62 must use the short form
        ("~?@@", 1),  # n = 65 is beyond the vertex limit
        ("~~??????", 1),  # the 36-bit header of n > 258047
        ("~??~" + "?" * 10, 14),  # n = 63 needs 4 + 326 bytes
    ])
    def test_long_form_errors(self, text, offset):
        with pytest.raises(Graph6Error, match=f"byte offset {offset}"):
            parse_graph6(text)


class TestPredicates:
    def test_square_free(self):
        assert is_square_free(Graph.cycle(5))
        assert not is_square_free(Graph.cycle(4))
        assert not is_square_free(Graph.complete(4))
        assert is_square_free(Graph.complete(3))
        assert is_square_free(Graph.path(6))
        # K23 contains a 4-cycle
        k23 = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3),
                                   (1, 4)])
        assert not is_square_free(k23)

    def test_square_free_matches_definition(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 9)
            g = random_graph(n, rng.random(), rng)
            naive = True
            for i in range(n):
                for j in range(i + 1, n):
                    common = (g.rows[i] & g.rows[j]).bit_count()
                    if common >= 2:
                        naive = False
            assert is_square_free(g) == naive

    def test_connected(self):
        assert is_connected(Graph.cycle(6))
        assert is_connected(Graph.complete(1))
        assert not is_connected(Graph.empty(2))
        two = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert not is_connected(two)

    def test_independent(self):
        g = Graph.cycle(5)
        assert is_independent(g, 0b00101)
        assert not is_independent(g, 0b00011)
        assert is_independent(g, 0)


class TestIndependentSets:
    def test_maximal_independent_sets_c5(self):
        sets = maximal_independent_sets(Graph.cycle(5))
        assert len(sets) == 5
        assert all(bin(s).count("1") == 2 for s in sets)
        assert sets == sorted(sets)

    def test_maximal_independent_sets_complete(self):
        assert maximal_independent_sets(Graph.complete(4)) == [1, 2, 4, 8]

    def test_maximal_independent_sets_empty_graph(self):
        assert maximal_independent_sets(Graph.empty(3)) == [0b111]

    def test_against_brute_force(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(1, 8)
            g = random_graph(n, rng.random(), rng)
            fast = set(maximal_independent_sets(g))
            slow = set()
            for mask in range(1 << n):
                if not is_independent(g, mask):
                    continue
                if any(is_independent(g, mask | (1 << v))
                       for v in range(n) if not mask >> v & 1):
                    continue
                slow.add(mask)
            assert fast == slow

    def test_capacity_error(self):
        # complement of a perfect matching on 2k vertices has 3^k
        # maximal independent sets... use an empty complement trick:
        # K_{m} complement (empty graph) has exactly one, so build a
        # graph with many: disjoint triangles -> 3^t maximal sets
        t = 12  # 3^12 = 531441 > default cap
        edges = []
        for b in range(t):
            v = 3 * b
            edges += [(v, v + 1), (v, v + 2), (v + 1, v + 2)]
        g = Graph.from_edges(3 * t, edges)
        with pytest.raises(CapacityError):
            maximal_independent_sets(g, cap=100_000)

    def test_max_weight_independent_set(self):
        g = Graph.cycle(5)
        w = [Fraction(1)] * 5
        mask, val = max_weight_independent_set(g, w)
        assert val == 2 and is_independent(g, mask)
        w = [Fraction(5), Fraction(1), Fraction(1), Fraction(1), Fraction(1)]
        mask, val = max_weight_independent_set(g, w)
        assert val == 6  # vertex 0 plus one of {2, 3}
        assert mask >> 0 & 1

    def test_max_weight_vs_sweep(self):
        rng = random.Random(3)
        for _ in range(150):
            n = rng.randint(1, 9)
            g = random_graph(n, rng.random(), rng)
            w = [Fraction(rng.randint(0, 10), rng.randint(1, 7))
                 for _ in range(n)]
            _, val = max_weight_independent_set(g, w)
            best = max(sum((w[v] for v in range(n) if m >> v & 1),
                           start=Fraction(0))
                       for m in range(1 << n) if is_independent(g, m))
            assert val == best

    def test_separation_oracle_against_networkx(self):
        # the heaviest maximal clique of the complement, found by
        # networkx, is the heaviest independent set
        nx = pytest.importorskip("networkx")
        rng = random.Random(41)
        for trial in range(120):
            n = rng.randint(1, 14)
            g = random_graph(n, rng.random(), rng)
            if trial % 2:
                w = [Fraction(rng.randint(0, 12), rng.randint(1, 9))
                     for _ in range(n)]
            else:
                w = [rng.choice([0.0, rng.random()]) for _ in range(n)]
            mask, val = heaviest_maximal_independent_set(g, w)
            assert is_maximal_independent(g, mask)
            best = max(sum(w[v] for v in c)
                       for c in nx.find_cliques(nx.complement(to_networkx(nx, g))))
            own = sum(w[v] for v in iter_bits(mask))
            if trial % 2:
                assert val == best == own
            else:
                assert val == pytest.approx(best)
                assert own == pytest.approx(best)

    def test_maximal_set_per_vertex(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.random(), rng)
            sets = maximal_set_per_vertex(g)
            assert len(set(sets)) == len(sets)
            assert all(is_maximal_independent(g, s) for s in sets)
            union = 0
            for s in sets:
                union |= s
            assert union == g.vertex_mask()


class TestDerivedGraphs:
    def test_complement(self):
        g = Graph.cycle(5)
        h = complement(g)
        assert h.edge_count() == 5
        assert complement(h).rows == g.rows

    def test_cone(self):
        g = Graph.cycle(4)
        c = cone(g)
        assert c.n == 5
        assert all(c.has_edge(i, 4) for i in range(4))
        assert c.edge_count() == 8
        assert cone(Graph.complete(3)).rows == Graph.complete(4).rows

    def test_cone_guard(self):
        with pytest.raises(ValueError) as exc:
            cone(Graph.empty(64))
        assert str(exc.value) == "cone would exceed 64 vertices"

    def test_induced(self):
        g = Graph.cycle(5)
        h = induced_subgraph(g, 0b00111)  # path 0-1-2
        assert h.n == 3 and h.edge_count() == 2

    @pytest.mark.parametrize("mask", [0b1000, 0b1111, -1])
    def test_induced_outside_vertices(self, mask):
        with pytest.raises(ValueError, match="outside the graph"):
            induced_subgraph(Graph.path(3), mask)

    def test_induced_empty_mask(self):
        with pytest.raises(ValueError) as exc:
            induced_subgraph(Graph.empty(3), 0)
        assert str(exc.value) == "induced subgraph needs at least one vertex"
