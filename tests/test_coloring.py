"""Exact chromatic and fractional chromatic numbers."""

import hashlib
import random
from fractions import Fraction

import pytest

from conftest import is_independent
from siccert.coloring import (
    chi_greater_than,
    chromatic_number,
    fractional_chromatic_number,
    is_colorable,
    max_clique,
    rh_sic_graph_test,
    sic_necessary_conditions,
)
from siccert.enumeration import (
    THIRTEEN_CHI4_G6,
    enumerate_square_free_connected,
)
from siccert.graphs import (
    Graph,
    cone,
    maximal_independent_sets,
    parse_graph6,
)

PETERSEN = Graph.from_edges(10, [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])

YU_OH = parse_graph6("L?AB?vOLDPHa`o")
TWELVE = parse_graph6("K_GTCceEQHHB")


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def check_coloring(g: Graph, coloring, k: int):
    assert len(set(coloring)) <= k
    for i, j in g.edges():
        assert coloring[i] != coloring[j]


class TestChromatic:
    def test_known_values(self):
        cases = [
            (Graph.complete(1), 1), (Graph.complete(4), 4),
            (Graph.cycle(5), 3), (Graph.cycle(6), 2),
            (Graph.path(7), 2), (Graph.empty(4), 1),
            (PETERSEN, 3), (YU_OH, 4), (TWELVE, 4),
        ]
        for g, chi in cases:
            res = chromatic_number(g)
            assert res.value == chi
            check_coloring(g, res.coloring, chi)

    def test_clique_lower_bound_witness(self):
        res = chromatic_number(Graph.complete(5))
        assert res.closed_by_clique
        assert res.clique.bit_count() == 5

    def test_is_colorable(self):
        assert is_colorable(Graph.cycle(6), 2) is not None
        assert is_colorable(Graph.cycle(5), 2) is None
        col = is_colorable(PETERSEN, 3)
        check_coloring(PETERSEN, col, 3)

    def test_max_clique(self):
        size, mask = max_clique(Graph.complete(6))
        assert size == 6 and mask.bit_count() == 6
        assert max_clique(Graph.cycle(5))[0] == 2
        assert max_clique(PETERSEN)[0] == 2

    def test_max_clique_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randint(1, 14)
            g = random_graph(n, rng.random(), rng)
            size, mask = max_clique(g)
            verts = [v for v in range(n) if mask >> v & 1]
            assert len(verts) == size
            assert all(g.has_edge(u, v) for i, u in enumerate(verts)
                       for v in verts[i + 1:])
            G = nx.Graph(list(g.edges()))
            G.add_nodes_from(range(n))
            assert nx.max_weight_clique(G, weight=None)[1] == size

    def test_brute_force_agreement(self):
        rng = random.Random(8)
        for _ in range(60):
            n = rng.randint(1, 7)
            g = random_graph(n, rng.random(), rng)
            chi = chromatic_number(g).value
            # smallest k admitting a proper coloring, brute force
            def colorable(k):
                def rec(v):
                    if v == n:
                        return True
                    for c in range(k):
                        if all(not g.has_edge(v, u) or colors[u] != c
                               for u in range(v)):
                            colors[v] = c
                            if rec(v + 1):
                                return True
                    return False
                colors = [-1] * n
                return rec(0)
            brute = next(k for k in range(1, n + 1) if colorable(k))
            assert chi == brute


class TestChiGreaterThan:
    def test_shortcuts(self):
        assert chi_greater_than(Graph.complete(5), 4)  # its own 4-core
        assert chi_greater_than(Graph.cycle(7), 2)  # odd cycle: its 2-core
        assert not chi_greater_than(Graph.cycle(8), 2)
        assert not chi_greater_than(Graph.path(9), 3)  # peels away
        assert not chi_greater_than(PETERSEN, 3)
        assert chi_greater_than(YU_OH, 3)
        assert not chi_greater_than(Graph.empty(3), 1)
        assert chi_greater_than(Graph.complete(2), 1)

    def test_agrees_with_the_search(self):
        # peeling vertices of degree < d decides nothing the
        # colorability search would not: every class with n <= 10 and
        # seeded random graphs, at every d from -1 to 5
        graphs = []
        enumerate_square_free_connected(10, sink=graphs.append)
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(1, 14)
            graphs.append(random_graph(n, rng.random(), rng))
        for g in graphs:
            for d in range(-1, 6):
                assert chi_greater_than(g, d) == (is_colorable(g, d) is None)

    def test_no_colors(self):
        # no graph (n >= 1) has a coloring with 0 or fewer colors
        for g in (Graph.complete(1), Graph.empty(3), PETERSEN):
            assert is_colorable(g, 0) is None
            assert is_colorable(g, -1) is None
            assert chi_greater_than(g, 0)

    def test_agrees_with_chromatic_number(self):
        rng = random.Random(6)
        for _ in range(80):
            n = rng.randint(1, 8)
            g = random_graph(n, rng.random(), rng)
            chi = chromatic_number(g).value
            for d in range(1, 6):
                assert chi_greater_than(g, d) == (chi > d)


class TestFractional:
    def test_known_values(self):
        assert fractional_chromatic_number(Graph.cycle(5)).value == Fraction(5, 2)
        assert fractional_chromatic_number(Graph.cycle(7)).value == Fraction(7, 3)
        assert fractional_chromatic_number(Graph.complete(6)).value == 6
        assert fractional_chromatic_number(Graph.path(4)).value == 2
        assert fractional_chromatic_number(PETERSEN).value == Fraction(5, 2)
        assert fractional_chromatic_number(Graph.empty(5)).value == 1

    def test_pinned_values(self):
        assert fractional_chromatic_number(YU_OH).value == Fraction(35, 11)
        assert fractional_chromatic_number(TWELVE).value == Fraction(3)
        assert fractional_chromatic_number(cone(YU_OH)).value == Fraction(46, 11)

    def test_weights_are_an_lp_certificate(self):
        thirteen = [parse_graph6(s) for s in THIRTEEN_CHI4_G6]
        for g in [Graph.cycle(5), PETERSEN, YU_OH, cone(YU_OH)] + thirteen:
            res = fractional_chromatic_number(g)
            assert sum(res.weights) == res.value
            assert all(w >= 0 for w in res.weights)
            # feasibility against the full list: every maximal
            # independent set carries weight <= 1, and the recorded
            # tight sets are maximal independent and carry exactly 1
            for s in maximal_independent_sets(g):
                tot = sum(res.weights[v] for v in range(g.n) if s >> v & 1)
                assert tot <= 1
            assert res.tight_sets
            for s in res.tight_sets:
                tot = sum(res.weights[v] for v in range(g.n) if s >> v & 1)
                assert tot == 1
                assert is_independent(g, s)
                assert all(not is_independent(g, s | 1 << v)
                           for v in range(g.n) if not s >> v & 1)
            assert all(s in res.tight_sets for s, _ in res.cover)

    def test_dual_cover_certifies(self):
        for g in (Graph.cycle(5), Graph.cycle(7), YU_OH):
            res = fractional_chromatic_number(g)
            # dual: fractional cover by independent sets of total size
            # equal to the value, covering every vertex at least once
            assert sum(y for _, y in res.cover) == res.value
            for v in range(g.n):
                assert sum(y for s, y in res.cover if s >> v & 1) >= 1
            for s, y in res.cover:
                assert y > 0 and is_independent(g, s)

    def test_sandwich(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(1, 8)
            g = random_graph(n, rng.random(), rng)
            lo = max_clique(g)[0]
            res = fractional_chromatic_number(g)
            hi = chromatic_number(g).value
            assert lo <= res.value <= hi


# first 16 hex digits of the sha256 of "value weights cover" for each
# class, taken with the full-tableau LP solver; Bland's rule picks one
# optimal vertex among several, and these pin which
CHI_F_GOLDEN = {
    "L?AEB?oDDIQSUS": "b0364b4576d9e299",
    "L?AEB?oFDHISPS": "7407ba52c6bb87e8",
    "L?ABA_oo_iREJa": "caf094a886bd0852",
    "L?ABAagF@bWgHc": "9a54ed43e28a4904",
    "L?ABEagE`gH``c": "e21a810f3aae09e4",
    "L?AB?vOLDPHa`o": "13e3b2dd7741a9c2",
    "L?BDA_gEREHcac": "737c74609a0ceb42",
    "L?`D@bCUCbDgWc": "c57448949a301b05",
    "K_GTCceEQHHB": "ae2c778fd1f0f519",
    "cone(L?AB?vOLDPHa`o)": "e19be109e0efee04",
}


def test_fractional_golden():
    assert set(THIRTEEN_CHI4_G6) < set(CHI_F_GOLDEN)
    for name, want in CHI_F_GOLDEN.items():
        if name.startswith("cone("):
            g = cone(parse_graph6(name[5:-1]))
        else:
            g = parse_graph6(name)
        r = fractional_chromatic_number(g)
        text = f"{r.value} {r.weights} {r.cover}"
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == want, name


class TestSicScreening:
    def test_necessary_conditions(self):
        both = sic_necessary_conditions(YU_OH, 3)
        assert both.chi_ok and both.chi_f_ok
        twelve = sic_necessary_conditions(TWELVE, 3)
        assert twelve.chi_ok and not twelve.chi_f_ok
        neither = sic_necessary_conditions(Graph.cycle(6), 3)
        assert not neither.chi_ok and not neither.chi_f_ok

    def test_chi_ok_agrees_with_chromatic_number(self):
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randint(1, 8)
            g = random_graph(n, rng.random(), rng)
            chi = chromatic_number(g).value
            for d in (2, 3, 4):
                assert sic_necessary_conditions(g, d).chi_ok == (chi > d)

    def test_rh_graph_test(self):
        assert rh_sic_graph_test(YU_OH, 3)
        assert rh_sic_graph_test(cone(YU_OH), 4)
        assert not rh_sic_graph_test(TWELVE, 3)
        assert not rh_sic_graph_test(Graph.complete(4), 4)
        with pytest.raises(ValueError):
            rh_sic_graph_test(YU_OH, 3, r=0)
        with pytest.raises(ValueError):
            rh_sic_graph_test(YU_OH, 1, r=2)
