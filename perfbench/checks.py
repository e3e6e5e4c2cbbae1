"""Answer checks that share no code with siccert.

Graphs are decoded and compared with networkx, exact linear algebra is
done with Python integers, Fractions and sympy, and realizations are
checked through numpy Gram matrices.  Every check raises CheckError
with a reason when an answer is wrong.  The program's result objects
are only read (their fields), never asked to recompute anything.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
import sympy

HERE = Path(__file__).resolve().parent
COUNTS_FILE = HERE / "census_counts.json"

# smallest order of a square-free connected graph with chromatic
# number above 3 (a unique class on twelve vertices)
SMALLEST_CHI4_ORDER = 12


class CheckError(Exception):
    pass


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckError(reason)


# ---------------------------------------------------------------------------
# square-free graph census
# ---------------------------------------------------------------------------

def is_square_free(g: nx.Graph) -> bool:
    """No two distinct vertices share two or more neighbours."""
    nbrs = {v: set(g[v]) for v in g}
    nodes = list(g)
    for a in range(len(nodes)):
        for b in range(a + 1, len(nodes)):
            if len(nbrs[nodes[a]] & nbrs[nodes[b]]) >= 2:
                return False
    return True


def atlas_counts(max_n: int = 7) -> dict[int, int]:
    """Connected square-free classes per order, from networkx's atlas of
    every graph on at most seven vertices (one graph per class)."""
    counts: dict[int, int] = {}
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if 1 <= n <= max_n and nx.is_connected(g) and is_square_free(g):
            counts[n] = counts.get(n, 0) + 1
    return counts


def reference_counts(max_n: int) -> dict[int, int]:
    """Per-order reference counts: the atlas re-derivation for n <= 7,
    then the networkx growth recorded by refcounts.py."""
    ref = atlas_counts(min(max_n, 7))
    grown = json.loads(COUNTS_FILE.read_text())["counts"]
    for n in range(8, max_n + 1):
        ref[n] = grown[str(n)]
    return ref


def parse_census_table(text: str, max_n: int) -> tuple[dict[int, int], list[str]]:
    """Split CLI enumerate output into the count table and the graph6
    lines printed before it."""
    lines = text.splitlines()
    require(len(lines) >= max_n + 1, "census output is truncated")
    table = lines[-(max_n + 1):]
    counts: dict[int, int] = {}
    for line in table[:-1]:
        n, c = line.split()
        counts[int(n)] = int(c)
    label, total = table[-1].split()
    require(label == "total", f"last census line is {table[-1]!r}")
    require(sum(counts.values()) == int(total),
            "census total is not the sum of its levels")
    return counts, lines[:-(max_n + 1)]


def check_counts(counts: dict[int, int], max_n: int) -> None:
    ref = reference_counts(max_n)
    require(sorted(counts) == list(range(1, max_n + 1)),
            f"census levels {sorted(counts)} are not 1..{max_n}")
    for n in range(1, max_n + 1):
        require(counts[n] == ref[n],
                f"census finds {counts[n]} classes at n={n}, reference {ref[n]}")


def decode(line: str) -> nx.Graph:
    return nx.from_graph6_bytes(line.encode())


def check_filtered(lines: list[str], max_n: int) -> None:
    """Graphs printed by the chi > 3 filter: none exist below twelve
    vertices."""
    if max_n < SMALLEST_CHI4_ORDER:
        require(not lines, f"chi > 3 graphs reported below n={SMALLEST_CHI4_ORDER}")


def check_census_lines(lines: list[str], max_n: int, rng, sample: int) -> None:
    """Unfiltered census output: distinct lines, per-order counts equal
    to the reference, and a seeded sample that decodes under networkx to
    a connected square-free graph of the stated order."""
    require(len(set(lines)) == len(lines), "census output repeats a line")
    per_order: dict[int, int] = {}
    for line in lines:
        n = ord(line[0]) - 63
        per_order[n] = per_order.get(n, 0) + 1
    check_counts(per_order, max_n)
    for line in rng.sample(lines, min(sample, len(lines))):
        g = decode(line)
        require(g.number_of_nodes() == ord(line[0]) - 63,
                f"{line} decodes to the wrong order")
        require(nx.is_connected(g), f"{line} is not connected")
        require(is_square_free(g), f"{line} is not square-free")


# ---------------------------------------------------------------------------
# SIC certificates
# ---------------------------------------------------------------------------

def exact_graph(vectors: list[list[int]]) -> nx.Graph:
    """Orthogonality graph of integer vectors, by exact inner products."""
    g = nx.Graph()
    g.add_nodes_from(range(len(vectors)))
    for i, u in enumerate(vectors):
        for j in range(i + 1, len(vectors)):
            if sum(a * b for a, b in zip(u, vectors[j])) == 0:
                g.add_edge(i, j)
    return g


def max_independent_weight(g: nx.Graph, w: list[Fraction]) -> Fraction:
    """Maximum w-weight of an independent set, as the maximum-weight
    clique of the complement (networkx wants integer weights)."""
    den = math.lcm(*(x.denominator for x in w))
    comp = nx.complement(g)
    for v in comp:
        comp.nodes[v]["w"] = int(w[v] * den)
    _, best = nx.max_weight_clique(comp, weight="w")
    return Fraction(best, den)


def check_sic(vectors: list[list[int]], cert, expect_y: Fraction | None) -> None:
    require(cert.status == "SIC", f"expected SIC, got {cert.status}")
    n, d = len(vectors), len(vectors[0])
    w = [Fraction(x) for x in cert.w]
    y = Fraction(cert.y)
    require(len(w) == n, "weight count differs from vector count")
    require(all(x >= 0 for x in w), "a weight is negative")
    require(y < 1, f"bound y = {y} is not below 1")
    g = exact_graph(vectors)
    best = max_independent_weight(g, w)
    require(y >= best, f"an independent set weighs {best} > y = {y}")
    if expect_y is not None:
        require(y == expect_y, f"y = {y}, expected {expect_y}")
    m = -sympy.eye(d)
    for wi, v in zip(w, vectors):
        if wi:
            col = sympy.Matrix(v)
            m += sympy.Rational(wi.numerator, wi.denominator) \
                * (col * col.T) / sum(a * a for a in v)
    require(m.is_positive_semidefinite is True,
            "sum of w_i P_i - 1 is not positive semidefinite")


def check_not_sic(vectors: list[list[int]], cert) -> None:
    """The obstruction state is orthogonal to every vector outside its
    independent set and forces that set's weight to at least 1."""
    require(cert.status == "NOT_SIC", f"expected NOT_SIC, got {cert.status}")
    obs = cert.obstruction
    x = [(Fraction(z.re), Fraction(z.im)) for z in obs.state]
    require(len(x) == len(vectors[0]), "obstruction state has the wrong length")
    xx = sum(a * a + b * b for a, b in x)
    require(xx > 0, "obstruction state is zero")
    members = [i for i in range(len(vectors)) if obs.independent_set >> i & 1]
    g = exact_graph(vectors)
    require(all(not g.has_edge(i, j) for i in members for j in members),
            "obstruction set is not independent")

    def overlap(v):
        re_ = sum(vi * a for vi, a in zip(v, (p[0] for p in x)))
        im_ = sum(vi * b for vi, b in zip(v, (p[1] for p in x)))
        return re_ * re_ + im_ * im_

    for j, v in enumerate(vectors):
        if j not in members:
            require(overlap(v) == 0, f"obstruction state overlaps vector {j}")
    if members:
        total = sum(overlap(vectors[i]) / (sum(a * a for a in vectors[i]) * xx)
                    for i in members)
        require(Fraction(obs.forced_bound) == 1 / total,
                "forced bound does not match the state's overlaps")
    require(Fraction(obs.forced_bound) >= 1, "forced bound is below 1")


_CONVERGED = re.compile(
    r"^numeric input: cutting planes reached min eigenvalue (\S+),")


def check_numeric_undecided(cert) -> None:
    require(cert.status == "UNDECIDED", f"expected UNDECIDED, got {cert.status}")
    hit = _CONVERGED.match(cert.diagnostics)
    require(hit is not None,
            f"diagnostic is not cutting-plane convergence: {cert.diagnostics!r}")
    require(float(hit.group(1)) >= 1 - 1e-6,
            "cutting planes stopped below the operator bound")


# ---------------------------------------------------------------------------
# realizations
# ---------------------------------------------------------------------------

def check_realization(line: str, d: int, result, tol: float, delta: float) -> None:
    """A found realization: unit rows, orthogonal on every edge, and no
    two non-adjacent rows on the same ray."""
    if result.status != "found":
        return
    g = decode(line)
    u = np.asarray(result.vectors)
    require(u.shape == (g.number_of_nodes(), d), f"vectors have shape {u.shape}")
    require(bool(np.all(np.isfinite(u))), "vectors are not finite")
    gram = np.abs(u @ u.conj().T)
    require(bool(np.allclose(np.diag(gram), 1.0, atol=1e-9)), "rows are not unit")
    for i in range(u.shape[0]):
        for j in range(i + 1, u.shape[0]):
            if g.has_edge(i, j):
                require(gram[i, j] <= math.sqrt(tol),
                        f"edge ({i},{j}) overlap {gram[i, j]:.2e}")
            else:
                require(1.0 - gram[i, j] >= delta,
                        f"non-adjacent rows {i},{j} are parallel")


def same_realization(a, b) -> None:
    require(a.status == b.status and a.restart_index == b.restart_index,
            "pool and serial searches picked different restarts")
    require(bool(np.allclose(a.vectors, b.vectors, rtol=0, atol=1e-12)),
            "pool and serial searches returned different vectors")
