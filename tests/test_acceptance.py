"""Acceptance gate: seven end-to-end criteria with one printed
pass/fail line each.

Criterion 3's full thirteen-vertex census takes about three and a
half minutes on one core; by default the known classes are verified
directly and the full run is enabled with SICCERT_FULL_CENSUS=1.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import siccert
from conftest import record_criterion
from siccert import fixture_path
from siccert.canon import canonical_key
from siccert.certify import (
    certify_sic,
    emit_inequality,
    noncontextual_bound,
    noncontextual_bound_sweep,
    parse_vector_file,
    quantum_value,
)
from siccert.coloring import fractional_chromatic_number, rh_sic_graph_test
from siccert.enumeration import (
    THIRTEEN_CHI4_G6,
    YU_OH_G6,
    brute_force_enumerate,
    enumerate_square_free_connected,
)
from siccert.exact import (
    GaussianRational,
    LinearProgram,
    gm_is_hermitian,
    gm_quadratic_form,
    lp_solve_exact,
    psd_check_exact,
)
from siccert.graphs import (
    Graph,
    cone,
    encode_graph6,
    is_connected,
    is_square_free,
    parse_graph6,
)
from siccert.realize import find_realization, objective_and_gradient

TWELVE_G6 = "K_GTCceEQHHB"


@pytest.fixture(scope="module")
def census12():
    """One CLI census run over n <= 12 with the chi > 3 filter; both
    census criteria read from it."""
    # the child imports the same siccert as this process, installed or not
    src = str(Path(siccert.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "siccert.cli", "enumerate",
         "--max-n", "12", "--chi-gt", "3"],
        capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": path})
    wall = time.time() - t0
    assert proc.returncode == 0, proc.stderr
    counts = {}
    total = None
    graphs = []
    for line in proc.stdout.strip().splitlines():
        parts = line.split()
        if parts[0] == "total":
            total = int(parts[1])
        elif len(parts) == 2 and parts[0].isdigit():
            counts[int(parts[0])] = int(parts[1])
        else:
            graphs.append(line)
    return counts, total, graphs, wall


def test_criterion_1_census_total(census12):
    counts, total, _, wall = census12
    ok = total == 143129
    ok = ok and wall <= 30 * 60
    for n in range(1, 7):
        oracle = len(brute_force_enumerate(n, square_free=True,
                                           connected=True))
        ok = ok and counts[n] == oracle
    # n = 7 oracle value, frozen from the same brute-force procedure
    ok = ok and counts[7] == 57
    # the levels grown inside the seed subtrees (OEIS A077269)
    ok = ok and counts[11] == 18502 and counts[12] == 120221
    assert record_criterion(
        1, ok,
        f"census over n <= 12 totals {total} (expected 143129) in "
        f"{wall:.0f}s; per-n counts for n <= 7 match the brute-force "
        "oracle, and n = 11, 12 match OEIS A077269 (18502, 120221)")


def test_criterion_2_unique_twelve_vertex_outlier(census12):
    _, _, graphs, _ = census12
    ok = len(graphs) == 1
    detail = f"{len(graphs)} graphs passed the filter"
    if ok:
        g = parse_graph6(graphs[0])
        cf = fractional_chromatic_number(g).value
        ok = (g.n == 12 and cf == Fraction(3, 1)
              and canonical_key(g) == canonical_key(parse_graph6(TWELVE_G6)))
        detail = (f"unique chi > 3 graph has {g.n} vertices and exact "
                  f"fractional chromatic number {cf}")
    assert record_criterion(2, ok, detail)


def test_criterion_3_thirteen_vertex_classes():
    full = os.environ.get("SICCERT_FULL_CENSUS") == "1"
    ok = len(THIRTEEN_CHI4_G6) == 8
    keys = set()
    chif = {}
    for s in THIRTEEN_CHI4_G6:
        g = parse_graph6(s)
        keys.add(canonical_key(g))
        ok = ok and g.n == 13 and is_square_free(g) and is_connected(g)
        from siccert.coloring import chi_greater_than
        ok = ok and chi_greater_than(g, 3)
        v = fractional_chromatic_number(g).value
        if v > 3:
            chif[s] = v
    ok = ok and len(keys) == 8
    ok = ok and sorted(chif.values()) == [Fraction(19, 6), Fraction(35, 11),
                                          Fraction(13, 4)]
    mode = "direct verification of the known classes"
    if full:
        report = enumerate_square_free_connected(13, chi_gt=3)
        found13 = [s for s in report.filtered if parse_graph6(s).n == 13]
        ok = ok and {canonical_key(parse_graph6(s)) for s in found13} == keys
        mode = f"full census run ({len(found13)} classes found)"
    assert record_criterion(
        3, ok,
        f"thirteen-vertex classes with chi > 3: 8 distinct, all "
        f"square-free connected; exactly 3 with fractional chromatic "
        f"number > 3 (19/6, 35/11, 13/4); {mode}")


def test_criterion_4_yu_oh_pipeline():
    t0 = time.time()
    g = parse_graph6(YU_OH_G6)
    ok = fractional_chromatic_number(g).value == Fraction(35, 11)
    s = parse_vector_file(fixture_path("yu_oh_d3.vec").read_text())
    cert = certify_sic(s)
    ok = ok and cert.status == "SIC" and cert.y is not None and cert.y < 1
    if cert.status == "SIC":
        ineq = emit_inequality(s, cert)
        ok = ok and noncontextual_bound(cert.graph, cert.w) == cert.y
        ok = ok and ineq.bound == cert.y
        wf = [float(x) for x in cert.w]
        rng = np.random.default_rng(2024)
        for _ in range(100):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            v /= np.linalg.norm(v)
            ok = ok and quantum_value(s, wf, v) > float(cert.y)
    wall = time.time() - t0
    ok = ok and wall <= 60
    assert record_criterion(
        4, ok,
        f"Yu-Oh pipeline: chi_f = 35/11, certified SIC with exact "
        f"y = {cert.y}, noncontextual bound equals y, quantum value "
        f"beats y on 100 seeded pure states ({wall:.1f}s)")


def test_criterion_5_cone_reproduction():
    t0 = time.time()
    g = parse_graph6(YU_OH_G6)
    cg = cone(g)
    cf = fractional_chromatic_number(cg).value
    ok = cf == Fraction(46, 11) == Fraction(35, 11) + 1
    ok = ok and rh_sic_graph_test(cg, 4)
    s = parse_vector_file(fixture_path("cone_yu_oh_d4.vec").read_text())
    cert = certify_sic(s)
    ok = ok and cert.status == "NOT_SIC"
    obs = cert.obstruction
    ok = ok and obs is not None and obs.independent_set == 1 << 13
    if obs is not None:
        state = list(obs.state)
        ok = ok and not any(state[:3]) and bool(state[3])
    wall = time.time() - t0
    ok = ok and wall <= 60
    assert record_criterion(
        5, ok,
        f"cone reproduction: chi_f(cone) = {cf} = 35/11 + 1 passes the "
        f"graph-level test for d = 4, yet the d = 4 realization is "
        f"NOT_SIC with obstruction state e4 ({wall:.1f}s)")


def _prop_graph6_round_trip() -> bool:
    pairs = {n: [(i, j) for j in range(n) for i in range(j)]
             for n in range(1, 8)}
    for n in range(1, 8):
        for mask in range(1 << (n * (n - 1) // 2)):
            rows = [0] * n
            m = mask
            for (i, j) in pairs[n]:
                if m & 1:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                m >>= 1
            g = Graph(n, tuple(rows))
            if parse_graph6(encode_graph6(g)).rows != g.rows:
                return False
    return True


def _prop_orbit_constancy() -> bool:
    rng = random.Random(606)
    for _ in range(50):
        n = rng.randint(1, 10)
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        g = Graph(n, tuple(rows))
        key = canonical_key(g)
        for _ in range(100):
            perm = list(range(n))
            rng.shuffle(perm)
            prows = [0] * n
            for i in range(n):
                for j in range(n):
                    if g.rows[i] >> j & 1:
                        prows[perm[i]] |= 1 << perm[j]
            if canonical_key(Graph(n, tuple(prows))) != key:
                return False
    return True


def _prop_lp_duality() -> bool:
    # the solver re-verifies the optimality certificate by exact
    # substitution on every solve; run a spread of random programs and
    # re-check strong duality here as well
    rng = random.Random(77)
    optima = 0
    for _ in range(150):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        lp = LinearProgram.make(
            [Fraction(rng.randint(-4, 4)) for _ in range(n)],
            [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
             for _ in range(m)],
            [Fraction(rng.randint(-2, 6)) for _ in range(m)])
        res = lp_solve_exact(lp)
        if res.status != "optimal":
            continue
        optima += 1
        primal = sum(c * x for c, x in zip(lp.objective, res.solution))
        dual = sum(y * b for y, b in zip(res.dual, lp.rhs))
        if primal != res.value or dual != res.value:
            return False
    return optima >= 30


def _prop_psd_eigensign() -> bool:
    rng = np.random.default_rng(1234)
    for trial in range(1000):
        d = int(rng.integers(1, 6))
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, _ = np.linalg.qr(z)
        eig = rng.uniform(0.5, 2.0, size=d)
        if trial % 2:
            eig[int(rng.integers(0, d))] *= -1
        f = (q * eig) @ q.conj().T
        m = [[GaussianRational(Fraction(float(f[i, j].real)).limit_denominator(10 ** 6),
                               Fraction(float(f[i, j].imag)).limit_denominator(10 ** 6))
              for j in range(d)] for i in range(d)]
        for i in range(d):
            m[i][i] = GaussianRational(m[i][i].re, Fraction(0))
            for j in range(i):
                m[i][j] = m[j][i].conjugate()
        if not gm_is_hermitian(m):
            return False
        res = psd_check_exact(m)
        ff = np.array([[complex(m[i][j]) for j in range(d)]
                       for i in range(d)])
        lam = float(np.linalg.eigvalsh(ff)[0])
        if res.psd != (lam > -1e-9):
            return False
        if not res.psd:
            val = gm_quadratic_form(m, list(res.witness))
            if val.im != 0 or not val.re < 0:
                return False
    return True


def _prop_bound_equals_sweep() -> bool:
    yu = parse_graph6(YU_OH_G6)
    fixtures = [
        Graph.cycle(5), Graph.cycle(7), Graph.path(8), Graph.complete(6),
        Graph.from_edges(6, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5),
                             (2, 3), (2, 4), (2, 5)]),
        parse_graph6(TWELVE_G6), yu, cone(yu), Graph.cycle(16),
    ]
    rng = random.Random(313)
    for g in fixtures:
        assert g.n <= 16
        for _ in range(3):
            w = [Fraction(rng.randint(0, 12), rng.randint(1, 9))
                 for _ in range(g.n)]
            if noncontextual_bound(g, w) != noncontextual_bound_sweep(g, w):
                return False
    return True


def _prop_gradient_fd() -> bool:
    rng = np.random.default_rng(55)
    for _ in range(5):
        n, d = 7, 3
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        g = Graph(n, tuple(rows))
        if g.edge_count() == 0:
            continue
        for kind in ("real", "complex"):
            if kind == "complex":
                v = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
                x = np.concatenate([v.real, v.imag], axis=1).ravel()
            else:
                v = rng.normal(size=(n, d))
                x = v.ravel()
            _, grad = objective_and_gradient(v, g)

            def unpack(z):
                if kind == "complex":
                    mm = z.reshape(n, 2 * d)
                    return mm[:, :d] + 1j * mm[:, d:]
                return z.reshape(n, d)

            h = 1e-6
            fd = np.zeros_like(x)
            for k in range(x.size):
                xp, xm = x.copy(), x.copy()
                xp[k] += h
                xm[k] -= h
                fd[k] = (objective_and_gradient(unpack(xp), g)[0]
                         - objective_and_gradient(unpack(xm), g)[0]) / (2 * h)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            if rel > 1e-6:
                return False
    return True


def test_criterion_6_property_suites():
    results = {
        "graph6 round-trip (all graphs n <= 7)": _prop_graph6_round_trip(),
        "canonical-form constancy (100 relabelings x 50 graphs)":
            _prop_orbit_constancy(),
        "LP strong duality by substitution": _prop_lp_duality(),
        "exact PSD vs float eigensign (1000 Hermitians)":
            _prop_psd_eigensign(),
        "noncontextual bound equals 2^n sweep (fixtures n <= 16)":
            _prop_bound_equals_sweep(),
        "realize gradient vs finite differences (1e-6)": _prop_gradient_fd(),
    }
    ok = all(results.values())
    failed = [k for k, v in results.items() if not v]
    detail = "all six property suites hold" if ok else \
        "failed: " + "; ".join(failed)
    assert record_criterion(6, ok, detail)


def test_criterion_7_realization_outcomes():
    yu = find_realization(parse_graph6(YU_OH_G6), 3, restarts=50,
                          tol=1e-12, delta=1e-6, seed=0)
    c4 = find_realization(Graph.cycle(4), 3, restarts=50, seed=0)
    k4 = find_realization(Graph.complete(4), 3, restarts=50, seed=0)
    ok = (yu.status == "found" and yu.residual <= 1e-12
          and c4.status == "degenerate" and k4.status == "failed")
    assert record_criterion(
        7, ok,
        f"realization outcomes over 50 restarts: 13-vertex graph found "
        f"(residual {yu.residual:.1e}), C4 degenerate, K4 failed "
        f"(best residual {k4.residual:.2f})")
