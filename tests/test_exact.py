"""Exact rational arithmetic: formats, LP solver, PSD factorization."""

import hashlib
import random
import re
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gauss_jordan_nullspace
from siccert.exact import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    LinearProgram,
    LpCertificateError,
    LpResult,
    _BlandPath,
    _verify_optimal,
    as_fraction,
    format_gaussian,
    format_rational,
    gm_is_hermitian,
    gm_quadratic_form,
    inner,
    lp_solve_exact,
    nullspace,
    over_lcm,
    parse_gaussian,
    psd_check_exact,
    psd_reconstruct,
    rationalize,
)


def parse_rational(s: str) -> Fraction:
    """The reader of format_rational's "p/q" text."""
    return Fraction(s.strip())


class TestRationalFormat:
    def test_format(self):
        assert format_rational(Fraction(3)) == "3/1"
        assert format_rational(Fraction(-35, 11)) == "-35/11"
        assert format_rational(Fraction(0)) == "0/1"

    def test_parse(self):
        assert parse_rational("35/11") == Fraction(35, 11)
        assert parse_rational(" -2 ") == -2
        assert parse_rational("7") == 7

    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(200):
            q = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            assert parse_rational(format_rational(q)) == q

    def test_rationalize(self):
        assert rationalize(0.5, 10) == Fraction(1, 2)
        assert rationalize(float(Fraction(35, 11)), 100) == Fraction(35, 11)
        with pytest.raises(ValueError):
            rationalize(float("nan"), 10)
        with pytest.raises(ValueError):
            rationalize(1.0, 0)


class TestGaussianRational:
    def test_arithmetic(self):
        a = GaussianRational(Fraction(1, 2), Fraction(1, 3))
        b = GaussianRational(Fraction(2), Fraction(-1))
        assert (a + b).re == Fraction(5, 2)
        assert (a * b).re == Fraction(1, 2) * 2 - Fraction(1, 3) * -1
        assert (a * a.conjugate()).re == a.abs2()
        assert (a / a) == GR_ONE
        assert complex(a) == complex(0.5, 1 / 3)
        assert bool(GR_ZERO) is False and bool(a) is True

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError) as exc:
            GaussianRational.of(1) / 0
        assert str(exc.value) == "division by zero Gaussian rational"

    def test_format_parse_round_trip(self):
        rng = random.Random(2)
        for _ in range(300):
            z = GaussianRational(
                Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
                Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
            assert parse_gaussian(format_gaussian(z)) == z

    def test_parse_forms(self):
        assert parse_gaussian("1/2+1/3 i") == GaussianRational(
            Fraction(1, 2), Fraction(1, 3))
        assert parse_gaussian("1/2-1/3i") == GaussianRational(
            Fraction(1, 2), Fraction(-1, 3))
        assert parse_gaussian("-2") == GaussianRational(Fraction(-2), Fraction(0))
        with pytest.raises(ValueError):
            parse_gaussian("")

    def test_parse_pure_imaginary(self):
        assert parse_gaussian("1/2i") == GaussianRational(Fraction(0),
                                                          Fraction(1, 2))

    def test_inner_conjugates_first_slot(self):
        u = [GaussianRational(Fraction(0), Fraction(1)), GR_ZERO]
        v = [GR_ONE, GR_ZERO]
        # <iu e1, e1> = conj(i) = -i
        assert inner(u, v) == GaussianRational(Fraction(0), Fraction(-1))


GAUSSIAN = st.builds(
    lambda a, b, c, e: GaussianRational(Fraction(a, b), Fraction(c, e)),
    st.integers(-3, 3), st.integers(1, 4), st.integers(-3, 3),
    st.integers(1, 4))


class TestNullspace:
    def test_dimensions(self):
        rng = random.Random(3)
        for _ in range(100):
            d = rng.randint(1, 5)
            r = rng.randint(0, d)
            rows = [[GaussianRational(Fraction(rng.randint(-3, 3)),
                                      Fraction(rng.randint(-3, 3)))
                     for _ in range(d)] for _ in range(r)]
            basis = nullspace(rows, d)
            # every basis vector annihilates every row
            for x in basis:
                for row in rows:
                    s = GR_ZERO
                    for a, b in zip(row, x):
                        s = s + a * b
                    assert s == GR_ZERO
            # rank-nullity: nullity = d - rank; rank <= r
            assert len(basis) >= d - r

    def test_known_kernel(self):
        rows = [[GR_ONE, GR_ONE, GR_ZERO]]
        basis = nullspace(rows, 3)
        assert len(basis) == 2

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 5).flatmap(lambda d: st.tuples(
        st.just(d), st.lists(st.lists(GAUSSIAN, min_size=d, max_size=d),
                             max_size=d + 2))))
    def test_equals_gauss_jordan(self, case):
        # integer-row elimination against the Gaussian-rational RREF:
        # the same basis, vector for vector and entry for entry
        d, rows = case
        if len(rows) > 2:  # a dependent row
            rows[-1] = [a * GaussianRational(Fraction(1, 2), Fraction(1, 3))
                        + b for a, b in zip(rows[0], rows[1])]
        assert nullspace(rows, d) == gauss_jordan_nullspace(rows, d)


def random_gaussian(rng: random.Random) -> GaussianRational:
    return GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                            Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


def to_sympy(sp, m):
    return sp.Matrix([[sp.Rational(x.re.numerator, x.re.denominator)
                       + sp.I * sp.Rational(x.im.numerator, x.im.denominator)
                       for x in row] for row in m])


class TestAgainstSympy:
    def test_nullspace(self):
        sp = pytest.importorskip("sympy")
        rng = random.Random(31)
        for _ in range(60):
            d = rng.randint(1, 5)
            r = rng.randint(1, d + 1)
            rows = [[random_gaussian(rng) for _ in range(d)] for _ in range(r)]
            if r > 1 and rng.random() < 0.5:  # force a dependent row
                rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
            m = to_sympy(sp, rows)
            basis = nullspace(rows, d)
            assert len(basis) == len(m.nullspace())
            if basis:
                b = to_sympy(sp, basis).T
                assert (m * b).expand().is_zero_matrix
                assert b.rank() == len(basis)

    def test_psd_check(self):
        sp = pytest.importorskip("sympy")
        rng = random.Random(37)
        for trial in range(60):
            d = rng.randint(1, 4)
            k = rng.randint(1, d)  # rank of the Gram part
            a = [[random_gaussian(rng) for _ in range(k)] for _ in range(d)]
            m = [[sum((a[i][t] * a[j][t].conjugate() for t in range(k)),
                      GR_ZERO) for j in range(d)] for i in range(d)]
            shift = Fraction(rng.randint(-1, 3), 4) if trial % 2 else 0
            for i in range(d):
                m[i][i] = m[i][i] - GaussianRational(shift, Fraction(0))
            # sympy decides PSD reliably on rationals: a Hermitian A + iB
            # is PSD iff the real symmetric [[A, -B], [B, A]] is
            z = to_sympy(sp, m)
            re, im = z.applyfunc(sp.re), z.applyfunc(sp.im)
            real = sp.BlockMatrix([[re, -im], [im, re]]).as_explicit()
            assert psd_check_exact(m).psd == real.is_positive_semidefinite


def solve(objective, rows, rhs):
    return lp_solve_exact(LinearProgram.make(objective, rows, rhs))


class TestExactLp:
    def test_simple_optimum(self):
        res = solve([1, 1], [[1, 0], [0, 1]], [1, 2])
        assert res.status == "optimal"
        assert res.value == 3
        assert res.solution == (1, 2)

    def test_dual_values(self):
        res = solve([3, 5], [[1, 0], [0, 2], [3, 2]], [4, 12, 18])
        assert res.status == "optimal"
        assert res.value == 36
        # strong duality: y . b = value (checked internally too)
        assert sum(y * b for y, b in
                   zip(res.dual, (4, 12, 18))) == res.value

    def test_infeasible(self):
        res = solve([1], [[1], [-1]], [1, -2])  # x <= 1 and x >= 2
        assert res.status == "infeasible"

    def test_unbounded(self):
        res = solve([1, 0], [[0, 1]], [1])
        assert res.status == "unbounded"

    def test_negative_rhs_feasible(self):
        # x >= 1 (as -x <= -1), x <= 3, maximize -x: optimum at x = 1
        res = solve([-1], [[-1], [1]], [-1, 3])
        assert res.status == "optimal"
        assert res.value == -1
        assert res.solution == (1,)

    def test_degenerate_rows(self):
        res = solve([1], [[1], [1], [2]], [5, 5, 10])
        assert res.status == "optimal" and res.value == 5

    def test_zero_objective(self):
        res = solve([0, 0], [[1, 1]], [7])
        assert res.status == "optimal" and res.value == 0

    def test_random_against_scipy(self):
        from scipy.optimize import linprog
        rng = random.Random(4)
        agree = 0
        for _ in range(120):
            n = rng.randint(1, 4)
            m = rng.randint(1, 5)
            c = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                    for _ in range(m)]
            rhs = [Fraction(rng.randint(-2, 6)) for _ in range(m)]
            mine = solve(c, rows, rhs)
            ref = linprog([-float(x) for x in c],
                          A_ub=[[float(x) for x in r] for r in rows],
                          b_ub=[float(x) for x in rhs],
                          bounds=[(0, None)] * n, method="highs")
            if mine.status == "optimal":
                assert ref.status == 0
                assert abs(float(mine.value) + ref.fun) < 1e-7
                agree += 1
            elif mine.status == "infeasible":
                assert ref.status == 2
            else:
                assert ref.status == 3
        assert agree > 20  # the sample genuinely exercises the solver

    @pytest.mark.parametrize("bad", [1.5, None, "1", 1j])
    def test_non_rational_entries_rejected(self, bad):
        for args, where in [
                (((bad, 1), ((1, 0),), (1,)), "objective[0]"),
                (((1, 1), ((1, 0), (0, bad)), (1, 1)), "rows[1][1]"),
                (((1,), ((1,), (2,)), (1, bad)), "rhs[1]")]:
            lp = LinearProgram(*args)  # only a solve looks at the types
            with pytest.raises(TypeError, match=rf"^LinearProgram {re.escape(where)} "
                               rf"must be rational .*, not {type(bad).__name__}$"):
                lp_solve_exact(lp)
        # rationals of every type pass, and make still converts
        assert lp_solve_exact(LinearProgram(
            (True, Fraction(1, 2)), ((np.int64(1), 0), (0, 1)), (1, 1))).value == \
            Fraction(3, 2)
        assert LinearProgram.make([0.5], [["1/3"]], [1]).rows == ((Fraction(1, 3),),)

    def test_make_validates(self):
        with pytest.raises(ValueError):
            LinearProgram.make([1], [[1, 2]], [1])  # width mismatch
        with pytest.raises(ValueError):
            LinearProgram.make([1], [[1]], [1, 2])  # rhs length mismatch


# sha256 of the results of random_lps(10, 400), taken with a full
# tableau (a column for every variable); the condensed tableau makes
# the same Bland pivots, so it must give the same digest
LP_GOLDEN_SHA256 = \
    "19c9268ae719b0157e2d5f435b28db78ebc6813a21bf60b043e50cbb3f5a7194"


# maximize 3/2 x0 + x1  s.t.  x0 + x1/2 <= 4,  x0/3 + x1 <= 7/2,
# -x0 - x1 <= -1: Fraction entries and a negative right-hand side
CERT_LP = LinearProgram(
    (Fraction(3, 2), 1),
    ((1, Fraction(1, 2)), (Fraction(1, 3), 1), (-1, -1)),
    (4, Fraction(7, 2), -1))
CERT_X = (Fraction(27, 10), Fraction(13, 5))
CERT_VALUE = Fraction(133, 20)
CERT_Y = (Fraction(7, 5), Fraction(3, 10), Fraction(0))
# maximize -2/3 x0 - x1  s.t.  -x0/2 - x1 <= -3/4,  x0 <= 5/2: the
# negative row binds, so its dual is nonzero
BOUND_LP = LinearProgram(
    (Fraction(-2, 3), -1), ((Fraction(-1, 2), -1), (1, 0)),
    (Fraction(-3, 4), Fraction(5, 2)))


class TestVerifyOptimal:
    def test_solver_certificates(self):
        assert lp_solve_exact(CERT_LP) == LpResult("optimal", CERT_VALUE,
                                                   CERT_X, CERT_Y)
        res = lp_solve_exact(BOUND_LP)
        _verify_optimal(BOUND_LP, res.solution, res.value, res.dual)

    @pytest.mark.parametrize("x, value, y, message", [
        ((Fraction(27, 10), Fraction(-1, 10)), CERT_VALUE, CERT_Y,
         "primal negativity"),
        ((Fraction(27, 10), Fraction(14, 5)), CERT_VALUE, CERT_Y,
         "primal constraint violated"),
        (CERT_X, CERT_VALUE,
         (Fraction(7, 5), Fraction(3, 10), Fraction(-1, 10)),
         "dual negativity"),
        (CERT_X, CERT_VALUE, (Fraction(7, 5), Fraction(1, 5), Fraction(0)),
         "dual constraint violated"),
        (CERT_X, CERT_VALUE + Fraction(1, 100), CERT_Y, "duality gap"),
        # feasible but not optimal: only value = c·x catches it
        ((Fraction(1), Fraction(1)), CERT_VALUE, CERT_Y, "primal value"),
    ])
    def test_each_corruption_raises(self, x, value, y, message):
        _verify_optimal(CERT_LP, CERT_X, CERT_VALUE, CERT_Y)
        with pytest.raises(LpCertificateError, match=f"^{message}$"):
            _verify_optimal(CERT_LP, x, value, y)

    def test_corruptions_with_a_binding_negative_row(self):
        x, value = [Fraction(0), Fraction(3, 4)], Fraction(-3, 4)
        y = [Fraction(1), Fraction(0)]
        assert lp_solve_exact(BOUND_LP) == LpResult(
            "optimal", value, tuple(x), tuple(y))
        for xc, vc, yc, message in [
                ([x[0], x[1] - Fraction(1, 7)], value, y,
                 "primal constraint violated"),
                (x, value, [y[0] + Fraction(1, 9), y[1]],
                 "dual constraint violated"),
                (x, value, [y[0] - Fraction(1, 9), Fraction(1, 6)],
                 "duality gap"),
                (x, value - Fraction(1, 6), y, "duality gap")]:
            with pytest.raises(LpCertificateError, match=f"^{message}$"):
                _verify_optimal(BOUND_LP, xc, vc, yc)


# c, A and b of an LP whose tableau leaves int64 on the first pivot; in
# numpy integers a solve once wrapped around and read it as unbounded
WIDE_LP = ([44517, 42352, 43038, 45063],
           [[91050, 90887, 17610, 10553], [78790, 4451, 93841, 10482]],
           [96957, 45036])


def int_lps(seed: int, count: int):
    """Seeded c, A, b lists of Python ints: 2-4 variables, 2-5 rows,
    entries in 0..10^5."""
    rng = random.Random(seed)

    def ints(k):
        return [rng.randint(0, 10 ** 5) for _ in range(k)]

    for _ in range(count):
        nv, m = rng.randint(2, 4), rng.randint(2, 5)
        yield ints(nv), [ints(nv) for _ in range(m)], ints(m)


class TestNumpyIntegers:
    """numpy integers are read as Python ints, so no product wraps."""

    def test_over_lcm(self):
        nums, d = over_lcm([np.int64(2 ** 40), Fraction(1, 6), np.int32(3), True])
        assert (nums, d) == ([6 * 2 ** 40, 1, 18, 6], 6)
        assert all(type(x) is int for x in nums)
        assert over_lcm([]) == ([], 1)
        x = as_fraction(np.int64(2 ** 62))
        assert type(x.numerator) is int and x * 4 == 2 ** 64
        assert as_fraction("1/3") == Fraction(1, 3)
        assert as_fraction(0.5) == Fraction(1, 2)

    def test_wide_lp(self):
        c, a, b = WIDE_LP
        res = solve(np.array(c), np.array(a), np.array(b))
        assert res.status == "optimal"
        assert res.value == Fraction(17083468115937, 82336921)
        assert res == solve(c, a, b)

    def test_seeded_lps_match_the_python_int_solve(self):
        def int64s(v):
            return tuple(map(np.int64, v))

        for c, a, b in int_lps(3, 300):
            want = lp_solve_exact(LinearProgram(tuple(c), tuple(map(tuple, a)),
                                                tuple(b)))
            assert solve(np.array(c), np.array(a), np.array(b)) == want
            assert lp_solve_exact(LinearProgram(
                int64s(c), tuple(map(int64s, a)), int64s(b))) == want


def random_lps(seed: int, count: int):
    """Seeded LPs with 1-6 variables, 1-7 rows, fractional data and
    right-hand sides of both signs, so both phases run."""
    rng = random.Random(seed)

    def q():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))

    for _ in range(count):
        nv, m = rng.randint(1, 6), rng.randint(1, 7)
        objective = [q() for _ in range(nv)]
        rows = [[q() for _ in range(nv)] for _ in range(m)]
        rhs = [Fraction(rng.randint(-5, 6), rng.choice((1, 2))) for _ in range(m)]
        yield LinearProgram.make(objective, rows, rhs)


def test_lp_results_golden():
    digest = hashlib.sha256()
    statuses = Counter()
    for lp in random_lps(10, 400):
        res = lp_solve_exact(lp)
        statuses[res.status] += 1
        digest.update(f"{res.status} {res.value} {res.solution} {res.dual}\n".encode())
    assert statuses == {"optimal": 98, "infeasible": 172, "unbounded": 130}
    assert digest.hexdigest() == LP_GOLDEN_SHA256


@pytest.mark.parametrize("objective, rows, rhs, dual", [
    # the artificials' numbering (by row) decides a Bland tie
    (["-1/3", -1, 0],
     [[-1, -2, 0], [-4, "-1/2", -1], ["-4/3", -3, 2], [0, "4/3", "1/3"],
      ["1/2", 1, "-1/2"], [0, 0, -3]],
     [-3, 4, -4, 1, 2, 2],
     [0, 0, "1/4", 0, 0, 0]),
    # an artificial left basic at zero after phase 1 is driven out on
    # its row's lowest-numbered nonzero column
    ([1, 2, "1/2", 6, "1/2", "-5/3"],
     [[-4, -1, 0, 3, "1/3", 3], [-1, 0, -4, -3, "4/3", "-4/3"],
      [5, 0, 1, 1, "5/3", 5], [4, 3, 4, -2, -1, -4]],
     ["-1/2", "3/2", 0, "3/2"],
     ["115/43", 0, "47/43", "67/43"]),
])
def test_dual_vertex_pinned(objective, rows, rhs, dual):
    # both LPs have several optimal dual vertices; the pivots decide
    # which one is returned
    res = solve(objective, rows, rhs)
    assert res.status == "optimal"
    assert res.dual == tuple(Fraction(y) for y in dual)


def random_hermitian(rng: np.random.Generator, d: int, definite: int):
    """Well-conditioned Hermitian with eigenvalues away from zero.

    definite > 0: all eigenvalues in [0.5, 2]; definite < 0: at least
    one in [-2, -0.5]; rationalized entries keep the verdict (the
    entrywise perturbation is below the eigenvalue gap)."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(z)
    eig = rng.uniform(0.5, 2.0, size=d)
    if definite < 0:
        k = rng.integers(0, d)
        eig[k] = -rng.uniform(0.5, 2.0)
    m = (q * eig) @ q.conj().T
    out = [[GaussianRational(Fraction(float(m[i, j].real)).limit_denominator(10 ** 6),
                             Fraction(float(m[i, j].imag)).limit_denominator(10 ** 6))
            for j in range(d)] for i in range(d)]
    for i in range(d):
        out[i][i] = GaussianRational(out[i][i].re, Fraction(0))
        for j in range(i):
            out[i][j] = out[j][i].conjugate()
    return out


class TestPsd:
    def test_identity_and_zero(self):
        ident = [[GR_ONE, GR_ZERO], [GR_ZERO, GR_ONE]]
        assert psd_check_exact(ident).psd
        zero = [[GR_ZERO, GR_ZERO], [GR_ZERO, GR_ZERO]]
        assert psd_check_exact(zero).psd

    def test_not_square(self):
        with pytest.raises(ValueError) as exc:
            psd_check_exact([[GR_ONE, GR_ZERO]])
        assert str(exc.value) == "matrix is not square"

    def test_negative_definite(self):
        m = [[GaussianRational(Fraction(-1), Fraction(0))]]
        res = psd_check_exact(m)
        assert not res.psd
        assert res.witness_value < 0

    def test_rank_deficient_psd(self):
        # [[1,1],[1,1]] is PSD with a zero pivot
        one = GR_ONE
        m = [[one, one], [one, one]]
        res = psd_check_exact(m)
        assert res.psd
        back = psd_reconstruct(res, 2)
        assert back == m

    def test_zero_pivot_indefinite(self):
        # [[0,1],[1,0]] has eigenvalues +-1
        m = [[GR_ZERO, GR_ONE], [GR_ONE, GR_ZERO]]
        res = psd_check_exact(m)
        assert not res.psd
        val = gm_quadratic_form(m, list(res.witness))
        assert val.im == 0 and val.re < 0
        assert val.re == res.witness_value

    def test_non_hermitian_rejected(self):
        m = [[GR_ZERO, GR_ONE], [GR_ZERO.conjugate(), GR_ZERO]]
        m[1][0] = GaussianRational(Fraction(2), Fraction(0))
        with pytest.raises(ValueError):
            psd_check_exact(m)

    def test_matches_float_eigenvalues(self):
        rng = np.random.default_rng(12)
        for trial in range(250):
            d = int(rng.integers(1, 6))
            definite = 1 if trial % 2 == 0 else -1
            m = random_hermitian(rng, d, definite)
            assert gm_is_hermitian(m)
            res = psd_check_exact(m)
            f = np.array([[complex(m[i][j]) for j in range(d)]
                          for i in range(d)])
            lam = np.linalg.eigvalsh(f)[0]
            assert res.psd == (lam > -1e-9)
            if not res.psd:
                val = gm_quadratic_form(m, list(res.witness))
                assert val.im == 0 and val.re < 0
            else:
                assert psd_reconstruct(res, d) == m


# ---------------------------------------------------------------------------
# differential test against a Fraction reference solver
# ---------------------------------------------------------------------------

def fraction_lp_solve(lp: LinearProgram, pivots: list, stats: Counter):
    """The condensed-tableau simplex with every entry a Fraction: the
    same variable numbering, Bland's rule, phase-1 row, drive-out and
    phase-2 bar on artificials as lp_solve_exact.  Each pivot is
    appended to pivots as (entering, leaving); stats counts ratio-test
    ties, artificials that re-enter and drive-out pivots."""
    # Fraction entries, so that every quotient is exact for int data too
    lp = LinearProgram.make(lp.objective, lp.rows, lp.rhs)
    nv = len(lp.objective)
    m = len(lp.rows)
    art = nv + m
    F0, F1 = Fraction(0), Fraction(1)
    neg = [i for i in range(m) if lp.rhs[i] < 0]
    cols = list(range(nv)) + [nv + i for i in neg]
    basis = []
    tab = []
    for i, (row, b) in enumerate(zip(lp.rows, lp.rhs)):
        sgn = -1 if b < 0 else 1
        slacks = [-F1 if k == i else F0 for k in neg]
        tab.append([sgn * a for a in row] + slacks + [sgn * b])
        basis.append(art + i if b < 0 else nv + i)
    tab.append([-c for c in lp.objective] + [F0] * (len(neg) + 1))
    if neg:
        tab.append([-sum(col) for col in zip(*(tab[i] for i in neg))])

    def pivot(r, c):
        pivots.append((cols[c], basis[r]))
        stats["artificial enters"] += cols[c] >= art
        inv = 1 / tab[r][c]
        tab[r][c] = F1
        tab[r] = prow = [v * inv for v in tab[r]]
        for i, row in enumerate(tab):
            f = row[c]
            if i != r and f:
                row[c] = F0
                tab[i] = [v - f * p for v, p in zip(row, prow)]
        basis[r], cols[c] = cols[c], basis[r]

    def lowest(js):
        return min(js, key=cols.__getitem__, default=None)

    def run(limit):
        while True:
            obj = tab[-1]
            enter = lowest(j for j, v in enumerate(cols) if v < limit and obj[j] < 0)
            if enter is None:
                return "optimal"
            rows = [i for i in range(m) if tab[i][enter] > 0]
            if not rows:
                return "unbounded"
            ratios = Counter(tab[i][-1] / tab[i][enter] for i in rows)
            stats["ratio ties"] += ratios[min(ratios)] > 1
            leave = min(rows, key=lambda i: (tab[i][-1] / tab[i][enter], basis[i]))
            pivot(leave, enter)

    if neg:
        assert run(art + m) == "optimal"
        if tab.pop()[-1] != 0:
            return LpResult("infeasible")
        for r in range(m):
            if basis[r] >= art:
                stats["drive-outs"] += 1
                pivot(r, lowest(j for j, v in enumerate(cols) if v < art and tab[r][j]))
    if run(art) == "unbounded":
        return LpResult("unbounded")
    x = [F0] * nv
    for r, bv in enumerate(basis):
        if bv < nv:
            x[bv] = tab[r][-1]
    value = sum((c * xi for c, xi in zip(lp.objective, x)), F0)
    reduced = dict(zip(cols, tab[m]))
    y = [reduced.get(nv + i, F0) for i in range(m)]
    return LpResult("optimal", value, tuple(x), tuple(y))


def solve_recording_pivots(lp: LinearProgram, path: _BlandPath | None = None):
    """lp_solve_exact's result and the pivots it performs as (entering,
    leaving), read from the arguments of each call to its inner pivot
    function; path is passed on as its private _path."""
    pivots = []

    def watch(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "pivot" \
                and code.co_filename == lp_solve_exact.__code__.co_filename:
            names = frame.f_locals
            pivots.append((names["cols"][names["c"]], names["basis"][names["r"]]))

    previous = sys.getprofile()
    sys.setprofile(watch)
    try:
        res = lp_solve_exact(lp, _path=path)
    finally:
        sys.setprofile(previous)
    return res, pivots


def degenerate_lps(seed: int, count: int):
    """Seeded LPs built to reach the simplex's corner cases: small data
    with many zeros (ratio ties), zero and negative right-hand sides,
    repeated rows and equalities written as a row and its negation
    (artificials left basic at zero after phase 1, then driven out)."""
    rng = random.Random(seed)

    def q():
        return Fraction(rng.choice((0, 0, 0, 1, 1, -1, 2, -2, 3)),
                        rng.choice((1, 1, 1, 2, 3)))

    for _ in range(count):
        nv, m = rng.randint(1, 5), rng.randint(1, 5)
        objective = [q() for _ in range(nv)]
        rows = [[q() for _ in range(nv)] for _ in range(m)]
        rhs = [Fraction(rng.choice((0, 0, 1, 2, -1, -2, 3)), rng.choice((1, 2)))
               for _ in range(m)]
        for _ in range(rng.randint(0, 2)):
            k = rng.randrange(len(rows))
            if rng.random() < 0.6:  # an equality: the row and its negation
                rows.append([-a for a in rows[k]])
                rhs.append(-rhs[k])
            else:  # a scaled copy of the row
                s = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2)))
                rows.append([s * a for a in rows[k]])
                rhs.append(s * rhs[k])
        order = list(range(len(rows)))
        rng.shuffle(order)
        yield LinearProgram.make(objective, [rows[i] for i in order],
                                 [rhs[i] for i in order])


def test_pivots_match_fraction_reference():
    lps = list(random_lps(20, 1500)) + list(degenerate_lps(21, 1000))
    stats, statuses = Counter(), Counter()
    for lp in lps:
        ref_pivots = []
        ref = fraction_lp_solve(lp, ref_pivots, stats)
        res, pivots = solve_recording_pivots(lp)
        assert pivots == ref_pivots
        assert res == ref
        statuses[res.status] += 1
        stats["pivots"] += len(pivots)
    # the sample reaches every branch it is meant to check
    assert min(statuses.values()) >= 300, statuses
    assert stats["drive-outs"] >= 100, stats
    assert stats["artificial enters"] >= 15, stats
    assert stats["ratio ties"] >= 300, stats


# ---------------------------------------------------------------------------
# a solve that replays the Bland path of the LP one row shorter
# ---------------------------------------------------------------------------

def grown_lp_sequences(seed: int, count: int):
    """Seeded sequences of LPs with no negative rhs, each LP the one
    before it plus one row: new random rows (some the last optimum
    violates, some it meets), scaled copies of earlier rows (ratio
    ties) and zero right-hand sides.  Objectives of both signs, so some
    LPs are unbounded until a later row bounds them."""
    rng = random.Random(seed)

    def q():
        return Fraction(rng.choice((0, 0, 1, 1, 2, -1, 3)), rng.choice((1, 1, 2, 3)))

    for _ in range(count):
        nv = rng.randint(1, 5)
        objective = [q() for _ in range(nv)]
        rows, rhs, seq = [], [], []
        for _ in range(rng.randint(2, 7)):
            if rows and rng.random() < 0.25:
                k = rng.randrange(len(rows))
                s = Fraction(rng.choice((1, 1, 2, 3)), rng.choice((1, 2)))
                rows.append([s * a for a in rows[k]])
                rhs.append(s * rhs[k])
            else:
                rows.append([q() for _ in range(nv)])
                rhs.append(Fraction(rng.choice((0, 0, 1, 2, 3, 5)), rng.choice((1, 2))))
            seq.append(LinearProgram.make(objective, rows, rhs))
        yield seq


def check_grown_sequence(seq, stats: Counter):
    """Solve seq in order through one _BlandPath.  Each result must be
    fraction_lp_solve's, and the recorded pivots the solve replayed,
    followed by those it performed, must be its pivots."""
    path = _BlandPath()
    before = None  # the last result
    for lp in seq:
        ref_pivots = []
        ref = fraction_lp_solve(lp, ref_pivots, Counter())
        states, steps = path.states, path.steps
        res, performed = solve_recording_pivots(lp, path)
        assert res == ref
        t = len(ref_pivots) - len(performed)
        replayed = [(states[k][3][c], states[k][2][r])
                    for k, (r, c) in enumerate(steps[:t])]
        assert len(replayed) == t
        assert replayed + performed == ref_pivots
        # the path now recorded is the reference's, pivot for pivot
        assert [(st[3][c], st[2][r]) for st, (r, c)
                in zip(path.states, path.steps)] == ref_pivots
        if steps:
            stats["replayed in full" if not performed else
                  "diverged at step 0" if t == 0 else "diverged later"] += 1
        if before is not None and before.status == "unbounded":
            stats["after unbounded"] += 1
        if before is not None and before.status == "optimal":
            x, row, b = before.solution, lp.rows[-1], lp.rhs[-1]
            stats["violated" if sum(a * xi for a, xi in zip(row, x)) > b
                  else "met"] += 1
        stats[res.status] += 1
        stats["replayed pivots"] += t
        stats["pivots"] += len(ref_pivots)
        before = res


def test_grown_lps_replay_the_reference_path():
    stats = Counter()
    for seq in grown_lp_sequences(40, 300):
        check_grown_sequence(seq, stats)
    # the sample reaches every case the replay distinguishes
    for case in ("replayed in full", "diverged at step 0", "diverged later",
                 "violated", "met", "optimal", "unbounded", "after unbounded"):
        assert stats[case] >= 40, stats
    assert stats["replayed pivots"] >= stats["pivots"] // 4, stats


def test_grown_lp_ratio_tie_and_zero_rhs():
    # the new row ties the recorded winner's ratio 1/1 at the first
    # pivot and loses the tie to the lower-numbered basic variable; at
    # zero rhs it has the strictly smaller ratio 0 and wins there
    first = LinearProgram((1, 1), ((1, 0), (0, 1)), (1, 1))
    stats = Counter()
    for b in (1, 0):
        check_grown_sequence(
            [first, LinearProgram((1, 1), ((1, 0), (0, 1), (1, 0)), (1, 1, b))],
            stats)
    assert stats == Counter({"replayed in full": 1, "diverged at step 0": 1,
                             "met": 1, "violated": 1, "optimal": 4,
                             "replayed pivots": 2, "pivots": 8})


def chi_f_lp_sequences(graphs):
    """The LPs fractional_chromatic_number solves for each graph, in order."""
    from siccert import coloring

    seqs = []
    solve = coloring.lp_solve_exact

    def spy(lp, **kwargs):
        seqs[-1].append(lp)
        return solve(lp, **kwargs)

    coloring.lp_solve_exact = spy
    try:
        for g in graphs:
            seqs.append([])
            coloring.fractional_chromatic_number(g)
    finally:
        coloring.lp_solve_exact = solve
    return seqs


def test_chi_f_sequences_replay_the_reference_path():
    from siccert.enumeration import THIRTEEN_CHI4_G6
    from siccert.graphs import Graph, cone, parse_graph6

    rng = random.Random(41)
    graphs = [parse_graph6(s) for s in THIRTEEN_CHI4_G6]
    # the twelve-vertex class and cone(Yu–Oh)
    graphs += [parse_graph6("K_GTCceEQHHB"), cone(parse_graph6("L?AB?vOLDPHa`o"))]
    for _ in range(30):
        n = rng.randint(5, 10)
        p = rng.random()
        graphs.append(Graph.from_edges(n, [(i, j) for i in range(n)
                                           for j in range(i + 1, n)
                                           if rng.random() < p]))
    stats = Counter()
    seqs = chi_f_lp_sequences(graphs)
    for seq in seqs:
        check_grown_sequence(seq, stats)
    assert sum(map(len, seqs[:8])) >= 80
    assert stats["replayed pivots"] >= stats["pivots"] // 2, stats
