"""Exact rational arithmetic: Gaussian rationals, a certified simplex
solver, and a positive-semidefiniteness test for Hermitian matrices.

Everything here is tolerance-free.  Rationals are stdlib Fractions;
complex entries are pairs of Fractions.  The hot loops work on integer
numerators over common denominators instead (the fraction-free
elimination of Bareiss, Math. Comp. 22, 1968, and Edmonds), exact
only in unbounded ints.  over_lcm, the one place rationals become
such numerators, and as_fraction, the one place an outside number
becomes a Fraction, both force Python ints on numpy integers.  The LP
solver pivots a condensed tableau (a row per basic and a column per
nonbasic variable) by Bland's rule.  Each row is held as integer
numerators over one positive integer denominator, so a pivot is
integer arithmetic plus a gcd on the rows it changes.  The solver
re-verifies its own optimality certificate before returning, in
integers: the solution over one denominator, the duals over another
and the LP data over the lcm of its own denominators.  A solve may be
handed the Bland path of the same LP less its last row (χ_f's lazy row
generation makes such sequences).  It then skips the prefix of that
path it would repeat: until the new row first wins a ratio test it
changes no entering or leaving choice, so it is carried through the
recorded pivots and the run resumes from the recorded tableau with
the row inserted, making every later pivot of a solve from scratch.
This is not a warm start from the last optimal tableau, which could
end on another optimal vertex.  nullspace eliminates rows scaled to
Gaussian integers.  The PSD test produces a factorization or a
counterexample vector that callers can replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from numbers import Rational
from operator import attrgetter, index, mul


# ---------------------------------------------------------------------------
# rational text form: always "p/q"
# ---------------------------------------------------------------------------

def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def as_fraction(x) -> Fraction:
    """x (a rational, float or string) as a Fraction with Python-int
    parts.  Fraction(x) keeps a numpy integer's own type in its parts,
    where products wrap around at 64 bits."""
    if isinstance(x, Rational):
        return Fraction(index(x.numerator), index(x.denominator))
    return Fraction(x)


def over_lcm(values) -> tuple[list[int], int]:
    """A sequence of rationals (ints, Fractions, numpy integers: any
    numbers.Rational) as Python-int numerators over the lcm of their
    denominators, their lowest common denominator."""
    nums = list(map(index, map(attrgetter("numerator"), values)))
    dens = list(map(index, map(attrgetter("denominator"), values)))
    d = math.lcm(*dens)
    if d == 1:
        return nums, 1
    return [p * (d // q) for p, q in zip(nums, dens)], d


def rationalize(x: float, max_denominator: int) -> Fraction:
    """Best rational approximation with bounded denominator."""
    if not math.isfinite(x):
        raise ValueError(f"cannot rationalize non-finite value {x!r}")
    if max_denominator < 1:
        raise ValueError("max_denominator must be at least 1")
    return Fraction(x).limit_denominator(max_denominator)


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(value) -> "GaussianRational":
        """value, or a complex, rational, float or string as one; numpy
        integers become Fractions with Python-int parts (as_fraction)."""
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, complex):
            return GaussianRational(Fraction(value.real), Fraction(value.imag))
        return GaussianRational(as_fraction(value), Fraction(0))

    def __add__(self, other) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __mul__(self, other) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        o = GaussianRational.of(other)
        n = o.abs2()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational((self.re * o.re + self.im * o.im) / n,
                                (self.im * o.re - self.re * o.im) / n)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_real(self) -> bool:
        return self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        return format_gaussian(self)


GR_ZERO = GaussianRational(Fraction(0), Fraction(0))
GR_ONE = GaussianRational(Fraction(1), Fraction(0))


def format_gaussian(z: GaussianRational) -> str:
    if z.im == 0:
        return format_rational(z.re)
    sign = "+" if z.im > 0 else "-"
    return f"{format_rational(z.re)}{sign}{format_rational(abs(z.im))} i"


def parse_gaussian(s: str) -> GaussianRational:
    t = s.strip().replace(" ", "")
    if not t:
        raise ValueError("empty number")
    if t.endswith("i"):
        t = t[:-1]
        split = -1
        for k in range(len(t) - 1, 0, -1):
            if t[k] in "+-" and t[k - 1] not in "+-/":
                split = k
                break
        if split < 0:
            return GaussianRational(Fraction(0), Fraction(t))
        return GaussianRational(Fraction(t[:split]), Fraction(t[split:]))
    return GaussianRational(Fraction(t), Fraction(0))


# ---------------------------------------------------------------------------
# small exact linear algebra over Gaussian rationals
# ---------------------------------------------------------------------------

Matrix = list  # list[list[GaussianRational]]
Vector = list  # list[GaussianRational]
IntegerRay = tuple  # (re, im), each a tuple[int, ...]


def gm_identity(d: int) -> Matrix:
    return [[GR_ONE if i == j else GR_ZERO for j in range(d)] for i in range(d)]


def gm_is_hermitian(a: Matrix) -> bool:
    d = len(a)
    return all(a[i][j] == a[j][i].conjugate() for i in range(d) for j in range(d))


def inner(u: Vector, v: Vector) -> GaussianRational:
    """Hermitian inner product, conjugate-linear in the first slot."""
    acc = GR_ZERO
    for a, b in zip(u, v):
        acc = acc + a.conjugate() * b
    return acc


def gm_quadratic_form(m: Matrix, x: Vector) -> GaussianRational:
    """x† M x, exact."""
    d = len(m)
    acc = GR_ZERO
    for i in range(d):
        row = GR_ZERO
        for j in range(d):
            row = row + m[i][j] * x[j]
        acc = acc + x[i].conjugate() * row
    return acc


def integer_ray(v: Vector) -> IntegerRay:
    """v scaled by the lcm of its entries' denominators, a vector of
    Gaussian integers: the int tuples of its real and imaginary parts."""
    nums, _ = over_lcm([x.re for x in v] + [x.im for x in v])
    return tuple(nums[:len(v)]), tuple(nums[len(v):])


def nullspace(rows: list[Vector], d: int) -> list[Vector]:
    """Basis of {x : row · x = 0 for every row}, plain (bilinear) products.

    Gauss-Jordan on the rows scaled to Gaussian integers.  Clearing
    column c of row i by the pivot row r is row_i·p − row_i[c]·row_r
    (p the pivot), divided by the gcd of its parts, so each row stays a
    nonzero multiple of its row in Gauss-Jordan over the Gaussian
    rationals: the same pivots and the same reduced basis.
    Callers wanting ⟨v, x⟩ = 0 should pass conjugated rows.
    """
    mat = [integer_ray(r) for r in rows]  # (re, im) rows
    pivots: list[int] = []
    r = 0
    for c in range(d):
        pr = next((i for i in range(r, len(mat))
                   if mat[i][0][c] or mat[i][1][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pre, pim = mat[r]
        p, q = pre[c], pim[c]
        for i, (re, im) in enumerate(mat):
            f, g = re[c], im[c]
            if i == r or not (f or g):
                continue
            # (re + i·im)(p + i·q) − (f + i·g)(pre + i·pim)
            re, im = ([a * p - b * q - f * x + g * y
                       for a, b, x, y in zip(re, im, pre, pim)],
                      [a * q + b * p - f * y - g * x
                       for a, b, x, y in zip(re, im, pre, pim)])
            k = math.gcd(*re, *im)
            if k > 1:
                re = [a // k for a in re]
                im = [b // k for b in im]
            mat[i] = (re, im)
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(d) if c not in pivots]
    basis = []
    for fc in free:
        vec = [GR_ZERO] * d
        vec[fc] = GR_ONE
        for (re, im), pc in zip(mat, pivots):
            # −row[fc] / row[pc]
            a, b, p, q = re[fc], im[fc], re[pc], im[pc]
            n = p * p + q * q
            vec[pc] = GaussianRational(Fraction(-(a * p + b * q), n),
                                       Fraction(a * q - b * p, n))
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# linear programming: maximize c·x subject to Ax <= b, x >= 0
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearProgram:
    """maximize objective · x  s.t.  rows[i] · x <= rhs[i],  x >= 0.

    Entries must be rationals: Fractions, ints or numpy integers, which
    a solve reads as Python ints (over_lcm).  lp_solve_exact names an
    entry that is not rational; construction does not search for one."""

    objective: tuple[Fraction | int, ...]
    rows: tuple[tuple[Fraction | int, ...], ...]
    rhs: tuple[Fraction | int, ...]

    def __post_init__(self):
        nv = len(self.objective)
        if len(self.rows) != len(self.rhs):
            raise ValueError("row/rhs count mismatch")
        for r in self.rows:
            if len(r) != nv:
                raise ValueError("constraint row has wrong variable count")

    def _reject_non_rational(self):
        """Raise a TypeError naming the first entry that is not a
        rational, if there is one."""
        entries = chain(
            ((f"objective[{j}]", v) for j, v in enumerate(self.objective)),
            ((f"rows[{i}][{j}]", v) for i, row in enumerate(self.rows)
             for j, v in enumerate(row)),
            ((f"rhs[{i}]", v) for i, v in enumerate(self.rhs)))
        for where, v in entries:
            if not isinstance(v, Rational):
                raise TypeError(f"LinearProgram {where} must be rational "
                                f"(an int or Fraction), not {type(v).__name__}")


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    value: Fraction | None = None
    solution: tuple[Fraction, ...] | None = None
    dual: tuple[Fraction, ...] | None = None


class LpCertificateError(AssertionError):
    """The solver's own optimality certificate failed re-verification."""


class _BlandPath:
    """One solve's Bland path, kept for the next solve to replay: its LP,
    the tableau (rows, row denominators, basis, nonbasic columns) before
    each pivot and after the last, and each pivot's (row, column).

    Recorded only for an LP with no negative rhs, which has no phase 1.
    A recorded tableau shares its row lists with the live one, so no
    row list is changed once it is built."""

    __slots__ = ("lp", "states", "steps")

    def __init__(self):
        self.lp: LinearProgram | None = None
        self.states: list = []
        self.steps: list[tuple[int, int]] = []


def lp_solve_exact(lp: LinearProgram, *,
                   _path: _BlandPath | None = None) -> LpResult:
    """Two-phase simplex with Bland's rule on a condensed tableau: a row
    per basic variable (int numerators over one positive int row
    denominator) and a column per nonbasic one plus the right-hand side.

    Variables are numbered x_j = j, slack of row i = nv + i, artificial
    of row i = nv + m + i; Bland's rule compares these numbers, so the
    pivots are the full Fraction tableau's.  On "optimal" the primal
    solution and the duals of the ≤ rows are re-verified exactly, on
    integer numerators over common denominators.

    _path is private to χ_f's row generation, which solves a sequence
    of LPs each one row longer than the last.  The solve records its
    Bland path there.  When the recorded LP is this one minus its last
    row and no rhs is negative, the solve does not re-pivot the prefix
    of that path it would repeat: _replay carries the new row through
    the recorded pivots to the first one it would change, and the run
    resumes from the tableau recorded there.  The pivots, the result
    and its verification are those of a solve from scratch.

    An LP entry that is not a rational fails inside the solve; the
    TypeError raised then names its field and position.
    """
    try:
        return _simplex(lp, _path)
    except (AttributeError, TypeError):
        lp._reject_non_rational()
        raise


def _simplex(lp: LinearProgram, _path: _BlandPath | None) -> LpResult:
    """lp_solve_exact's body, with no check of the entries' types."""
    nv, m = len(lp.objective), len(lp.rows)
    art = nv + m  # the first artificial's number
    F0 = Fraction(0)

    # a row with negative rhs is negated: its slack (coefficient -1)
    # starts nonbasic and an artificial starts basic in its place
    neg = [i for i in range(m) if lp.rhs[i] < 0]
    record = _path is not None and not neg
    prev = _path.lp if record else None
    if (prev is not None and len(prev.rows) == m - 1
            and prev.objective == lp.objective
            and prev.rows == lp.rows[:-1] and prev.rhs == lp.rhs[:-1]):
        states, (tab, den, basis, cols) = _replay(
            _path, over_lcm([*lp.rows[-1], lp.rhs[-1]]), art - 1)
        steps = _path.steps[:len(states)]
    else:
        cols = list(range(nv)) + [nv + i for i in neg]
        basis = [art + i if b < 0 else nv + i for i, b in enumerate(lp.rhs)]
        rows = []  # (int numerators, denominator) per tableau row
        for i, (row, b) in enumerate(zip(lp.rows, lp.rhs)):
            nums, d = over_lcm([*row, b])
            sgn = -1 if b < 0 else 1  # a negated row's slack: -1 = -d/d
            rows.append(([sgn * a for a in nums[:-1]]
                         + [-d if k == i else 0 for k in neg] + [sgn * nums[-1]], d))
        # objective rows hold reduced costs (z_j - c_j); the phase-2 row
        # maximizes the objective, the phase-1 row -sum(artificials)
        nums, d = over_lcm(lp.objective)
        rows.append(([-c for c in nums] + [0] * (len(neg) + 1), d))
        if neg:
            rows.append(over_lcm([-sum(Fraction(rows[i][0][j], rows[i][1]) for i in neg)
                                  for j in range(nv + len(neg) + 1)]))
        tab, den = map(list, zip(*rows))
        states, steps = [], []

    def pivot(r: int, c: int):
        # row r goes over its entry p in c, with d_r in c and p's sign
        # moved into the row; the other rows are cleared in c by it
        p = tab[r][c]
        sign = 1 if p > 0 else -1
        prow = [sign * v for v in tab[r]]
        prow[c] = sign * den[r]
        tab[r] = prow
        p = den[r] = abs(p)
        for i, row in enumerate(tab):
            if i != r and row[c]:
                tab[i], den[i] = _eliminate(row, den[i], prow, p, c)
        basis[r], cols[c] = cols[c], basis[r]

    def lowest(js):
        return min(js, key=cols.__getitem__, default=None)

    def run(limit: int) -> str:
        # optimal when every reduced cost in the last row is >= 0.
        # Bland: entering = lowest-numbered variable below limit with
        # negative reduced cost; leaving = minimum ratio rhs_i/a_i, ties
        # by lowest-numbered basic variable.
        while True:
            if record:
                states.append((tab[:], den[:], basis[:], cols[:]))
            obj = tab[-1]
            enter = lowest(j for j, v in enumerate(cols) if v < limit and obj[j] < 0)
            if enter is None:
                return "optimal"
            pos = [i for i in range(m) if tab[i][enter] > 0]
            if not pos:
                return "unbounded"
            s = math.lcm(*(tab[i][enter] for i in pos))  # each ratio·s is an int
            leave = min(pos, key=lambda i: (tab[i][-1] * s // tab[i][enter], basis[i]))
            if record:
                steps.append((leave, enter))
            pivot(leave, enter)

    if neg:
        # phase 1: value 0 iff feasible.  An artificial that leaves keeps
        # its column here, since Bland's rule may bring it back.
        status = run(art + m)
        assert status == "optimal"  # bounded above by 0
        den.pop()
        if tab.pop()[-1] != 0:
            return LpResult("infeasible")
        # drive leftover zero-valued artificials out of the basis with
        # degenerate pivots.  A nonzero non-artificial entry always
        # exists: the artificial's own slack is nonbasic with -1 there.
        for r in range(m):
            if basis[r] >= art:
                pivot(r, lowest(j for j, v in enumerate(cols) if v < art and tab[r][j]))

    status = run(art)  # phase 2 bars the artificials from entering
    if record:
        _path.lp, _path.states, _path.steps = lp, states, steps
    if status == "unbounded":
        return LpResult("unbounded")

    at = {bv: Fraction(row[-1], d)
          for bv, row, d in zip(basis, tab, den) if bv < nv}
    x = [at.get(j, F0) for j in range(nv)]
    value = Fraction(tab[m][-1], den[m])  # the objective row holds c·x
    # dual of row i = reduced cost of its slack, 0 while basic (the sign
    # works out the same for negated rows, whose slack coefficient is -1)
    reduced = {v: Fraction(t, den[m])
               for v, t in zip(cols, tab[m]) if nv <= v < art}
    y = [reduced.get(nv + i, F0) for i in range(m)]
    _verify_optimal(lp, x, value, y)
    return LpResult("optimal", value, tuple(x), tuple(y))


def _eliminate(row: list[int], d: int, prow: list[int], p: int, c: int):
    """row (over d) with column c cleared by the pivot row prow (over p)
    and the leaving variable's unit column put in c: the new row list
    (row·p − row[c]·prow) / g over d·p / g, g the gcd of its parts."""
    f = row[c]
    new = [v * p - f * q for v, q in zip(row, prow)]
    new[c] -= f * p  # as if row[c] were 0: the entry is −f·prow[c]
    g = math.gcd(d * p, *new)
    if g > 1:
        new = [v // g for v in new]
    return new, d * p // g


def _replay(path: _BlandPath, row: tuple[list[int], int], slack: int):
    """Where a solve of path.lp plus the appended row would leave
    path's recorded pivots, and its tableaus up to there.

    Bland's entering choice reads only the objective row, and a pivot
    changes that row through the pivot row alone, so the new row
    changes nothing until it first wins a ratio test.  Its slack is the
    highest-numbered variable, so it loses every ratio tie, and wins
    only on a strictly smaller ratio rhs/a; both rows' denominators
    cancel in the cross-multiplied comparison.  The row (its numerators
    and denominator) is carried through each recorded pivot by the same
    _eliminate a solve from scratch applies to it.  Returns the
    tableaus before each pivot shared with the new path, and the
    tableau before the first pivot that is not (or after the last) with
    the carried row inserted before the objective row: that is the
    tableau a solve from scratch reaches there."""
    nums, d = row

    def with_row(tab, den, basis, cols):
        return (tab[:-1] + [nums] + tab[-1:], den[:-1] + [d] + den[-1:],
                basis + [slack], cols[:])

    shared = []
    for (r, c), state, after in zip(path.steps, path.states, path.states[1:]):
        tab = state[0]
        a = nums[c]
        if a > 0 and nums[-1] * tab[r][c] < tab[r][-1] * a:
            break
        shared.append(with_row(*state))
        if a:
            nums, d = _eliminate(nums, d, after[0][r], after[1][r], c)
    return shared, with_row(*path.states[len(shared)])


def _verify_optimal(lp: LinearProgram, x, value, y):
    """Primal and dual feasibility, a zero duality gap and value = c·x,
    exactly, in integers: x over one denominator, y over another and
    the LP data over the lcm of its own denominators."""
    xs, dx = over_lcm(x)
    ys, dy = over_lcm(y)
    data, scale = over_lcm([*chain(lp.objective, *lp.rows, lp.rhs)])
    nv, m = len(x), len(y)
    cs, rhs = data[:nv], data[nv * (m + 1):]
    rows = [data[nv * k:nv * (k + 1)] for k in range(1, m + 1)]
    if any(xi < 0 for xi in xs):
        raise LpCertificateError("primal negativity")
    for row, b in zip(rows, rhs):
        if sum(map(mul, row, xs)) > b * dx:
            raise LpCertificateError("primal constraint violated")
    if any(yi < 0 for yi in ys):
        raise LpCertificateError("dual negativity")
    col = [0] * nv
    for yi, row in zip(ys, rows):
        if yi:
            col = [acc + yi * a for acc, a in zip(col, row)]
    for cj, c in zip(col, cs):
        if cj < c * dy:
            raise LpCertificateError("dual constraint violated")
    dual_val = sum(map(mul, ys, rhs))
    if dual_val * value.denominator != value.numerator * dy * scale:
        raise LpCertificateError("duality gap")
    # value is read from the tableau, so x must be shown to attain it
    if sum(map(mul, cs, xs)) * value.denominator != value.numerator * dx * scale:
        raise LpCertificateError("primal value")


# ---------------------------------------------------------------------------
# exact PSD test via LDL
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsdResult:
    """psd=True carries M = L diag(pivots) L†; psd=False carries a
    vector x with x†Mx < 0 (value recorded in witness_value)."""

    psd: bool
    pivots: tuple[Fraction, ...] | None = None
    lower: tuple[tuple[GaussianRational, ...], ...] | None = None
    witness: tuple[GaussianRational, ...] | None = None
    witness_value: Fraction | None = None


def psd_check_exact(m: Matrix) -> PsdResult:
    """Decide M ⪰ 0 exactly for a Hermitian Gaussian-rational matrix.

    LDL in input order.  A negative pivot, or a zero pivot whose row
    is not entirely zero, disproves PSD; in both cases a witness x
    with x†Mx < 0 is constructed and checked by substitution.
    """
    d = len(m)
    for row in m:
        if len(row) != d:
            raise ValueError("matrix is not square")
    if not gm_is_hermitian(m):
        raise ValueError("matrix is not Hermitian")

    # reduced matrix; only its lower triangle and diagonal are kept
    s = [[m[i][j] for j in range(d)] for i in range(d)]
    lower = gm_identity(d)
    pivots: list[Fraction] = [Fraction(0)] * d

    def lift(u: Vector) -> Vector:
        # solve L† x = u; unit upper-triangular back substitution
        x = list(u)
        for i in range(d - 1, -1, -1):
            acc = x[i]
            for j in range(i + 1, d):
                acc = acc - lower[j][i].conjugate() * x[j]
            x[i] = acc
        return x

    def fail(u: Vector) -> PsdResult:
        x = lift(u)
        val = gm_quadratic_form(m, x)
        assert val.is_real() and val.re < 0
        return PsdResult(False, witness=tuple(x), witness_value=val.re)

    for k in range(d):
        dk = s[k][k]
        assert dk.is_real()
        if dk.re < 0:
            u = [GR_ZERO] * d
            u[k] = GR_ONE
            return fail(u)
        if dk.re == 0:
            j = next((j for j in range(k + 1, d) if s[j][k]), None)
            if j is not None:
                # 2x2 minor [[0, s̄],[s, b]] is indefinite; pick the
                # combination that makes the form strictly negative
                sv = s[j][k]
                b = s[j][j]
                assert b.is_real()
                lam = GaussianRational.of(abs(b.re) + 1)
                u = [GR_ZERO] * d
                u[k] = -lam / sv
                u[j] = GR_ONE
                return fail(u)
            continue  # pivot 0 with zero row: contributes nothing
        pivots[k] = dk.re
        inv = GR_ONE / dk
        for i in range(k + 1, d):
            lower[i][k] = s[i][k] * inv
        for i in range(k + 1, d):
            lik = lower[i][k]
            if not lik:
                continue
            for j in range(k + 1, i + 1):
                s[i][j] = s[i][j] - lik * dk * lower[j][k].conjugate()

    return PsdResult(True, pivots=tuple(pivots),
                     lower=tuple(tuple(r) for r in lower))


def psd_reconstruct(res: PsdResult, d: int) -> Matrix:
    """Rebuild L diag(pivots) L† from a positive PsdResult."""
    assert res.psd and res.lower is not None and res.pivots is not None
    out = [[GR_ZERO] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            acc = GR_ZERO
            for k in range(d):
                acc = acc + res.lower[i][k] * res.pivots[k] * \
                    res.lower[j][k].conjugate()
            out[i][j] = acc
    return out

