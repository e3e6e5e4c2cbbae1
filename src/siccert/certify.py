"""Deciding whether a projector set is state-independently contextual.

A set of rank-one projectors qualifies when there are weights w ≥ 0
and a bound y < 1 with (a) every independent set of the orthogonality
graph having weight-sum ≤ y and (b) Σ w_i Π_i ⪰ 𝟙.  Both conditions
are decided exactly: candidate weights come from the fractional-clique
LP or from a floating cutting-plane loop, but a SIC verdict is only
ever issued after exact rational verification of (a) and (b).
NOT_SIC is only issued on an explicit, replayable obstruction; when
neither side can be certified the answer is UNDECIDED.

numpy and scipy are imported inside the functions that use them, so
that exact certification loads neither.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import TYPE_CHECKING

from .canon import canonicalize
from .coloring import fractional_chromatic_number
from .exact import (
    GaussianRational,
    IntegerRay,
    Matrix,
    PsdResult,
    Vector,
    as_fraction,
    format_gaussian,
    format_rational,
    inner,
    integer_ray,
    nullspace,
    over_lcm,
    parse_gaussian,
    psd_check_exact,
    rationalize,
)
from .graphs import (
    Graph,
    heaviest_maximal_independent_set,
    iter_bits,
    max_weight_independent_set,
    maximal_set_per_vertex,
)

if TYPE_CHECKING:
    import numpy as np


class VectorFileError(ValueError):
    pass


class DuplicateProjectorError(ValueError):
    pass


class AmbiguousOrthogonalityError(ValueError):
    pass


@dataclass(frozen=True)
class ProjectorSet:
    """Rank-one projectors Π_i = v_i v_i†/⟨v_i,v_i⟩ given by vectors.

    Exact sets hold GaussianRational entries; numeric sets complex
    floats.  Vectors need not be normalized (the projector formula
    divides the norm out)."""

    d: int
    vectors: tuple[tuple, ...]
    exact: bool

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("dimension must be at least 2")
        for i, v in enumerate(self.vectors):
            if len(v) != self.d:
                raise ValueError(f"vector {i} has length {len(v)}, not {self.d}")
            if not any(bool(x) for x in v):
                raise ValueError(f"vector {i} is zero")

    @property
    def n(self) -> int:
        return len(self.vectors)

    @staticmethod
    def from_exact(d: int, vectors) -> "ProjectorSet":
        rows = tuple(tuple(GaussianRational.of(x) for x in v) for v in vectors)
        return ProjectorSet(d, rows, exact=True)

    @staticmethod
    def from_numeric(d: int, vectors) -> "ProjectorSet":
        rows = tuple(tuple(complex(x) for x in v) for v in vectors)
        return ProjectorSet(d, rows, exact=False)

    def projector(self, i: int) -> Matrix:
        """Exact projector matrix for vector i (exact sets only)."""
        assert self.exact
        v = self.vectors[i]
        nrm = inner(v, v)
        return [[v[a] * v[b].conjugate() / nrm for b in range(self.d)]
                for a in range(self.d)]

    def numeric_vectors(self) -> np.ndarray:
        """Unit-normalized vectors as a complex (n, d) array."""
        import numpy as np
        arr = np.array([_complex_row(v) for v in self.vectors], dtype=complex)
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(arr, axis=1, keepdims=True)
        # first divide a row whose squared norm under- or overflows by its largest part
        part = np.maximum(abs(arr.real), abs(arr.imag)).max(axis=1, keepdims=True)
        arr = arr / np.where((norms == 0) | np.isinf(norms), part, 1.0)
        return arr / np.linalg.norm(arr, axis=1, keepdims=True)

    @cached_property
    def integer_rays(self) -> tuple[IntegerRay, ...]:
        """Each exact ray scaled by the lcm of its denominators, as the int
        tuples of its real and imaginary parts: the same projectors, in
        Gaussian integers.  Built on first use (exact sets only)."""
        assert self.exact
        return tuple(integer_ray(v) for v in self.vectors)

    def weighted_sum(self, w) -> Matrix:
        """Σ w_i Π_i exactly (exact sets only).  With u_i the integer
        ray, Π_i = u_i u_i†/‖u_i‖², so the sum is integer numerators
        over D, the lcm of the denominators of the w_i/‖u_i‖², divided
        by D at the end."""
        if len(w) != self.n:
            raise ValueError("weight count does not match vertex count")
        terms = [(as_fraction(wi) / (sum(map(mul, re, re)) + sum(map(mul, im, im))),
                  re, im) for wi, (re, im) in zip(w, self.integer_rays) if wi]
        fs, den = over_lcm([t for t, _, _ in terms])
        d = self.d
        sre = [[0] * d for _ in range(d)]
        sim = [[0] * d for _ in range(d)]
        for f, (_, re, im) in zip(fs, terms):
            for a in range(d):
                # f·u_a·conj(u_b), row a
                fr, fi, ra, ia = f * re[a], f * im[a], sre[a], sim[a]
                for b in range(d):
                    ra[b] += fr * re[b] + fi * im[b]
                    ia[b] += fi * re[b] - fr * im[b]
        return [[GaussianRational(Fraction(x, den), Fraction(y, den))
                 for x, y in zip(ra, ia)] for ra, ia in zip(sre, sim)]


def _complex_row(v) -> list[complex]:
    """complex() of each entry of v, or of v divided exactly by its largest
    part if an entry overflows or a nonzero one underflows to 0."""
    try:
        row = [complex(x) for x in v]
        if all(z or not x for z, x in zip(row, v)):
            return row
    except OverflowError:
        pass
    top = max(max(abs(x.re), abs(x.im)) for x in v)
    return [complex(x / top) for x in v]


# ---------------------------------------------------------------------------
# vector files
# ---------------------------------------------------------------------------

def _split_entries(line: str) -> list[str]:
    if "," in line:
        return [t.strip() for t in line.split(",") if t.strip()]
    toks = line.split()
    out: list[str] = []
    for t in toks:
        if t == "i" and out:
            out[-1] += " i"
        else:
            out.append(t)
    return out


def parse_vector_file(text: str, mode: str = "auto") -> ProjectorSet:
    """Read the one-projector-per-line format.

    First data line: the dimension d.  Each later line: d entries,
    either exact ("p/q", "p/q+r/s i") or decimal floats; '#' starts a
    comment.  A line holding a comma is split on commas only, so an
    entry may contain spaces ("1/2 + 1/2 i, 0").  Otherwise it is split
    on whitespace and a lone "i" token joins the entry before it: "0 i"
    is one entry, and "1/2 + 1/2 i" is three entries.  mode "auto" uses
    exact arithmetic iff every entry parses as a Gaussian rational.
    An entry with a zero denominator or a non-finite value ("1/0",
    "nan", "1e400") is a VectorFileError naming its line, in any mode.
    """
    if mode not in ("auto", "exact", "numeric"):
        raise ValueError(f"unknown mode {mode!r}")
    lines = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((ln, body))
    if not lines:
        raise VectorFileError("no data lines")
    ln0, head = lines[0]
    try:
        d = int(head)
    except ValueError:
        raise VectorFileError(f"line {ln0}: dimension must be an integer, "
                              f"got {head!r}") from None
    rows = []
    for ln, body in lines[1:]:
        entries = _split_entries(body)
        if len(entries) != d:
            raise VectorFileError(
                f"line {ln}: expected {d} entries, got {len(entries)}")
        rows.append((ln, entries))
    if not rows:
        raise VectorFileError("no vectors after the dimension line")

    def read(entry):
        return [[entry(ln, e) for e in entries] for ln, entries in rows]

    if mode == "exact":
        try:
            return ProjectorSet.from_exact(d, read(_exact_entry))
        except ValueError as exc:
            raise VectorFileError(f"exact parse failed: {exc}") from None
    if mode == "numeric":
        return ProjectorSet.from_numeric(d, read(_numeric_entry))
    try:
        return ProjectorSet.from_exact(d, read(_exact_entry))
    except ValueError:
        return ProjectorSet.from_numeric(d, read(_numeric_entry))


def _exact_entry(ln: int, e: str) -> GaussianRational:
    if "." in e or "e" in e or "E" in e:
        raise ValueError(f"line {ln}: decimal {e!r} is not exact")
    try:
        return parse_gaussian(e)
    except (ValueError, ZeroDivisionError):  # "1/0" is the latter
        raise ValueError(f"line {ln}: cannot parse entry {e!r}") from None


def _numeric_entry(ln: int, e: str) -> complex:
    try:
        z = complex(e.replace(" ", "").replace("i", "j"))
    except ValueError:
        raise VectorFileError(f"line {ln}: cannot parse entry {e!r}") from None
    if not cmath.isfinite(z):
        raise VectorFileError(f"line {ln}: entry {e!r} is not finite")
    return z


def write_vector_file(s: ProjectorSet, comment: str | None = None) -> str:
    out = []
    if comment:
        for line in comment.splitlines():
            out.append(f"# {line}")
    out.append(str(s.d))
    for v in s.vectors:
        if s.exact:
            out.append("  ".join(format_gaussian(x) for x in v))
        else:
            out.append("  ".join(_format_float_entry(x) for x in v))
    return "\n".join(out) + "\n"


def _format_float_entry(z: complex) -> str:
    if z.imag == 0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


# ---------------------------------------------------------------------------
# orthogonality graph
# ---------------------------------------------------------------------------

def orthogonality_graph(s: ProjectorSet, tol: float = 0.0) -> Graph:
    """Edge {i,j} iff Π_i Π_j = 0, decided exactly or within tol on
    normalized vectors.  Parallel vectors (the same projector twice)
    are an error; numeric overlaps in (tol, 10·tol) are ambiguous and
    also an error."""
    n = s.n
    rows = [0] * n
    if s.exact:
        rays = s.integer_rays
        norms = [sum(map(mul, re, re)) + sum(map(mul, im, im))
                 for re, im in rays]
        for i, (ri, ii) in enumerate(rays):
            for j in range(i + 1, n):
                rj, ij = rays[j]
                # ⟨u_i, u_j⟩ in Gaussian integers; |⟨u,v⟩|² = ‖u‖²‖v‖²
                # (Cauchy-Schwarz with equality) iff u ∥ v, at any scale
                re = sum(map(mul, ri, rj)) + sum(map(mul, ii, ij))
                im = sum(map(mul, ri, ij)) - sum(map(mul, ii, rj))
                if not (re or im):
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                elif re * re + im * im == norms[i] * norms[j]:
                    raise DuplicateProjectorError(
                        f"vectors {i} and {j} are parallel")
    else:
        if tol <= 0:
            raise ValueError("numeric orthogonality needs tol > 0")
        import numpy as np
        arr = s.numeric_vectors()
        overlaps = np.abs(arr @ arr.conj().T)
        for i in range(n):
            for j in range(i + 1, n):
                ov = overlaps[i, j]
                if ov <= tol:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                elif ov < 10 * tol:
                    raise AmbiguousOrthogonalityError(
                        f"overlap of vectors {i},{j} is {ov:.3e}, inside "
                        f"the ambiguous zone ({tol:.1e}, {10 * tol:.1e})")
                elif ov >= 1 - 10 * tol:
                    raise DuplicateProjectorError(
                        f"vectors {i} and {j} are parallel within tolerance")
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# bounds and values
# ---------------------------------------------------------------------------

def noncontextual_bound(g: Graph, w) -> Fraction:
    """Largest value a deterministic orthogonality-respecting 0/1
    assignment can give the inequality's left side: the maximum
    w-weight of an independent set."""
    wf = [as_fraction(x) for x in w]
    if len(wf) != g.n:
        raise ValueError("weight count does not match vertex count")
    if any(x < 0 for x in wf):
        raise ValueError("weights must be nonnegative")
    _, val = max_weight_independent_set(g, wf)
    return val


def noncontextual_bound_sweep(g: Graph, w) -> Fraction:
    """Cross-check by sweeping all 2^n deterministic assignments of
    the left side Σ w_i p_i − Σ_{edges} (w_i+w_j) p_i p_j."""
    iw, den = over_lcm([as_fraction(x) for x in w])
    if len(iw) != g.n:
        raise ValueError("weight count does not match vertex count")
    if g.n > 20:
        raise ValueError("sweep is guarded at 20 vertices")
    best = None
    for p in range(1 << g.n):
        # Σ_{edges inside p}(w_i + w_j) = Σ_{i in p} w_i · |N(i) ∩ p|
        acc = 0
        for v in iter_bits(p):
            acc += iw[v] * (1 - (g.rows[v] & p).bit_count())
        if best is None or acc > best:
            best = acc
    return Fraction(best, den)


def quantum_value(s: ProjectorSet, w, state: np.ndarray) -> float:
    """tr(ρ Σ w_i Π_i) for a density matrix, or ⟨ψ|Σ w_i Π_i|ψ⟩ for a
    unit vector, in the set's dimension d."""
    import numpy as np
    m = _numeric_weighted_sum(s, w)
    state = np.asarray(state, dtype=complex)
    d = s.d
    if state.shape not in ((d,), (d, d)):
        raise ValueError(f"state must have shape ({d},) or ({d}, {d}) "
                         f"in dimension d = {d}, not {state.shape}")
    if state.ndim == 1:
        if abs(np.linalg.norm(state) - 1) > 1e-9:
            raise ValueError("state vector is not normalized")
        return float(np.real(state.conj() @ m @ state))
    if abs(np.trace(state).real - 1) > 1e-9 or abs(np.trace(state).imag) > 1e-9:
        raise ValueError("density matrix must have unit trace")
    return float(np.real(np.trace(state @ m)))


def quantum_value_floor(s: ProjectorSet, w) -> float:
    """min over states of the quantum value: the smallest eigenvalue
    of Σ w_i Π_i."""
    import numpy as np
    return float(np.linalg.eigvalsh(_numeric_weighted_sum(s, w))[0])


def _numeric_weighted_sum(s: ProjectorSet, w) -> np.ndarray:
    if len(w) != s.n:
        raise ValueError("weight count does not match vertex count")
    import numpy as np
    arr = s.numeric_vectors()
    m = np.zeros((s.d, s.d), dtype=complex)
    for i in range(s.n):
        m += float(w[i]) * np.outer(arr[i], arr[i].conj())
    return m


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Obstruction:
    """A replayable refutation: the state is orthogonal to every
    projector except those of the recorded independent set, forcing
    its weight-sum to at least forced_bound ≥ 1 for any weights that
    satisfy the operator condition."""

    state: tuple[GaussianRational, ...]
    independent_set: int  # vertex mask; empty = operator condition unsatisfiable
    forced_bound: Fraction
    note: str


@dataclass(frozen=True)
class SicCertificate:
    status: str  # "SIC" | "NOT_SIC" | "UNDECIDED"
    graph: Graph
    w: tuple[Fraction, ...] | None = None
    y: Fraction | None = None
    psd_witness: PsdResult | None = None
    obstruction: Obstruction | None = None
    rounds: int = 0
    diagnostics: str = ""


@dataclass(frozen=True)
class Inequality:
    """Σ_i w_i ⟨Π_i⟩ − Σ_{edges {i,j}} (w_i+w_j) ⟨Π_iΠ_j⟩ ≤ y."""

    graph: Graph
    singles: tuple[tuple[int, Fraction], ...]
    pairs: tuple[tuple[int, int, Fraction], ...]
    bound: Fraction

    def render(self) -> str:
        parts = []
        for i, c in self.singles:
            parts.append(f"{format_rational(c)} <P{i}>")
        lhs = " + ".join(parts)
        for i, j, c in self.pairs:
            lhs += f" - {format_rational(-c)} <P{i} P{j}>"
        return f"{lhs} <= {format_rational(self.bound)}"


def emit_inequality(s: ProjectorSet, cert: SicCertificate) -> Inequality:
    if cert.status != "SIC":
        raise ValueError("inequality emission requires a SIC certificate")
    assert cert.w is not None and cert.y is not None
    g = cert.graph
    singles = tuple((i, cert.w[i]) for i in range(g.n))
    pairs = tuple((i, j, -(cert.w[i] + cert.w[j])) for i, j in g.edges())
    return Inequality(g, singles, pairs, cert.y)


def _kernel_excluding(s: ProjectorSet, skip: int) -> list[Vector]:
    """Basis of the joint kernel of all projectors except vertex skip
    (skip < 0 keeps them all): solutions of ⟨v_j, x⟩ = 0."""
    rows = [[x.conjugate() for x in s.vectors[j]]
            for j in range(s.n) if j != skip]
    return nullspace(rows, s.d)


def _obstruction_scan(s: ProjectorSet, g: Graph) -> Obstruction | None:
    common = _kernel_excluding(s, -1)
    if common:
        return Obstruction(
            state=tuple(common[0]),
            independent_set=0,
            forced_bound=Fraction(1),
            note="state orthogonal to every projector: the operator "
                 "condition cannot reach 1 on it for any weights")
    full = g.vertex_mask()
    for i in range(s.n):
        if g.rows[i] | (1 << i) != full:
            continue  # {i} maximal independent iff i sees every other vertex
        for x in _kernel_excluding(s, i):
            vi = s.vectors[i]
            # x†Π_i x / ⟨x,x⟩ > 0: x ⊥ v_i would lie in the common kernel {0}
            q = inner(vi, x).abs2() / (inner(vi, vi).re * inner(x, x).re)
            return Obstruction(
                state=tuple(x),
                independent_set=1 << i,
                forced_bound=1 / q,
                note=f"state lies in the kernel of every projector except "
                     f"{i}, forcing w_{i} ≥ {format_rational(1 / q)} ≥ 1 "
                     f"while the independent set {{{i}}} caps it below 1")
    return None


def _certified(s: ProjectorSet, g: Graph, w: list[Fraction],
               rounds: int) -> SicCertificate | None:
    """Exact check of both conditions on w, then on its orbit average
    (built only if w fails): the SIC certificate of the first to pass."""
    for average in (False, True):
        cand = _orbit_average(g, w) if average else w
        if any(wi < 0 for wi in cand):
            continue
        _, y = max_weight_independent_set(g, cand)
        if not y < 1:
            continue
        diff = s.weighted_sum(cand)  # Σ w_i Π_i − 𝟙
        for a in range(s.d):
            diff[a][a] -= 1
        psd = psd_check_exact(diff)
        if psd.psd:
            return SicCertificate("SIC", g, w=tuple(cand), y=y,
                                  psd_witness=psd, rounds=rounds)
    return None


def _orbit_average(g: Graph, w: list[Fraction]) -> list[Fraction]:
    out = list(w)
    for orbit in canonicalize(g).orbits:
        members = list(iter_bits(orbit))
        avg = sum((w[v] for v in members), Fraction(0)) / len(members)
        for v in members:
            out[v] = avg
    return out


def certify_sic(s: ProjectorSet, max_rounds: int = 60,
                tol: float = 1e-8) -> SicCertificate:
    """Decide the two defining conditions for the projector set.

    Numeric sets get the floating cutting-plane loop only, so their
    best answer is UNDECIDED with diagnostics.  Exact sets are scanned
    for obstructions (NOT_SIC), then climb one ladder of exact
    candidates: the fractional-clique weights if χ_f > d, then the
    cutting planes' weights rationalized at denominators 10³, 10⁶ and
    10⁹, each followed by its orbit average.  The first to pass the
    exact check of both conditions is the SIC certificate.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    g = orthogonality_graph(s, tol=tol)
    if not s.exact:
        _, rounds, lam, diag = _cutting_planes(s, g, max_rounds)
        diag = diag or ("numeric input: cutting planes reached min "
                        f"eigenvalue {lam:.2e}, but exact verification "
                        "needs exact entries")
        return SicCertificate("UNDECIDED", g, rounds=rounds, diagnostics=diag)

    obs = _obstruction_scan(s, g)
    if obs is not None:
        return SicCertificate("NOT_SIC", g, obstruction=obs,
                              diagnostics=obs.note)

    fr = fractional_chromatic_number(g)
    if fr.value > s.d:
        scale = Fraction(s.d) / fr.value
        cert = _certified(s, g, [wi * scale for wi in fr.weights], 0)
        if cert is not None:
            return cert

    w_float, rounds, lam, diag = _cutting_planes(s, g, max_rounds)
    if w_float is None:
        return SicCertificate("UNDECIDED", g, rounds=rounds, diagnostics=diag)
    for denom in (10 ** 3, 10 ** 6, 10 ** 9):
        cert = _certified(s, g, [rationalize(x, denom) for x in w_float],
                          rounds)
        if cert is not None:
            return cert
    return SicCertificate(
        "UNDECIDED", g, rounds=rounds,
        diagnostics=f"numeric convergence (min eigenvalue {lam:.2e}) "
                    "but exact verification failed on the "
                    "rationalization ladder")


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call.

    Importing scipy.optimize would take most of the time of `import
    siccert`, and only the numeric cutting planes need it, so exact
    certification never loads it.  The name stays a module attribute
    that _cutting_planes looks up on each call, so a wrapper put in its
    place from outside (perfbench's tracer, a test) sees every call."""
    import scipy.optimize
    return scipy.optimize.linprog(*args, **kwargs)


def _cutting_planes(s: ProjectorSet, g: Graph, max_rounds: int):
    """Minimize y over (w, y) with independent-set sums ≤ y and state
    cuts Σ_i w_i ⟨x|Π_i|x⟩ ≥ 1, both added lazily.  While the heaviest
    maximal independent set weighs more than y it becomes a new row;
    once none does, a round adds the cut at the bottom eigenvector of
    Σ w_i Π_i.  Only these rounds count against max_rounds."""
    import numpy as np
    n = s.n
    arr = s.numeric_vectors()
    projs = [np.outer(arr[i], arr[i].conj()) for i in range(n)]

    def set_row(mask: int) -> list[float]:  # Σ_{v in mask} w_v - y ≤ 0
        return [float(mask >> v & 1) for v in range(n)] + [-1.0]

    sets = maximal_set_per_vertex(g)
    set_rows = [set_row(mask) for mask in sets]
    # seed cut: the maximally mixed state needs Σ w_i ≥ d
    cut_rows = [[-1.0 / s.d] * n + [0.0]]
    c = [0.0] * n + [1.0]
    rounds = 0
    lam = -np.inf
    while rounds < max_rounds:
        res = linprog(c, A_ub=set_rows + cut_rows,
                      b_ub=[0.0] * len(set_rows) + [-1.0] * len(cut_rows),
                      method="highs")
        if not res.success:
            return None, rounds, lam, f"LP solver failed: {res.message}"
        w = res.x[:n]
        y = res.x[n]
        # HiGHS meets w ≥ 0 and the set rows only within its feasibility
        # tolerance (~1e-7), so the heaviest set may already be a row;
        # re-adding it would never end the loop
        mask, weight = heaviest_maximal_independent_set(g, w.clip(0).tolist())
        if weight > y + 1e-9 and mask not in sets:
            sets.append(mask)
            set_rows.append(set_row(mask))
            continue
        rounds += 1
        eigvals, eigvecs = np.linalg.eigh(_numeric_weighted_sum(s, w))
        lam = float(eigvals[0])
        if lam >= 1 - 1e-9:
            if y < 1 - 1e-12:
                return w, rounds, lam, ""
            return None, rounds, lam, (
                f"operator condition met but bound y={y:.6f} is not "
                "below 1: no qualifying weights were found numerically")
        x = eigvecs[:, 0]
        cut_rows.append([-float(np.real(x.conj() @ p @ x)) for p in projs]
                        + [0.0])
    return None, rounds, lam, (
        f"no numeric convergence in {max_rounds} rounds "
        f"(min eigenvalue reached {lam:.6f})")
