"""Numerical search for orthogonal representations of a graph.

A [d,1] representation assigns a ray in dimension d to each vertex so
that adjacent vertices get orthogonal rays and distinct vertices get
distinct rays.  The search minimizes the smooth scale-invariant
objective f(v) = Σ over edges of |⟨v̂_i, v̂_j⟩|² from random starts;
its zeros are exactly the orthogonal representations.  Outcomes are
heuristic: "failed" means no start converged, never that no
representation exists.

numpy and scipy are imported inside the functions that use them, so
that `import siccert` and the exact commands load neither.
"""

from __future__ import annotations

import functools
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .exact import GaussianRational, inner
from .graphs import Graph
from .runner import as_integer, check_workers, ordered_results

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class RealizationResult:
    """One restart's run, or the best of a search's runs.

    found: residual ≤ tol and all non-adjacent pairs distinct
    (min_pairwise_distinctness ≥ delta).  degenerate: residual ≤ tol
    but two non-adjacent vertices landed on the same ray.  failed:
    residual > tol (for the best run, the least of every restart's).
    """

    status: str  # "found" | "degenerate" | "failed"
    vectors: np.ndarray  # unit rows, shape (n, d)
    residual: float
    min_pairwise_distinctness: float
    restart_index: int


def _edge_ends(edges) -> tuple[np.ndarray, np.ndarray]:
    """Both ends of every edge in edge order, as index arrays: ends is
    i₀, j₀, i₁, j₁, … and others is j₀, i₀, j₁, i₁, …, so row k of a
    gathered array belongs to vertex ends[k] across from others[k]."""
    import numpy as np
    ends = np.array(edges, dtype=np.intp).reshape(-1)
    return ends, ends.reshape(-1, 2)[:, ::-1].ravel()


def _vectors(x: np.ndarray, n: int, d: int, is_complex: bool) -> np.ndarray:
    """The n vectors in x, each d reals or d real then d imaginary parts."""
    if is_complex:
        m = x.reshape(n, 2 * d)
        return m[:, :d] + 1j * m[:, d:]
    return x.reshape(n, d)


def _objective(x: np.ndarray, n: int, d: int, edges, ends: np.ndarray,
               others: np.ndarray, is_complex: bool):
    """f and its gradient over all edges at once, bit-identical to
    summing edge by edge.

    Every float result is the same IEEE operation on the same operands,
    in the same order, as a loop over edges that takes s = ⟨v_i, v_j⟩
    with np.vdot, adds |s|²/(n_i n_j) to f and adds to vertex i (and
    likewise j) the term (s̄ v_j n_i − |s|² v_i)/(n_i n_i n_j), the
    quotient-rule form of d|s|²/dv̄_i = s̄ v_j.  L-BFGS-B then takes the
    same steps, so realize's residuals, vectors and restart choice stay
    the same to the last byte.  That holds only under these rules:

    - s comes from one np.matmul of a stack of (1, d) rows v̄_i by
      (d, 1) columns v_j.  numpy hands each row-by-column product to
      the same BLAS ddot (zdotu on the conjugated row, which is zdotc)
      that np.vdot calls, so each s keeps its last bit: under numpy
      2.4.6 they agreed on all of 600 000 real dots (d = 3, 4, 6) and
      1 200 000 complex dots (d = 2..5), where np.einsum differed on
      42–57% of the real and 69–85% of the complex ones.  BLAS may
      fuse multiply and add; no numpy reduction does the same, so
      np.einsum, np.sum and @ on whole matrices are out.
    - |s|² is float_power(|s|, 2.0), with |s| from np.abs in the real
      field and np.hypot of its parts in the complex field: libm's
      pow and hypot.  s ** 2, np.square and numpy's vectorized complex
      abs differ from those in the last bit for some inputs.
    - The per-endpoint terms are (2E, d) array expressions with their
      operands in the order above; row 2k is edge k's term for its
      first end, row 2k + 1 for its second.
    - np.add.at adds the rows into the gradient one at a time in row
      order, so each vertex gets its terms in edge order.  Fancy-index
      += would drop repeated indices, and a reduction would reorder.
    - f is summed left to right.  np.sum sums pairwise, and Python's
      sum compensates from 3.12 on.
    """
    import numpy as np
    v = _vectors(x, n, d, is_complex)
    norms = np.einsum("ij,ij->i", v.conj(), v).real
    # row k belongs to vertex ends[k], across from others[k]
    v_end, v_other = v.take(ends, axis=0), v.take(others, axis=0)
    s = np.matmul(v_end[0::2, None, :].conj(),
                  v_other[0::2, :, None]).reshape(-1)
    if is_complex:
        s2 = np.float_power(np.hypot(s.real, s.imag), 2.0)
        s_end = np.empty((2 * len(s), 1), dtype=s.dtype)
        s_end[0::2, 0] = s.conj()
        s_end[1::2, 0] = s
    else:
        s2 = np.float_power(np.abs(s), 2.0)
        s_end = np.repeat(s, 2)[:, None]  # s̄ = s
    n_end = norms[ends]
    f = 0.0
    for t in (s2 / (n_end[0::2] * n_end[1::2])).tolist():
        f += t
    s2_end = np.repeat(s2, 2)[:, None]
    num = s_end * v_other * n_end[:, None] - s2_end * v_end
    terms = num / (n_end * n_end * norms[others])[:, None]
    grad_v = np.zeros_like(v)
    np.add.at(grad_v, ends, terms)
    if is_complex:
        g = np.concatenate([2 * grad_v.real, 2 * grad_v.imag], axis=1)
    else:
        g = 2 * grad_v.real
    return f, g.ravel()


def objective_and_gradient(vectors: np.ndarray, g: Graph):
    """f(v) = Σ_edges |⟨v̂_i,v̂_j⟩|² and its gradient with respect to
    the flattened (real-parametrized) unnormalized vectors."""
    import numpy as np
    v = np.asarray(vectors)
    n, d = v.shape
    edges = list(g.edges())
    is_complex = np.iscomplexobj(v)
    if is_complex:
        x = np.concatenate([v.real, v.imag], axis=1).ravel()
    else:
        x = v.astype(float).ravel()
    return _objective(x, n, d, edges, *_edge_ends(edges), is_complex)


@functools.cache
def _scipy_openblas():
    """scipy's bundled OpenBLAS with its thread-count calls, or None."""
    import ctypes
    import glob

    import scipy
    libs = os.path.join(os.path.dirname(scipy.__file__), os.pardir, "scipy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        try:
            lib = ctypes.CDLL(path)
            lib.scipy_openblas_get_num_threads.argtypes = []
            lib.scipy_openblas_get_num_threads.restype = ctypes.c_int
            lib.scipy_openblas_set_num_threads.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads.restype = None
        except (OSError, AttributeError):
            continue
        return lib
    return None


@contextmanager
def _one_blas_thread():
    """Hold scipy's OpenBLAS at one thread, then restore its count.

    L-BFGS-B's BLAS threads otherwise compete with each other and with
    the other pool workers for the cores.  Does nothing when the
    library or its calls are missing; the environment is left alone so
    that BLAS outside this search keeps its threads."""
    lib = _scipy_openblas()
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads(before)


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first call.

    Importing scipy.optimize would take most of the time of `import
    siccert`, and only the search needs it.  The name stays a module
    attribute that _one_restart looks up on each call, so a wrapper put
    in its place from outside (perfbench's tracer, a test) sees every
    call and its result."""
    import scipy.optimize
    return scipy.optimize.minimize(*args, **kwargs)


def _one_restart(job) -> RealizationResult:
    """Restart k: L-BFGS-B from a start drawn from seed + k, its vectors
    normalized and the run classified against tol and delta.  args are
    _objective's arguments after x, built once per search.  A vector
    that collapsed to zero fails the run with residual inf."""
    import numpy as np
    g, args, tol, delta, seed, k = job
    n, d, edges, _, _, is_complex = args
    rng = np.random.default_rng(seed + k)
    x0 = rng.normal(size=n * (2 * d if is_complex else d))
    with _one_blas_thread():
        res = minimize(_objective, x0, args=args,
                       jac=True, method="L-BFGS-B",
                       options={"maxiter": 2000, "ftol": 1e-18, "gtol": 1e-14})
    v = _vectors(res.x, n, d, is_complex)
    norms = np.linalg.norm(v, axis=1)
    if np.min(norms) < 1e-12:
        return RealizationResult("failed", np.zeros((n, d)), math.inf, 0.0, k)
    u = v / norms[:, None]
    ov = np.abs(u @ u.conj().T)
    residual = 0.0
    for i, j in edges:
        residual += float(ov[i, j]) ** 2
    mpd = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            if not g.has_edge(i, j):
                mpd = min(mpd, 1.0 - float(ov[i, j]))
    if residual <= tol:
        status = "found" if mpd >= delta else "degenerate"
    else:
        status = "failed"
    return RealizationResult(status, u, residual, mpd, k)


_RANK = {"found": 0, "degenerate": 1, "failed": 2}


def _check_tolerances(tol: float, delta: float) -> None:
    if not (0 < tol < math.inf and 0 < delta < math.inf):
        raise ValueError("tol and delta must be positive and finite")


def find_realization(g: Graph, d: int, field: str = "real",
                     restarts: int = 50, tol: float = 1e-12,
                     delta: float = 1e-6, seed: int = 0,
                     workers: int = 1) -> RealizationResult:
    """Search for a [d,1] orthogonal representation of g.

    Restart k draws its start from seed + k and classifies its own run
    (see _one_restart).  The restarts are jobs for ordered_results, so
    results come back in restart order and are independent of the
    worker count.  The best run is the least under one key: found
    before degenerate before failed, then lower residual, then lower
    restart index.
    """
    d = as_integer(d, "d")
    if d < 2:
        raise ValueError("dimension must be at least 2")
    restarts = as_integer(restarts, "restarts")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    _check_tolerances(tol, delta)
    if field not in ("real", "complex"):
        raise ValueError(f"unknown field {field!r}")
    seed = as_integer(seed, "seed")
    if seed < 0:
        raise ValueError("seed must be at least 0")
    check_workers(workers)
    # loaded here (numpy with it), before a pool forks, so that workers
    # inherit it instead of each importing it again
    import scipy.optimize
    edges = list(g.edges())
    args = (g.n, d, edges, *_edge_ends(edges), field == "complex")
    jobs = [(g, args, tol, delta, seed, k) for k in range(restarts)]
    return min(ordered_results(_one_restart, jobs, workers),
               key=lambda r: (_RANK[r.status], r.residual, r.restart_index))


def verify_realization(g: Graph, vectors, exact: bool,
                       tol: float = 1e-8, delta: float = 1e-6) -> bool:
    """Independent check of a representation: every edge orthogonal
    and every non-adjacent pair non-parallel, exactly for rational
    entries or otherwise within tol and delta, each positive and finite."""
    if len(vectors) != g.n:
        raise ValueError("vector count does not match vertex count")
    if exact:
        vs = [tuple(GaussianRational.of(x) for x in v) for v in vectors]
        dims = {len(v) for v in vs}
        if len(dims) != 1:
            raise ValueError("vectors have mixed dimensions")
        norms = [inner(v, v) for v in vs]
        if any(not n for n in norms):
            return False
        for i in range(g.n):
            for j in range(i + 1, g.n):
                ip = inner(vs[i], vs[j])
                if g.has_edge(i, j):
                    if ip:
                        return False
                elif ip.abs2() == norms[i].re * norms[j].re:
                    return False  # parallel rays on a non-edge
        return True
    _check_tolerances(tol, delta)
    import numpy as np
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != 2:
        raise ValueError("vectors must form a 2-d array")
    if not np.isfinite(v).all():
        return False  # a NaN would fail every rejecting test below
    with np.errstate(over="ignore"):
        big = np.isinf(np.linalg.norm(v, axis=1, keepdims=True))
    # first divide a row whose squared norm overflows by its largest part
    part = np.maximum(abs(v.real), abs(v.imag)).max(axis=1, keepdims=True)
    v = v / np.where(big, part, 1.0)
    norms = np.linalg.norm(v, axis=1)
    if np.min(norms) < 1e-12:
        return False
    u = v / norms[:, None]
    ov = np.abs(u @ u.conj().T)
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.has_edge(i, j):
                if ov[i, j] > tol:
                    return False
            elif 1.0 - ov[i, j] < delta:
                return False
    return True
