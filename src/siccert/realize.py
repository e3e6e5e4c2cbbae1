"""Numerical search for orthogonal representations of a graph.

A [d,1] representation assigns a ray in dimension d to each vertex so
that adjacent vertices get orthogonal rays and distinct vertices get
distinct rays.  The search minimizes the smooth scale-invariant
objective f(v) = Σ over edges of |⟨v̂_i, v̂_j⟩|² from random starts;
its zeros are exactly the orthogonal representations.  Outcomes are
heuristic: "failed" means no start converged, never that no
representation exists.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy
from scipy.optimize import minimize

from .exact import GaussianRational, inner
from .graphs import Graph
from .runner import check_workers, ordered_results


@dataclass(frozen=True)
class RealizationResult:
    """Best run of the search.

    found: residual ≤ tol and all non-adjacent pairs distinct
    (min_pairwise_distinctness ≥ delta).  degenerate: residual ≤ tol
    but two non-adjacent vertices landed on the same ray.  failed: no
    restart reached residual ≤ tol; residual is then the minimum seen.
    """

    status: str  # "found" | "degenerate" | "failed"
    vectors: np.ndarray  # unit rows, shape (n, d)
    residual: float
    min_pairwise_distinctness: float
    restart_index: int


def _objective(x: np.ndarray, n: int, d: int, edges, is_complex: bool):
    if is_complex:
        m = x.reshape(n, 2 * d)
        v = m[:, :d] + 1j * m[:, d:]
    else:
        v = x.reshape(n, d)
    norms = np.einsum("ij,ij->i", v.conj(), v).real
    grad_v = np.zeros_like(v)
    f = 0.0
    for i, j in edges:
        s = np.vdot(v[i], v[j])
        ni, nj = norms[i], norms[j]
        f += abs(s) ** 2 / (ni * nj)
        # d|s|²/dv̄_i = s̄ v_j; quotient rule against n_i n_j
        grad_v[i] += (np.conj(s) * v[j] * ni - abs(s) ** 2 * v[i]) / (ni * ni * nj)
        grad_v[j] += (s * v[i] * nj - abs(s) ** 2 * v[j]) / (nj * nj * ni)
    if is_complex:
        g = np.concatenate([2 * grad_v.real, 2 * grad_v.imag], axis=1)
    else:
        g = 2 * grad_v.real
    return f, g.ravel()


def objective_and_gradient(vectors: np.ndarray, g: Graph):
    """f(v) = Σ_edges |⟨v̂_i,v̂_j⟩|² and its gradient with respect to
    the flattened (real-parametrized) unnormalized vectors."""
    v = np.asarray(vectors)
    n, d = v.shape
    edges = list(g.edges())
    is_complex = np.iscomplexobj(v)
    if is_complex:
        x = np.concatenate([v.real, v.imag], axis=1).ravel()
    else:
        x = v.astype(float).ravel()
    return _objective(x, n, d, edges, is_complex)


def _normalized_stats(v: np.ndarray, g: Graph):
    norms = np.linalg.norm(v, axis=1)
    if np.min(norms) < 1e-12:
        return None
    u = v / norms[:, None]
    ov = np.abs(u @ u.conj().T)
    residual = 0.0
    for i, j in g.edges():
        residual += float(ov[i, j]) ** 2
    mpd = 1.0
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if not g.has_edge(i, j):
                mpd = min(mpd, 1.0 - float(ov[i, j]))
    return u, residual, mpd


@functools.cache
def _scipy_openblas():
    """scipy's bundled OpenBLAS with its thread-count calls, or None."""
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


def _one_restart(job):
    g, d, is_complex, seed, k = job
    n = g.n
    edges = list(g.edges())
    rng = np.random.default_rng(seed + k)
    width = 2 * d if is_complex else d
    x0 = rng.normal(size=n * width)
    with _one_blas_thread():
        res = minimize(_objective, x0, args=(n, d, edges, is_complex),
                       jac=True, method="L-BFGS-B",
                       options={"maxiter": 2000, "ftol": 1e-18, "gtol": 1e-14})
    x = res.x
    if is_complex:
        m = x.reshape(n, 2 * d)
        v = m[:, :d] + 1j * m[:, d:]
    else:
        v = x.reshape(n, d)
    stats = _normalized_stats(v, g)
    if stats is None:
        return k, None, float("inf"), 0.0
    u, residual, mpd = stats
    return k, u, residual, mpd


def find_realization(g: Graph, d: int, field: str = "real",
                     restarts: int = 50, tol: float = 1e-12,
                     delta: float = 1e-6, seed: int = 0,
                     workers: int = 1) -> RealizationResult:
    """Search for a [d,1] orthogonal representation of g.

    Restart k draws its start from seed + k, and the restarts are jobs
    for ordered_results, so results come back in restart order and are
    independent of the worker count.  The best run wins: found runs
    beat degenerate ones, lower residual breaks ties, then lower
    restart index.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if not (0 < tol < math.inf and 0 < delta < math.inf):
        raise ValueError("tol and delta must be positive and finite")
    if field not in ("real", "complex"):
        raise ValueError(f"unknown field {field!r}")
    check_workers(workers)
    is_complex = field == "complex"
    jobs = [(g, d, is_complex, seed, k) for k in range(restarts)]
    runs = list(ordered_results(_one_restart, jobs, workers))

    def rank(run):
        k, u, residual, mpd = run
        converged = residual <= tol
        distinct = mpd >= delta
        # found < degenerate < failed, then residual, then restart index
        cls = 0 if converged and distinct else 1 if converged else 2
        return cls, residual, k

    best = min(runs, key=rank)
    k, u, residual, mpd = best
    if u is None:  # every restart collapsed a vector to zero
        return RealizationResult("failed", np.zeros((g.n, d)),
                                 float("inf"), 0.0, k)
    if residual <= tol:
        status = "found" if mpd >= delta else "degenerate"
    else:
        status = "failed"
        residual = min(r[2] for r in runs)
    return RealizationResult(status, u, residual, mpd, k)


def verify_realization(g: Graph, vectors, exact: bool,
                       tol: float = 1e-8, delta: float = 1e-6) -> bool:
    """Independent check of a representation: every edge orthogonal
    and every non-adjacent pair non-parallel, exactly for rational
    entries or within tolerances otherwise."""
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
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != 2:
        raise ValueError("vectors must form a 2-d array")
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
