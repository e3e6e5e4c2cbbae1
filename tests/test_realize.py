"""Orthogonal-representation search and verification."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from conftest import random_graph
from siccert import fixture_path, realize
from siccert.enumeration import THIRTEEN_CHI4_G6
from siccert.graphs import Graph, parse_graph6
from siccert.realize import (
    find_realization,
    objective_and_gradient,
    verify_realization,
)

YU_OH = parse_graph6("L?AB?vOLDPHa`o")

YO_VECTORS = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (0, 1, -1), (0, 1, 1), (1, 0, -1), (1, 0, 1), (1, -1, 0), (1, 1, 0),
    (1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1),
]


# the edge-by-edge loop that realize._objective replaced, as it was
def reference_objective(x: np.ndarray, n: int, d: int, edges, is_complex: bool):
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


class TestSearch:
    def test_yu_oh_found(self):
        res = find_realization(YU_OH, 3, restarts=25, seed=0)
        assert res.status == "found"
        assert res.residual <= 1e-12
        assert res.min_pairwise_distinctness >= 1e-6
        assert res.vectors.shape == (13, 3)
        assert np.allclose(np.linalg.norm(res.vectors, axis=1), 1)
        assert verify_realization(YU_OH, res.vectors, exact=False)

    def test_c4_degenerate(self):
        res = find_realization(Graph.cycle(4), 3, restarts=20, seed=0)
        assert res.status == "degenerate"
        assert res.residual <= 1e-12
        assert res.min_pairwise_distinctness < 1e-6

    def test_k4_failed(self):
        res = find_realization(Graph.complete(4), 3, restarts=20, seed=0)
        assert res.status == "failed"
        assert res.residual > 0.1  # bounded away from zero

    def test_triangle_found_complex(self):
        res = find_realization(Graph.complete(3), 3, field="complex",
                               restarts=8, seed=1)
        assert res.status == "found"
        assert verify_realization(Graph.complete(3), res.vectors, exact=False)

    def test_deterministic_under_seed(self):
        a = find_realization(Graph.cycle(5), 3, restarts=6, seed=3)
        b = find_realization(Graph.cycle(5), 3, restarts=6, seed=3)
        assert a.status == b.status
        assert a.restart_index == b.restart_index
        assert np.array_equal(a.vectors, b.vectors)

    def test_workers_match_sequential(self):
        a = find_realization(Graph.cycle(5), 3, restarts=6, seed=3)
        b = find_realization(Graph.cycle(5), 3, restarts=6, seed=3, workers=2)
        assert a.status == b.status and a.restart_index == b.restart_index
        assert np.array_equal(a.vectors, b.vectors)

    def test_validation(self):
        with pytest.raises(ValueError):
            find_realization(YU_OH, 1)
        with pytest.raises(ValueError):
            find_realization(YU_OH, 3, restarts=0)
        with pytest.raises(ValueError):
            find_realization(YU_OH, 3, tol=0)
        with pytest.raises(ValueError):
            find_realization(YU_OH, 3, field="quaternion")
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                find_realization(YU_OH, 3, tol=bad)
            with pytest.raises(ValueError, match="finite"):
                find_realization(YU_OH, 3, delta=bad)
        with pytest.raises(ValueError, match="workers"):
            find_realization(YU_OH, 3, workers=0)

    def test_negative_seed(self, monkeypatch):
        # rejected by name before any restart or pool starts, not by
        # numpy's default_rng inside a restart
        def no_restarts(*args):
            raise AssertionError("restarts ran")

        monkeypatch.setattr(realize, "ordered_results", no_restarts)
        for workers in (1, 2):
            with pytest.raises(ValueError, match="^seed must be at least 0$"):
                find_realization(YU_OH, 3, seed=-1, workers=workers)

    def test_non_integer_seed(self, monkeypatch):
        # rejected by name before any restart or pool starts, not by
        # numpy's SeedSequence inside restart 0
        def no_restarts(*args):
            raise AssertionError("restarts ran")

        monkeypatch.setattr(realize, "ordered_results", no_restarts)
        for workers in (1, 2):
            for seed in (1.5, 2.0, "3", None):
                with pytest.raises(TypeError,
                                   match="^seed must be an integer, not "):
                    find_realization(Graph.complete(4), 3, restarts=1,
                                     seed=seed, workers=workers)

    def test_non_integer_workers(self, monkeypatch):
        # rejected by name before any restart or pool starts, not by
        # multiprocessing.Pool
        def no_restarts(*args):
            raise AssertionError("restarts ran")

        monkeypatch.setattr(realize, "ordered_results", no_restarts)
        for workers in (1.5, 2.0, 2.5, "2"):
            with pytest.raises(TypeError) as exc:
                find_realization(Graph.complete(4), 3, restarts=1,
                                 workers=workers)
            assert str(exc.value) == \
                f"workers must be an integer, not {workers!r}"

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint8(3)])
    def test_integer_seed_types(self, seed):
        a = find_realization(Graph.cycle(5), 3, restarts=3, seed=seed)
        b = find_realization(Graph.cycle(5), 3, restarts=3, seed=int(seed))
        assert (a.status, repr(a.residual), a.restart_index) == \
            (b.status, repr(b.residual), b.restart_index)
        assert a.vectors.tobytes() == b.vectors.tobytes()


class TestBestRestart:
    """Restart k of a search from seed 0 is the one-restart search from
    seed k, and the search returns the best of its restarts."""

    RANK = {"found": 0, "degenerate": 1, "failed": 2}

    @pytest.mark.parametrize("g, status", [(Graph.complete(4), "failed"),
                                           (Graph.cycle(4), "degenerate")],
                             ids=["K4", "C4"])
    def test_best_single_restart(self, g, status):
        res = find_realization(g, 3, restarts=6, seed=0)
        singles = [find_realization(g, 3, restarts=1, seed=k) for k in range(6)]
        k = min(range(6), key=lambda k: (self.RANK[singles[k].status],
                                         singles[k].residual, k))
        best = singles[k]
        assert res.status == best.status == status
        assert res.residual == best.residual
        assert res.restart_index == k
        assert res.vectors.tobytes() == best.vectors.tobytes()
        if status == "failed":
            assert res.residual == min(r.residual for r in singles)


class TestCollapsedVector:
    """A restart whose result has a zero vector fails with residual inf."""

    @staticmethod
    def _collapse(monkeypatch, restarts):
        real = realize.minimize
        calls = []

        def fake(fun, x0, args, **kwargs):
            calls.append(None)
            if len(calls) - 1 not in restarts:
                return real(fun, x0, args=args, **kwargs)
            x = x0.copy()
            x[:args[1]] = 0.0  # vertex 0, real field
            return OptimizeResult(x=x)

        monkeypatch.setattr(realize, "minimize", fake)

    def test_every_restart_collapsed(self, monkeypatch):
        self._collapse(monkeypatch, range(4))
        res = find_realization(Graph.complete(4), 3, restarts=4)
        assert res.status == "failed"
        assert res.residual == math.inf
        assert res.min_pairwise_distinctness == 0.0
        assert res.vectors.tobytes() == np.zeros((4, 3)).tobytes()
        assert res.restart_index == 0

    @pytest.mark.parametrize("g", [Graph.complete(4), Graph.cycle(4), YU_OH],
                             ids=["K4", "C4", "Yu-Oh"])
    def test_collapsed_restart_never_chosen(self, monkeypatch, g):
        self._collapse(monkeypatch, {0})
        res = find_realization(g, 3, restarts=4)
        assert res.restart_index != 0
        assert math.isfinite(res.residual)
        assert np.allclose(np.linalg.norm(res.vectors, axis=1), 1)


class TestBlasThreads:
    def test_minimize_runs_on_one_blas_thread(self, monkeypatch):
        lib = realize._scipy_openblas()
        if lib is None:
            pytest.skip("scipy has no bundled OpenBLAS here")
        seen = []
        real = realize.minimize

        def spy(*args, **kwargs):
            seen.append(lib.scipy_openblas_get_num_threads())
            return real(*args, **kwargs)

        monkeypatch.setattr(realize, "minimize", spy)
        before = lib.scipy_openblas_get_num_threads()
        lib.scipy_openblas_set_num_threads(2)  # capped at the CPUs it found
        callers = lib.scipy_openblas_get_num_threads()
        try:
            find_realization(YU_OH, 3, restarts=2)
            after = lib.scipy_openblas_get_num_threads()
        finally:
            lib.scipy_openblas_set_num_threads(before)
        assert seen == [1, 1]
        assert after == callers  # the caller's count is restored

    def test_missing_library_is_skipped(self, monkeypatch):
        monkeypatch.setattr(realize, "_scipy_openblas", lambda: None)
        unpinned = find_realization(YU_OH, 3, restarts=3)
        monkeypatch.undo()
        pinned = find_realization(YU_OH, 3, restarts=3)
        assert unpinned.status == pinned.status == "found"
        assert np.array_equal(unpinned.vectors, pinned.vectors)


class TestObjective:
    def test_matches_reference_loop(self):
        # bit for bit: the search's iterates, and so its printed
        # residuals and vectors, depend on every last bit of f and g
        rng = np.random.default_rng(13)
        inputs = edgeless = 0
        for field in ("real", "complex"):
            is_complex = field == "complex"
            for _ in range(1600):
                n = int(rng.integers(1, 17))
                d = int(rng.integers(2, 6))
                p = 0.0 if rng.random() < 0.1 else rng.random()
                edges = list(random_graph(n, p, rng).edges())
                width = 2 * d if is_complex else d
                x = rng.normal(size=n * width) * 10.0 ** rng.uniform(-4, 4)
                f_ref, g_ref = reference_objective(x, n, d, edges, is_complex)
                f, g = realize._objective(x, n, d, edges,
                                          *realize._edge_ends(edges),
                                          is_complex)
                assert f == f_ref, (field, n, d, edges)
                assert g.tobytes() == g_ref.tobytes(), (field, n, d, edges)
                inputs += 1
                edgeless += not edges
        assert inputs >= 3000
        assert edgeless >= 200

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(6):
            n, d = 6, 3
            g = random_graph(n, 0.5, rng)
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
                        m = z.reshape(n, 2 * d)
                        return m[:, :d] + 1j * m[:, d:]
                    return z.reshape(n, d)

                h = 1e-6
                fd = np.zeros_like(x)
                for k in range(x.size):
                    xp, xm = x.copy(), x.copy()
                    xp[k] += h
                    xm[k] -= h
                    fp, _ = objective_and_gradient(unpack(xp), g)
                    fm, _ = objective_and_gradient(unpack(xm), g)
                    fd[k] = (fp - fm) / (2 * h)
                rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
                worst = max(worst, rel)
        assert worst <= 1e-6

    def test_scale_and_rotation_invariance(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=(13, 3))
        f0, _ = objective_and_gradient(v, YU_OH)
        # per-vector scaling leaves the quotient objective unchanged
        scales = rng.uniform(0.2, 5.0, size=(13, 1))
        f1, _ = objective_and_gradient(v * scales, YU_OH)
        assert abs(f0 - f1) < 1e-12
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        f2, _ = objective_and_gradient(v @ q.T, YU_OH)
        assert abs(f0 - f2) < 1e-12

    def test_zero_objective_iff_orthogonal(self):
        f, _ = objective_and_gradient(np.eye(3), Graph.complete(3))
        assert f == 0
        f2, _ = objective_and_gradient(
            np.array([[1.0, 0, 0], [1.0, 1.0, 0], [0, 0, 1.0]]),
            Graph.complete(3))
        assert f2 > 0.4


class TestSearchMatchesReference:
    """find_realization takes the same steps with either objective."""

    JOBS = ([(parse_graph6(s), "real") for s in THIRTEEN_CHI4_G6]
            + [(parse_graph6(fixture_path("twelve_chi4.g6").read_text()
                             .strip()), "real"),
               (Graph.complete(4), "real"),
               (YU_OH, "complex")]
            + [(Graph.empty(n), field) for n in (1, 3)
               for field in ("real", "complex")])

    @staticmethod
    def _digest(res):
        return (res.status, repr(res.residual), res.vectors.tobytes(),
                repr(res.min_pairwise_distinctness), res.restart_index)

    def test_same_result_with_reference_objective(self, monkeypatch):
        calls = [0]

        def reference(x, n, d, edges, ends, others, is_complex):
            calls[0] += 1
            return reference_objective(x, n, d, edges, is_complex)

        for k, (g, field) in enumerate(self.JOBS):
            res = find_realization(g, 3, field=field, restarts=3, seed=k)
            with monkeypatch.context() as mp:
                mp.setattr(realize, "_objective", reference)
                ref = find_realization(g, 3, field=field, restarts=3, seed=k)
            assert self._digest(res) == self._digest(ref), (k, field)
        assert calls[0] > 1000


class TestVerify:
    def test_exact_integer_vectors(self):
        from siccert.certify import ProjectorSet, orthogonality_graph
        g = orthogonality_graph(ProjectorSet.from_exact(3, YO_VECTORS))
        assert verify_realization(g, YO_VECTORS, exact=True)

    def test_exact_basis_against_triangle(self):
        assert verify_realization(Graph.complete(3),
                                  [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                                  exact=True)

    def test_exact_duplicate_ray_fails(self):
        assert not verify_realization(Graph.path(3),
                                      [(1, 0, 0), (0, 1, 0), (1, 0, 0)],
                                      exact=True)
        assert not verify_realization(Graph.path(3),
                                      [(1, 0, 0), (0, 1, 0), (2, 0, 0)],
                                      exact=True)

    def test_exact_missing_orthogonality_fails(self):
        assert not verify_realization(Graph.complete(3),
                                      [(1, 0, 0), (1, 1, 0), (0, 0, 1)],
                                      exact=True)

    def test_exact_zero_vector_fails(self):
        assert not verify_realization(Graph.path(2), [(1, 0), (0, 0)],
                                      exact=True)

    def test_numeric_tolerances(self):
        ok = [(1.0, 0.0, 0.0), (1e-10, 1.0, 0.0), (0.0, 0.0, 1.0)]
        assert verify_realization(Graph.complete(3), ok, exact=False,
                                  tol=1e-8)
        assert not verify_realization(Graph.complete(3), ok, exact=False,
                                      tol=1e-12)

    @pytest.mark.parametrize("vectors", [
        [(math.nan, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(math.nan,) * 3] * 4,
        [(math.inf, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(complex(0, math.inf), 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
    ], ids=["nan-row", "all-nan", "inf-row", "imaginary-inf"])
    def test_numeric_non_finite_fails(self, vectors):
        # K4 has no representation in d = 3, but a NaN fails every
        # comparison that would reject it; these once returned True,
        # with numpy RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not verify_realization(Graph.complete(4), vectors,
                                          exact=False)

    @pytest.mark.parametrize("g, vectors", [
        (Graph.complete(4), [(1e200, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        (Graph.complete(2), [(1e200, 0, 0)] * 2),
    ], ids=["K4", "K2-parallel"])
    def test_numeric_overflowing_norm_fails(self, g, vectors):
        # the squared norm of 1e200 overflows; the row once normalized
        # to zero and so passed as orthogonal to every other row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not verify_realization(g, vectors, exact=False)

    def test_numeric_huge_scale_still_verifies(self):
        from siccert.certify import ProjectorSet, orthogonality_graph
        g = orthogonality_graph(ProjectorSet.from_exact(3, YO_VECTORS))
        vectors = np.array(YO_VECTORS, dtype=complex) * 1e200
        before = vectors.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert verify_realization(g, vectors, exact=False)
        assert (vectors == before).all()  # the caller's array is kept

    def test_numeric_zero_row_fails(self):
        assert not verify_realization(Graph.path(2), [(1, 0), (0, 1e-13)],
                                      exact=False)

    def test_numeric_near_parallel_non_edge_fails(self):
        assert not verify_realization(Graph.empty(2),
                                      [(1, 0, 0), (1, 1e-9, 0)],
                                      exact=False)

    def test_numeric_needs_a_2d_array(self):
        with pytest.raises(ValueError, match="2-d"):
            verify_realization(Graph.path(2), np.zeros((2, 3, 1)),
                               exact=False)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            verify_realization(Graph.path(3), [(1, 0), (0, 1)], exact=True)
        with pytest.raises(ValueError):
            verify_realization(Graph.path(2), [(1, 0), (0, 1, 0)],
                               exact=True)
