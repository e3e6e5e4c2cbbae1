"""Projector sets, vector files, and the SIC decision pipeline."""

import random
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import gauss_jordan_nullspace, random_graph
from siccert import fixture_path
from siccert.canon import canonical_key, canonicalize
from siccert.certify import (
    AmbiguousOrthogonalityError,
    DuplicateProjectorError,
    ProjectorSet,
    VectorFileError,
    _certified,
    _kernel_excluding,
    certify_sic,
    emit_inequality,
    noncontextual_bound,
    noncontextual_bound_sweep,
    orthogonality_graph,
    parse_vector_file,
    quantum_value,
    quantum_value_floor,
    write_vector_file,
)
from siccert.coloring import fractional_chromatic_number
from siccert.exact import (
    GaussianRational,
    inner,
    psd_reconstruct,
)
from siccert.graphs import Graph, parse_graph6

YO_VECTORS = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (0, 1, -1), (0, 1, 1), (1, 0, -1), (1, 0, 1), (1, -1, 0), (1, 1, 0),
    (1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1),
]


def yu_oh() -> ProjectorSet:
    return ProjectorSet.from_exact(3, YO_VECTORS)


# an exact d = 3 set that neither the obstruction scan nor the
# fractional-coloring weights decide, so certify_sic reaches its
# cutting planes
LADDER_VECTORS = [(-1, -1, -1), (1, 0, 1), (1, 1, 0), (1, 1, 2), (1, 2, 1),
                  (2, 0, -1)]


def evaluate_assignment(g: Graph, w, assignment: int) -> Fraction:
    """Exact left side of the inequality for one 0/1 assignment."""
    if len(w) != g.n or assignment >> g.n:
        raise ValueError("weights or assignment do not fit the graph")
    acc = Fraction(0)
    for v in range(g.n):
        if assignment >> v & 1:
            acc += Fraction(w[v]) * (1 - (g.rows[v] & assignment).bit_count())
    return acc


class TestProjectorSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProjectorSet.from_exact(1, [(1,)])
        with pytest.raises(ValueError):
            ProjectorSet.from_exact(2, [(1, 0, 0)])
        with pytest.raises(ValueError):
            ProjectorSet.from_exact(2, [(0, 0)])

    def test_projector_is_rank_one_idempotent(self):
        s = ProjectorSet.from_exact(2, [(1, 1)])
        p = s.projector(0)
        assert p[0][0].re == Fraction(1, 2)
        # idempotent: P^2 = P
        sq = [[sum((p[i][k] * p[k][j] for k in range(2)),
                   start=GaussianRational.of(0)) for j in range(2)]
              for i in range(2)]
        assert sq == p

    def test_weighted_sum_identity_for_basis(self):
        s = ProjectorSet.from_exact(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        m = s.weighted_sum([Fraction(1)] * 3)
        assert all(m[i][i].re == 1 for i in range(3))
        assert all(not m[i][j] for i in range(3) for j in range(3) if i != j)

    @pytest.mark.parametrize("name", ["yu_oh_d3.vec", "cone_yu_oh_d4.vec",
                                      "basis_d3.vec"])
    def test_numeric_vectors_in_range_unchanged(self, name):
        # a row inside the float range is complex() of each entry over
        # its norm, bit for bit
        with open(fixture_path(name)) as fh:
            s = parse_vector_file(fh.read())
        arr = np.array([[complex(x) for x in v] for v in s.vectors])
        want = arr / np.linalg.norm(arr, axis=1, keepdims=True)
        assert s.numeric_vectors().tobytes() == want.tobytes()

    @pytest.mark.parametrize("scale", [Fraction(1, 10 ** 400), 10 ** 400],
                             ids=["tiny", "huge"])
    def test_numeric_vectors_exact_outside_float_range(self, scale):
        # complex() of each entry would under- or overflow; the row is
        # divided exactly by its largest part first
        scaled = [tuple(scale * x for x in LADDER_VECTORS[0]),
                  *LADDER_VECTORS[1:]]
        want = ProjectorSet.from_exact(3, LADDER_VECTORS).numeric_vectors()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ProjectorSet.from_exact(3, scaled).numeric_vectors()
        assert got.tobytes() == want.tobytes()


@st.composite
def exact_sets(draw):
    """Exact sets with zero real parts, negative imaginary parts and
    large denominators among their entries."""
    d = draw(st.integers(2, 4))
    part = st.one_of(st.just(Fraction(0)),
                     st.fractions(max_denominator=10 ** 15))
    entry = st.builds(GaussianRational, part, part)
    vec = st.lists(entry, min_size=d, max_size=d).filter(any)
    return ProjectorSet.from_exact(d, draw(st.lists(vec, min_size=1,
                                                    max_size=6)))


@st.composite
def numeric_sets(draw):
    d = draw(st.integers(2, 4))
    part = st.one_of(st.just(0.0),
                     st.floats(allow_nan=False, allow_infinity=False))
    entry = st.one_of(st.builds(complex, part), st.builds(complex, part, part))
    vec = st.lists(entry, min_size=d, max_size=d).filter(any)
    return ProjectorSet.from_numeric(d, draw(st.lists(vec, min_size=1,
                                                      max_size=6)))


class TestVectorFiles:
    def test_fixture_parses_exact(self):
        text = fixture_path("yu_oh_d3.vec").read_text()
        s = parse_vector_file(text)
        assert s.exact and s.d == 3 and s.n == 13
        assert s.vectors == yu_oh().vectors

    @settings(deadline=None)
    @given(exact_sets())
    @example(ProjectorSet.from_exact(2, [
        (Fraction(1, 2), GaussianRational(Fraction(1, 3), Fraction(-2, 5))),
        (1, -1)]))
    def test_round_trip_exact(self, s):
        text = write_vector_file(s, comment="two rays")
        back = parse_vector_file(text)
        assert back.exact and back.d == s.d and back.vectors == s.vectors

    @settings(deadline=None)
    @given(numeric_sets())
    @example(ProjectorSet.from_numeric(3, [(0.5, -0.25, 0.0),
                                           (0.1 + 0.2j, 0.0, 1.0)]))
    def test_round_trip_numeric(self, s):
        back = parse_vector_file(write_vector_file(s))
        assert not back.exact and back.d == s.d
        assert np.allclose(np.array(back.vectors), np.array(s.vectors))

    def test_mode_detection(self):
        assert parse_vector_file("2\n1 0\n0 1\n").exact
        assert not parse_vector_file("2\n1.0 0\n0 1\n").exact
        assert parse_vector_file("2\n1 0\n0 1\n", mode="numeric").exact is False

    def test_mode_exact_rejects_decimals(self):
        with pytest.raises(VectorFileError):
            parse_vector_file("2\n0.5 1\n1 0\n", mode="exact")

    def test_errors(self):
        with pytest.raises(VectorFileError, match="no data"):
            parse_vector_file("# just a comment\n")
        with pytest.raises(VectorFileError, match="dimension"):
            parse_vector_file("abc\n1 0\n")
        with pytest.raises(VectorFileError, match="expected 3 entries"):
            parse_vector_file("3\n1 0\n")
        with pytest.raises(VectorFileError, match="no vectors"):
            parse_vector_file("3\n")
        with pytest.raises(VectorFileError, match="line 4"):
            parse_vector_file("# header\n2\n1 0\nbroken! entry\n",
                              mode="numeric")

    @pytest.mark.parametrize("mode", ["auto", "exact", "numeric"])
    @pytest.mark.parametrize("entry", ["1/0", "1/2+1/0 i"])
    def test_zero_denominator_names_the_line(self, mode, entry):
        with pytest.raises(VectorFileError, match="line 3"):
            parse_vector_file(f"2\n1 0\n{entry}, 1\n", mode=mode)

    @pytest.mark.parametrize("mode", ["auto", "numeric"])
    @pytest.mark.parametrize("entry", ["nan", "INF", "1e400", "1+nan i"])
    def test_non_finite_entry_names_the_line(self, mode, entry):
        with pytest.raises(VectorFileError, match="line 3"):
            parse_vector_file(f"2\n1 0\n{entry}, 1\n", mode=mode)

    def test_comma_separated_and_spaced_imaginary(self):
        s = parse_vector_file("2\n1/2+1/3 i, 0\n0, 1\n")
        assert s.exact
        assert s.vectors[0][0] == GaussianRational(Fraction(1, 2),
                                                   Fraction(1, 3))

    def test_unknown_mode(self):
        with pytest.raises(ValueError) as exc:
            parse_vector_file("3\n1 0 0\n", mode="bogus")
        assert str(exc.value) == "unknown mode 'bogus'"


class TestOrthogonalityGraph:
    def test_yu_oh_graph(self):
        g = orthogonality_graph(yu_oh())
        assert g.n == 13 and g.edge_count() == 24
        assert canonical_key(g) == canonical_key(
            parse_graph6("L?AB?vOLDPHa`o"))

    def test_duplicate_exact(self):
        s = ProjectorSet.from_exact(2, [(1, 0), (2, 0)])
        with pytest.raises(DuplicateProjectorError):
            orthogonality_graph(s)

    def test_numeric_matches_exact(self):
        arr = [tuple(float(x) for x in v) for v in YO_VECTORS]
        s = ProjectorSet.from_numeric(3, arr)
        g = orthogonality_graph(s, tol=1e-9)
        assert g.rows == orthogonality_graph(yu_oh()).rows

    def test_numeric_needs_tolerance(self):
        s = ProjectorSet.from_numeric(2, [(1.0, 0.0), (0.0, 1.0)])
        with pytest.raises(ValueError):
            orthogonality_graph(s, tol=0.0)

    def test_ambiguous_zone(self):
        eps = 3e-8  # overlap inside (tol, 10 tol) for tol = 1e-8
        s = ProjectorSet.from_numeric(2, [(1.0, 0.0), (eps, 1.0)])
        with pytest.raises(AmbiguousOrthogonalityError):
            orthogonality_graph(s, tol=1e-8)

    def test_duplicate_numeric(self):
        s = ProjectorSet.from_numeric(2, [(1.0, 1.0), (1.0 + 1e-12, 1.0)])
        with pytest.raises(DuplicateProjectorError):
            orthogonality_graph(s, tol=1e-8)


@st.composite
def scaled_sets(draw):
    """Rays from a small set of Gaussian-integer directions, so that many
    pairs are orthogonal and some parallel, each multiplied by a nonzero
    Gaussian rational with non-unit denominators."""
    d = draw(st.integers(2, 4))
    unit = st.sampled_from([0, 0, 1, -1, 1j, -1j, 1 + 1j, 2])
    base = st.lists(unit, min_size=d, max_size=d).filter(any)
    part = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 12))
    scale = st.builds(GaussianRational, part, part).filter(bool)
    rays = draw(st.lists(st.tuples(base, scale), min_size=1, max_size=9))
    return ProjectorSet.from_exact(d, [
        [GaussianRational.of(x) * c for x in v] for v, c in rays])


def reference_orthogonality(s: ProjectorSet) -> tuple[int, ...]:
    """The orthogonality rows from Gaussian-rational inner products."""
    rows = [0] * s.n
    for i, vi in enumerate(s.vectors):
        for j in range(i + 1, s.n):
            vj = s.vectors[j]
            ip = inner(vi, vj)
            if not ip:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            elif ip.abs2() == inner(vi, vi).re * inner(vj, vj).re:
                raise DuplicateProjectorError(
                    f"vectors {i} and {j} are parallel")
    return tuple(rows)


class TestIntegerRays:
    """Each integer path against its Gaussian-rational reference."""

    def test_built_on_first_use(self):
        s = parse_vector_file(fixture_path("yu_oh_d3.vec").read_text())
        assert "integer_rays" not in vars(s)
        orthogonality_graph(s)
        assert vars(s)["integer_rays"] is s.integer_rays

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(scaled_sets())
    def test_rays_are_scaled_vectors(self, s):
        for v, (re, im) in zip(s.vectors, s.integer_rays):
            assert all(type(x) is int for x in re + im)
            k = next(a for a, x in enumerate(v) if x)
            c = GaussianRational(Fraction(re[k]), Fraction(im[k])) / v[k]
            assert c.is_real() and c.re > 0
            assert all(GaussianRational(Fraction(a), Fraction(b)) == c * x
                       for a, b, x in zip(re, im, v))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(scaled_sets())
    def test_orthogonality_graph(self, s):
        try:
            rows = reference_orthogonality(s)
        except DuplicateProjectorError as exc:
            with pytest.raises(DuplicateProjectorError, match=f"^{exc}$"):
                orthogonality_graph(s)
        else:
            assert orthogonality_graph(s).rows == rows

    def test_parallel_under_a_complex_rational_multiple(self):
        v = (GaussianRational(Fraction(1, 2), Fraction(0)),
             GaussianRational(Fraction(0), Fraction(1, 3)), 0)
        c = GaussianRational(Fraction(1, 2), Fraction(1, 3))
        s = ProjectorSet.from_exact(3, [v, (0, 0, 1), [c * x for x in v]])
        with pytest.raises(DuplicateProjectorError,
                           match="^vectors 0 and 2 are parallel$"):
            orthogonality_graph(s)
        with pytest.raises(DuplicateProjectorError):
            reference_orthogonality(s)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(scaled_sets(), st.data())
    def test_weighted_sum(self, s, data):
        w = data.draw(st.lists(
            st.builds(Fraction, st.integers(0, 5), st.integers(1, 40)),
            min_size=s.n, max_size=s.n))
        ref = [[GaussianRational.of(0)] * s.d for _ in range(s.d)]
        for i, wi in enumerate(w):
            p = s.projector(i)
            ref = [[x + wi * y for x, y in zip(r, pr)]
                   for r, pr in zip(ref, p)]
        assert s.weighted_sum(w) == ref

    def test_numpy_built_set(self):
        # 2^32 · 2^32 wraps to 0 in int64, which once made these rays
        # orthogonal
        s = ProjectorSet.from_exact(3, np.array([[2 ** 32, 1, 0], [2 ** 32, 0, 1]]))
        assert all(type(x) is int for re, im in s.integer_rays for x in re + im)
        assert orthogonality_graph(s).rows == (0, 0)

    def test_weighted_sum_needs_one_weight_per_ray(self):
        with pytest.raises(ValueError):
            yu_oh().weighted_sum([Fraction(1)] * 12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(scaled_sets())
    def test_obstruction_kernels(self, s):
        for skip in range(-1, s.n):
            rows = [[x.conjugate() for x in s.vectors[j]]
                    for j in range(s.n) if j != skip]
            assert _kernel_excluding(s, skip) == \
                gauss_jordan_nullspace(rows, s.d)


class TestBounds:
    def test_noncontextual_bound_equals_sweep(self):
        rng = random.Random(42)
        for _ in range(40):
            n = rng.randint(1, 10)
            g = random_graph(n, rng.random(), rng)
            w = [Fraction(rng.randint(0, 9), rng.randint(1, 7))
                 for _ in range(n)]
            assert noncontextual_bound(g, w) == noncontextual_bound_sweep(g, w)

    def test_numpy_weights(self):
        g = Graph.from_edges(3, [(0, 1)])
        w = np.array([2 ** 62] * 3)
        assert noncontextual_bound(g, w) == noncontextual_bound_sweep(g, w) == 2 ** 63

    def test_weight_validation(self):
        g = Graph.cycle(4)
        with pytest.raises(ValueError):
            noncontextual_bound(g, [1, 2, 3])
        with pytest.raises(ValueError):
            noncontextual_bound(g, [1, -1, 1, 1])

    def test_evaluate_assignment(self):
        g = Graph.cycle(4)
        w = [Fraction(1, 2)] * 4
        # independent pair: sum of weights, no penalty
        assert evaluate_assignment(g, w, 0b0101) == 1
        # adjacent pair: w_i + w_j - (w_i + w_j) = 0
        assert evaluate_assignment(g, w, 0b0011) == 0
        # all four: 2 - 4 edges * 1 = -2
        assert evaluate_assignment(g, w, 0b1111) == -2

    def test_quantum_value(self):
        s = yu_oh()
        w = [1.0] * 13
        rho = np.eye(3) / 3
        # each projector contributes tr(rho P) = 1/3
        assert abs(quantum_value(s, w, rho) - 13 / 3) < 1e-12
        e1 = np.array([1.0, 0, 0])
        v = quantum_value(s, w, e1)
        assert v > 0
        with pytest.raises(ValueError):
            quantum_value(s, w, 2 * e1)
        with pytest.raises(ValueError):
            quantum_value(s, w, 2 * rho)

    @pytest.mark.parametrize("state", [
        [[1, 0, 0], [0, 0, 0]],  # once read as a density matrix: 4.333…
        [1, 0, 0, 0],
        [1, 0],
        [[[1, 0, 0]]],
        np.eye(4) / 4,
        1.0,
    ], ids=["2x3", "length-4", "length-2", "3-d", "4x4", "scalar"])
    def test_quantum_value_state_shape(self, state):
        message = (r"^state must have shape \(3,\) or \(3, 3\) in "
                   r"dimension d = 3, not \(")
        with pytest.raises(ValueError, match=message):
            quantum_value(yu_oh(), [1.0] * 13, state)

    def test_quantum_value_floor(self):
        s = ProjectorSet.from_exact(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert abs(quantum_value_floor(s, [1, 1, 1]) - 1) < 1e-12
        assert abs(quantum_value_floor(s, [1, 1, 0])) < 1e-12

    @pytest.mark.parametrize("count", [12, 14])
    def test_quantum_value_weight_count(self, count):
        s = yu_oh()
        w = [1.0] * count
        e1 = np.array([1.0, 0, 0])
        message = "^weight count does not match vertex count$"
        with pytest.raises(ValueError, match=message):
            quantum_value(s, w, e1)
        with pytest.raises(ValueError, match=message):
            quantum_value_floor(s, w)

    def test_sweep_guards(self):
        with pytest.raises(ValueError) as exc:
            noncontextual_bound_sweep(Graph.cycle(5), [1] * 4)
        assert str(exc.value) == "weight count does not match vertex count"
        with pytest.raises(ValueError) as exc:
            noncontextual_bound_sweep(Graph.empty(21), [1] * 21)
        assert str(exc.value) == "sweep is guarded at 20 vertices"


class TestCertifyYuOh:
    def test_full_certificate(self):
        s = yu_oh()
        cert = certify_sic(s)
        assert cert.status == "SIC"
        assert cert.y == Fraction(33, 35)
        assert cert.w == (Fraction(9, 35),) * 9 + (Fraction(6, 35),) * 4
        assert cert.rounds == 0  # exact fast path
        # independent replay of both defining conditions
        assert noncontextual_bound(cert.graph, cert.w) == cert.y
        m = s.weighted_sum(cert.w)
        # sum w_i P_i is exactly the identity here
        assert all(m[i][i].re == 1 for i in range(3))
        assert all(not m[i][j] for i in range(3) for j in range(3) if i != j)
        assert cert.psd_witness.psd
        diff = [[m[a][b] - (1 if a == b else 0) for b in range(3)]
                for a in range(3)]
        assert psd_reconstruct(cert.psd_witness, 3) == diff

    def test_inequality(self):
        s = yu_oh()
        cert = certify_sic(s)
        ineq = emit_inequality(s, cert)
        assert len(ineq.singles) == 13
        assert len(ineq.pairs) == 24
        assert ineq.bound == Fraction(33, 35)
        for i, j, c in ineq.pairs:
            assert cert.graph.has_edge(i, j)
            assert c == -(cert.w[i] + cert.w[j])
        text = ineq.render()
        assert "<= 33/35" in text and "<P0 P1>" in text

    def test_quantum_beats_noncontextual(self):
        s = yu_oh()
        cert = certify_sic(s)
        wf = [float(x) for x in cert.w]
        assert abs(quantum_value_floor(s, wf) - 1.0) < 1e-12
        rng = np.random.default_rng(7)
        for _ in range(25):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            v /= np.linalg.norm(v)
            assert quantum_value(s, wf, v) > float(cert.y)

    def test_rationalization_ladder(self, monkeypatch):
        # with the chi_f fast path out of the way, the cutting planes'
        # float weights must rationalize to the same certificate
        import siccert.certify as certify_module
        monkeypatch.setattr(certify_module, "fractional_chromatic_number",
                            lambda g: SimpleNamespace(value=Fraction(0)))
        s = yu_oh()
        cert = certify_sic(s)
        assert cert.status == "SIC"
        assert cert.rounds >= 1
        assert cert.y == Fraction(33, 35)
        assert cert.w == (Fraction(9, 35),) * 9 + (Fraction(6, 35),) * 4
        assert noncontextual_bound(cert.graph, cert.w) == cert.y
        assert cert.psd_witness.psd

    @staticmethod
    def one_orbit_pair(g: Graph) -> tuple[int, int]:
        orbit = next(m for m in canonicalize(g).orbits if m.bit_count() > 1)
        a = (orbit & -orbit).bit_length() - 1
        return a, orbit.bit_length() - 1

    def test_orbit_averaged_fast_path(self, monkeypatch):
        # ±eps on two vertices of one orbit makes the raw candidate's
        # Σ w_i Π_i − 𝟙 = eps (Π_a − Π_b) indefinite; averaging over the
        # orbit restores Yu–Oh's symmetric weights
        import siccert.certify as certify_module
        s = yu_oh()
        fr = fractional_chromatic_number(orthogonality_graph(s))
        a, b = self.one_orbit_pair(orthogonality_graph(s))
        eps = Fraction(1, 100)
        weights = list(fr.weights)
        weights[a] += eps
        weights[b] -= eps
        monkeypatch.setattr(
            certify_module, "fractional_chromatic_number",
            lambda g: SimpleNamespace(value=fr.value, weights=weights))
        cert = certify_sic(s)
        assert cert.status == "SIC"
        assert cert.rounds == 0
        assert cert.y == Fraction(33, 35)
        assert cert.w == (Fraction(9, 35),) * 9 + (Fraction(6, 35),) * 4
        assert cert.psd_witness.psd

    def test_orbit_averaged_rationalization(self, monkeypatch):
        # the same perturbation on the cutting planes' float weights,
        # with the chi_f fast path out of the way; with eps = 1/35 the
        # 10³ rung rationalizes both perturbed weights exactly, so the
        # orbit average is Yu–Oh's again
        import siccert.certify as certify_module
        s = yu_oh()
        a, b = self.one_orbit_pair(orthogonality_graph(s))
        real = certify_module._cutting_planes

        def perturbed(*args):
            w, rounds, lam, diag = real(*args)
            w = w.copy()
            w[a] += 1 / 35
            w[b] -= 1 / 35
            return w, rounds, lam, diag

        monkeypatch.setattr(certify_module, "fractional_chromatic_number",
                            lambda g: SimpleNamespace(value=Fraction(0)))
        monkeypatch.setattr(certify_module, "_cutting_planes", perturbed)
        cert = certify_sic(s)
        assert cert.status == "SIC"
        assert cert.rounds >= 1
        assert cert.y == Fraction(33, 35)
        assert cert.w == (Fraction(9, 35),) * 9 + (Fraction(6, 35),) * 4
        assert cert.psd_witness.psd

    def test_orbit_average_is_lazy(self, monkeypatch):
        # the raw chi_f weights decide Yu–Oh, so no orbit is computed
        import siccert.certify as certify_module
        calls = []
        real = certify_module.canonicalize
        monkeypatch.setattr(certify_module, "canonicalize",
                            lambda g: calls.append(1) or real(g))
        assert certify_sic(yu_oh()).status == "SIC"
        assert calls == []

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            certify_sic(yu_oh(), tol=tol)

    def test_emit_requires_sic(self):
        s = ProjectorSet.from_exact(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        cert = certify_sic(s)
        with pytest.raises(ValueError):
            emit_inequality(s, cert)


class TestCertifyObstructions:
    def test_basis_not_sic(self):
        s = ProjectorSet.from_exact(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        cert = certify_sic(s)
        assert cert.status == "NOT_SIC"
        obs = cert.obstruction
        assert obs is not None
        assert obs.forced_bound >= 1
        assert obs.independent_set.bit_count() == 1
        # replay: the state is orthogonal to every projector except
        # the flagged one
        i = obs.independent_set.bit_length() - 1
        from siccert.exact import inner
        for j in range(s.n):
            ip = inner(s.vectors[j], list(obs.state))
            if j == i:
                assert ip
            else:
                assert not ip

    def test_cone_not_sic_with_apex_state(self):
        text = fixture_path("cone_yu_oh_d4.vec").read_text()
        s = parse_vector_file(text)
        cert = certify_sic(s)
        assert cert.status == "NOT_SIC"
        obs = cert.obstruction
        assert obs.independent_set == 1 << 13
        state = list(obs.state)
        assert not any(state[:3]) and state[3]
        assert obs.forced_bound == 1

    def test_common_kernel_not_sic(self):
        # two projectors in d = 3 leave a joint kernel direction
        s = ProjectorSet.from_exact(3, [(1, 0, 0), (0, 1, 0)])
        cert = certify_sic(s)
        assert cert.status == "NOT_SIC"
        assert cert.obstruction.independent_set == 0
        state = list(cert.obstruction.state)
        from siccert.exact import inner
        for v in s.vectors:
            assert not inner(v, state)


class TestCertifyUndecided:
    def test_numeric_input_is_undecided(self):
        arr = [tuple(float(x) for x in v) for v in YO_VECTORS]
        s = ProjectorSet.from_numeric(3, arr)
        cert = certify_sic(s, tol=1e-9)
        assert cert.status == "UNDECIDED"
        assert "exact" in cert.diagnostics

    def test_row_violated_within_solver_tolerance(self, monkeypatch):
        # HiGHS meets its rows only to ~1e-7; an LP answer whose y sits
        # just below the weight of a set that is already a row must end
        # separation for the round instead of re-adding that row forever
        import siccert.certify as certify_module
        real = certify_module.linprog
        calls = []

        def loose(*args, **kwargs):
            calls.append(1)
            assert len(calls) < 200, "separation loop did not end"
            res = real(*args, **kwargs)
            res.x[-1] -= 5e-8
            return res

        monkeypatch.setattr(certify_module, "linprog", loose)
        arr = [tuple(float(x) for x in v) for v in YO_VECTORS]
        cert = certify_sic(ProjectorSet.from_numeric(3, arr), tol=1e-9)
        assert cert.status == "UNDECIDED"
        assert cert.rounds == 1

    def test_past_the_mis_cap(self):
        # 17 orthogonal pairs in d = 2: 2^17 maximal independent sets,
        # past the 100000-set cap of maximal_independent_sets; the
        # cutting planes never list them, so they run and find y = 1
        pairs = [v for k in range(1, 18) for v in ((1, k), (-k, 1))]
        cert = certify_sic(ProjectorSet.from_exact(2, pairs))
        assert cert.status == "UNDECIDED"
        assert "not below 1" in cert.diagnostics
        assert cert.rounds >= 1

    def test_structurally_blocked_exact_set(self):
        # basis plus a skew ray: the extra vertex is isolated in the
        # orthogonality graph, so no qualifying weights exist, but no
        # single-vertex obstruction applies either
        s = ProjectorSet.from_exact(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                        (1, 1, 1)])
        cert = certify_sic(s, max_rounds=12)
        assert cert.status == "UNDECIDED"
        assert cert.rounds > 0

    def test_round_limit(self):
        s = ProjectorSet.from_exact(3, LADDER_VECTORS)
        cert = certify_sic(s, max_rounds=3)
        assert cert.status == "UNDECIDED"
        assert cert.rounds == 3
        assert cert.diagnostics.startswith("no numeric convergence in 3 rounds")

    def test_rationalization_ladder_fails(self, monkeypatch):
        # zero weights meet y < 1 but not the operator condition, at
        # every rung and in their orbit average
        import siccert.certify as certify_module
        monkeypatch.setattr(certify_module, "_cutting_planes",
                            lambda s, g, max_rounds: (np.zeros(s.n), 2, 1.0, ""))
        cert = certify_sic(ProjectorSet.from_exact(3, LADDER_VECTORS))
        assert cert.status == "UNDECIDED"
        assert cert.rounds == 2
        assert cert.diagnostics.endswith(
            "exact verification failed on the rationalization ladder")

    def test_lp_solver_failure(self, monkeypatch):
        import siccert.certify as certify_module
        monkeypatch.setattr(certify_module, "linprog", lambda *a, **k:
                            SimpleNamespace(success=False, message="stub"))
        arr = [tuple(float(x) for x in v) for v in YO_VECTORS]
        cert = certify_sic(ProjectorSet.from_numeric(3, arr))
        assert (cert.status, cert.rounds, cert.diagnostics) == \
            ("UNDECIDED", 0, "LP solver failed: stub")


class TestCertifiedCheck:
    """_certified returns None unless w or its orbit average passes."""

    def setup_method(self):
        self.s = yu_oh()
        self.g = orthogonality_graph(self.s)

    def test_negative_weight(self):
        w = [Fraction(-1)] * self.s.n
        assert _certified(self.s, self.g, w, 0) is None

    def test_bound_not_below_one(self):
        w = [Fraction(1)] * self.s.n
        assert _certified(self.s, self.g, w, 0) is None

    def test_operator_condition_fails(self):
        # y = 5/100 < 1, but Σ w_i Π_i = (13/300)·𝟙 is far below 𝟙
        w = [Fraction(1, 100)] * self.s.n
        assert _certified(self.s, self.g, w, 0) is None
