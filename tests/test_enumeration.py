"""Census of square-free connected graphs up to isomorphism."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    THIRTEEN_CHI4_G6,
    YU_OH_G6,
    assert_passes_checks,
    edge_count,
    random_square_free,
)
from siccert import enumeration, fixture_path
from siccert.canon import canonical_key, canonicalize, equitable_partition
from siccert.certify import orthogonality_graph, parse_vector_file
from siccert.coloring import chromatic_number, fractional_chromatic_number
from siccert.enumeration import (
    EnumerationReport,
    _children,
    _compatible_sets,
    _extend,
    brute_force_enumerate,
    enumerate_square_free_connected,
)
from siccert.graphs import (
    encode_graph6,
    is_connected,
    is_square_free,
    parse_graph6,
)

# per-n counts of square-free connected classes, frozen from the
# brute-force oracle (n <= 7) and from stable generator runs
COUNTS = {1: 1, 2: 1, 3: 2, 4: 3, 5: 8, 6: 19, 7: 57, 8: 186, 9: 740}


class TestSmallCensus:
    def test_counts_up_to_9(self):
        report = enumerate_square_free_connected(9)
        assert report.counts == COUNTS
        assert report.n_max == 9
        assert report.total == sum(COUNTS.values())

    def test_against_brute_force(self):
        for n in range(1, 7):
            report = enumerate_square_free_connected(n)
            expected = brute_force_enumerate(n, square_free=True,
                                             connected=True)
            assert report.counts[n] == len(expected)

    def test_sink_receives_canonical_classes(self):
        seen = []
        report = enumerate_square_free_connected(6, sink=seen.append)
        assert len(seen) == report.total
        keys = {canonical_key(g) for g in seen}
        assert len(keys) == report.total
        for g in seen:
            assert is_square_free(g) and is_connected(g)

    def test_matches_brute_force_classes_exactly(self):
        for n in range(1, 7):
            got = set()
            enumerate_square_free_connected(
                n,
                sink=lambda g: got.add(canonical_key(g)) if g.n == n else None)
            expected = {canonical_key(g) for g in
                        brute_force_enumerate(n, square_free=True,
                                              connected=True)}
            assert got == expected

    def test_workers_match_sequential(self):
        seq = enumerate_square_free_connected(9)
        par = enumerate_square_free_connected(9, workers=2)
        assert par.counts == seq.counts

    def test_workers_sink_replay(self):
        serial = []
        enumerate_square_free_connected(9, sink=serial.append)
        seen = []
        report = enumerate_square_free_connected(9, sink=seen.append,
                                                 workers=2)
        assert len(seen) == report.total
        assert len({canonical_key(g) for g in seen}) == report.total
        # the replay keeps the serial sink order, which is what keeps
        # the CLI output byte-identical for any worker count
        assert [encode_graph6(g) for g in seen] == \
            [encode_graph6(g) for g in serial]

    def test_validation(self):
        with pytest.raises(ValueError):
            enumerate_square_free_connected(0)
        with pytest.raises(ValueError):
            enumerate_square_free_connected(14)
        with pytest.raises(ValueError, match="workers"):
            enumerate_square_free_connected(3, workers=0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_max": 8.5}, "n_max must be an integer, not 8.5"),
        ({"n_max": "9"}, "n_max must be an integer, not '9'"),
        ({"n_max": 10, "chi_gt": 2.5}, "chi_gt must be an integer, not 2.5"),
        ({"n_max": 9, "workers": 1.5}, "workers must be an integer, not 1.5"),
        ({"n_max": 9, "workers": 2.5}, "workers must be an integer, not 2.5"),
        ({"n_max": 9, "workers": "2"}, "workers must be an integer, not '2'"),
    ])
    def test_non_integer_arguments(self, kwargs, message, monkeypatch):
        # rejected by name before any level grows or any pool starts:
        # n_max = 8.5 grew the first seed without a bound, chi_gt = 2.5
        # failed inside the colorability search, and workers = 1.5
        # reached multiprocessing.Pool
        def no_work(*args, **kwargs):
            raise AssertionError("the census started")

        monkeypatch.setattr(enumeration, "_expand", no_work)
        monkeypatch.setattr(enumeration, "ordered_results", no_work)
        with pytest.raises(TypeError) as exc:
            enumerate_square_free_connected(**kwargs)
        assert str(exc.value) == message

    def test_numpy_integer_arguments(self):
        np = pytest.importorskip("numpy")
        plain = enumerate_square_free_connected(9, chi_gt=2)
        report = enumerate_square_free_connected(np.int64(9),
                                                 chi_gt=np.int64(2),
                                                 workers=np.int64(2))
        assert report.counts == plain.counts == COUNTS
        assert report.filtered == plain.filtered


class TestChiFilter:
    def test_workers_match_sequential(self):
        # n = 9 lies past SEED_LEVEL, so both runs merge seed reports
        seq = enumerate_square_free_connected(9, chi_gt=2)
        par = enumerate_square_free_connected(9, chi_gt=2, workers=2)
        assert par.counts == seq.counts
        assert par.filtered == seq.filtered
        all_graphs = []
        enumerate_square_free_connected(9, sink=all_graphs.append)
        expected = {encode_graph6(g) for g in all_graphs
                    if chromatic_number(g).value > 2}
        assert set(seq.filtered) == expected

    def test_no_outlier_below_12(self):
        report = enumerate_square_free_connected(11, chi_gt=3)
        assert report.filtered == []

    def test_chi2_filter_small(self):
        # square-free connected graphs with chi > 2 on <= 5 vertices:
        # exactly those containing an odd cycle
        report = enumerate_square_free_connected(5, chi_gt=2)
        for s in report.filtered:
            assert chromatic_number(parse_graph6(s)).value > 2
        got = set(report.filtered)
        all_graphs = []
        enumerate_square_free_connected(5, sink=all_graphs.append)
        expected = {encode_graph6(g) for g in all_graphs
                    if chromatic_number(g).value > 2}
        assert got == expected


class TestBruteForce:
    def test_all_classes_counts(self):
        assert len(brute_force_enumerate(1)) == 1
        assert len(brute_force_enumerate(2)) == 2
        assert len(brute_force_enumerate(3)) == 4
        assert len(brute_force_enumerate(4)) == 11

    def test_filters(self):
        conn4 = brute_force_enumerate(4, connected=True)
        assert len(conn4) == 6
        sf4 = brute_force_enumerate(4, square_free=True, connected=True)
        assert len(sf4) == 3

    def test_guard(self):
        with pytest.raises(ValueError):
            brute_force_enumerate(8)


class TestKnownThirteen:
    def test_strings_well_formed(self):
        assert len(THIRTEEN_CHI4_G6) == 8
        for s in THIRTEEN_CHI4_G6:
            g = parse_graph6(s)
            assert g.n == 13
            assert is_square_free(g)
            assert is_connected(g)
            assert chromatic_number(g).value == 4

    def test_chi_f_values(self):
        values = {}
        for s in THIRTEEN_CHI4_G6:
            v = fractional_chromatic_number(parse_graph6(s)).value
            if v > 3:
                values[s] = v
        assert len(values) == 3
        assert sorted(values.values()) == [
            Fraction(19, 6), Fraction(35, 11), Fraction(13, 4)]
        assert values[YU_OH_G6] == Fraction(35, 11)

    def test_yu_oh_graph_shape(self):
        g = parse_graph6(YU_OH_G6)
        assert edge_count(g) == 24
        assert encode_graph6(g) == YU_OH_G6
        # the fixture's sixth line is the orthogonality graph of Yu-Oh's rays
        rays = parse_vector_file(fixture_path("yu_oh_d3.vec").read_text())
        assert canonical_key(g) == canonical_key(orthogonality_graph(rays))


class TestDegreeReject:
    """The premises of the degree reject in _children."""

    def test_size_bound_keeps_order(self):
        rng = random.Random(5)
        for _ in range(60):
            g = random_square_free(rng.randint(1, 11), rng)
            full = _compatible_sets(g)
            for k in range(0, g.n + 2):
                assert _compatible_sets(g, k) == \
                    [s for s in full if s.bit_count() >= k]

    def test_last_cell_has_maximum_degree(self):
        rng = random.Random(6)
        for _ in range(200):
            g = random_square_free(rng.randint(1, 14), rng)
            top = max(g.degree(v) for v in range(g.n))
            last = equitable_partition(g)[-1]
            assert all(g.degree(v) == top
                       for v in range(g.n) if last >> v & 1)
            assert last >> canonicalize(g).order[-1] & 1

    def test_singleton_last_cell_is_canonically_last(self):
        # the premise of the cheap accept in _children
        rng = random.Random(7)
        singletons = 0
        for _ in range(400):
            g = random_square_free(rng.randint(1, 14), rng)
            last = equitable_partition(g)[-1]
            if last.bit_count() == 1:
                singletons += 1
                assert canonicalize(g).order[-1] == last.bit_length() - 1
        assert singletons > 100

    def test_strict_maximum_degree_is_a_singleton_last_cell(self):
        # the premise of the degree accept in _children
        rng = random.Random(9)
        accepted = 0
        for _ in range(200):
            g = random_square_free(rng.randint(1, 11), rng)
            top = max(g.degree(v) for v in range(g.n))
            for s in _compatible_sets(g, top):
                child = _extend(g, s)
                alone = s.bit_count() > max(child.degree(v)
                                            for v in range(g.n))
                accepted += alone
                assert alone == (
                    s.bit_count() > top + any(
                        g.degree(v) == top for v in range(g.n) if s >> v & 1))
                if alone:
                    assert equitable_partition(child)[-1] == 1 << g.n
        assert accepted > 500


class TestConnectedChildren:
    """The premise of emitting last-level children in _expand without
    a connectivity test."""

    def test_required_connected_children_are_connected(self):
        rng = random.Random(8)
        disconnected_parents = children = disconnected_unfiltered = 0
        for _ in range(300):
            g = random_square_free(rng.randint(1, 11), rng)
            disconnected_parents += not is_connected(g)
            cres = canonicalize(g)
            for child, _, _ in _children(g, cres, require_connected=True):
                children += 1
                assert is_connected(child)
            disconnected_unfiltered += sum(
                not is_connected(child)
                for child, _, _ in _children(g, cres, require_connected=False))
        assert disconnected_parents > 50
        assert children > 200
        # the filter, not the sample, keeps the children connected
        assert disconnected_unfiltered > 200


class TestEarlyAbort:
    """_children refines each child's root partition with _keep set to
    the new vertex, and gets the full refinement's answer."""

    def test_every_census_child(self):
        calls = []
        built = []
        original = enumeration.equitable_partition

        def recorded(g, *args, **kwargs):
            out = original(g, *args, **kwargs)
            calls.append((g, args, kwargs, out))
            return out

        def extend(parent, s):
            built.append(_extend(parent, s))
            return built[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(enumeration, "equitable_partition", recorded)
            mp.setattr(enumeration, "_extend", extend)
            report = enumerate_square_free_connected(9)
        assert report.counts == COUNTS
        stopped = 0
        for g, args, kwargs, out in calls:
            assert args == () and kwargs == {"_keep": 1 << g.n - 1}
            full = original(g)
            if full[-1] >> g.n - 1 & 1:
                assert out == full
            else:
                assert out is None
                stopped += 1
        # both outcomes occur often in the census
        assert len(calls) - stopped > 500 and stopped > 500
        # and so on every child built, degree-accepted ones included
        for g in built:
            full = original(g)
            xbit = 1 << g.n - 1
            assert original(g, _keep=xbit) == \
                (full if full[-1] & xbit else None)
        assert len(built) > len(calls)


@st.composite
def square_free_graphs(draw):
    n = draw(st.integers(1, 10))
    return random_square_free(n, random.Random(draw(st.integers(0, 2 ** 32))))


class TestUncheckedGraphs:
    """The graphs the census builds without Graph's checks pass them."""

    @settings(max_examples=100, deadline=None)
    @given(square_free_graphs())
    def test_children_and_canonical_forms(self, g):
        forms = []
        report = EnumerationReport(n_max=g.n + 1)
        for s in _compatible_sets(g):
            child = _extend(g, s)
            assert_passes_checks(child)
            report.emit(child, None, forms.append)
        assert len(forms) == report.counts[g.n + 1]
        for form in forms:
            assert_passes_checks(form)

    def test_census_forms(self):
        seen = []
        enumerate_square_free_connected(8, sink=seen.append)
        for g in seen:
            assert_passes_checks(g)


COUNTS_10 = {**COUNTS, 10: 3389}


@pytest.fixture(scope="module")
def counted_census_10():
    """The n = 10 census without and with a sink, each with the number
    of canonicalize calls made by the enumeration module."""
    calls = [0]
    original = enumeration.canonicalize

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "canonicalize", counted)
        plain = enumerate_square_free_connected(10)
        plain_calls, calls[0] = calls[0], 0
        seen = []
        sunk = enumerate_square_free_connected(10, sink=seen.append)
        sunk_calls = calls[0]
    return plain, plain_calls, sunk, sunk_calls, seen


class TestOnDemandCanon:
    """A child accepted without a canonical search is canonicalized
    only when its labeling is used, and the counts do not depend on
    whether that happens."""

    def test_counts_with_and_without_sink(self, counted_census_10):
        plain, _, sunk, _, seen = counted_census_10
        assert plain.counts == sunk.counts == COUNTS_10
        assert len(seen) == sunk.total

    def test_no_sink_canonicalizes_less(self, counted_census_10):
        _, plain_calls, _, sunk_calls, _ = counted_census_10
        # the sink run canonicalizes every accepted child at least once
        assert sunk_calls >= sum(COUNTS_10.values())
        assert plain_calls < sunk_calls

    def test_filtered_lines_are_the_sinks_graphs(self):
        seen = []
        both = enumerate_square_free_connected(9, sink=seen.append, chi_gt=2)
        plain = enumerate_square_free_connected(9, chi_gt=2)
        expected = sorted((encode_graph6(g) for g in seen
                           if chromatic_number(g).value > 2),
                          key=lambda t: (len(t), t))
        assert both.filtered == plain.filtered == expected
        assert both.counts == plain.counts == COUNTS
