"""End-to-end command-line coverage using the bundled fixtures."""

import hashlib
import warnings

import pytest

from siccert import fixture_path
from siccert.cli import main
from siccert.enumeration import MAX_ENUM_N
from siccert.graphs import Graph, cone, encode_graph6

YU_OH_G6 = "L?AB?vOLDPHa`o"
# sha256 of the stdout of `siccert enumerate --max-n 9`
CENSUS_9_SHA256 = \
    "18118d6a910312fce2d9f542103bdeed9023b50341ef2e719c51229d16e2bb66"
# sha256 of the stdout of `siccert enumerate --max-n 10 --output f`, the
# count table alone; `--chi-gt 3` prints the same, since no class below
# twelve vertices has χ > 3
CENSUS_10_TABLE_SHA256 = \
    "a655413381b2417537bf94dd86722e2557e112e0afce711baf18199f249c251f"
# sha256 of the file f of `siccert enumerate --max-n 10 --output f`
CENSUS_10_FILE_SHA256 = \
    "83f5dace4a1ec0199706648a99c2f0c025320fafcf90cde265e70203a0b95304"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEnumerate:
    def test_small_census_counts(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-n", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert "1 1" in lines and "2 1" in lines
        assert "3 2" in lines and "4 3" in lines
        assert lines[-1] == "total 7"
        # the graph6 stream precedes the count table
        assert lines[0] == "@"

    def test_chi_filter_empty(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-n", "8",
                           "--chi-gt", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "total 277"
        # no square-free connected graph on <= 8 vertices has chi > 3,
        # so the output is exactly the count table
        assert lines[0] == "1 1"
        assert len(lines) == 9

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "c.g6"
        code, out, _ = run(capsys, "enumerate", "--max-n", "4",
                           "--output", str(target))
        assert code == 0
        assert "total 7" in out
        assert len(target.read_text().strip().splitlines()) == 7

    def test_bad_config(self, capsys):
        code, _, err = run(capsys, "enumerate", "--max-n", "20")
        assert code == 2
        assert "max-n" in err

    def test_limit_is_the_library_limit(self, capsys):
        code, _, err = run(capsys, "enumerate", "--max-n",
                           str(MAX_ENUM_N + 1))
        assert code == 2
        assert f"between 1 and {MAX_ENUM_N}" in err

    def test_golden_census_output(self, capsys):
        # pins the canonical form and the emission order of every class
        # with n <= 9, not just the counts
        code, out, _ = run(capsys, "enumerate", "--max-n", "9")
        assert code == 0
        assert len(out.splitlines()) == 1027
        assert sha256(out.encode()) == CENSUS_9_SHA256

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_golden_census_10_output_file(self, capsys, tmp_path, workers):
        target = tmp_path / "c.g6"
        code, out, _ = run(capsys, "enumerate", "--max-n", "10",
                           "--workers", workers, "--output", str(target))
        assert code == 0
        assert sha256(out.encode()) == CENSUS_10_TABLE_SHA256
        assert sha256(target.read_bytes()) == CENSUS_10_FILE_SHA256

    def test_golden_census_10_chi_filter(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-n", "10",
                           "--chi-gt", "3")
        assert code == 0
        assert sha256(out.encode()) == CENSUS_10_TABLE_SHA256


class TestGraphQueries:
    def test_chif(self, capsys):
        code, out, _ = run(capsys, "graph", "chif", YU_OH_G6)
        assert code == 0 and out.strip() == "35/11"
        code, out, _ = run(capsys, "graph", "chif", "L?ABEagE`gH``c")
        assert code == 0 and out.strip() == "19/6"

    def test_chi(self, capsys):
        code, out, _ = run(capsys, "graph", "chi", YU_OH_G6)
        assert code == 0 and out.strip() == "4"

    def test_square_free(self, capsys):
        c4 = encode_graph6(Graph.cycle(4))
        code, out, _ = run(capsys, "graph", "square-free", c4)
        assert code == 0 and out.strip() == "false"
        code, out, _ = run(capsys, "graph", "square-free", YU_OH_G6)
        assert out.strip() == "true"

    def test_connected(self, capsys):
        code, out, _ = run(capsys, "graph", "connected", YU_OH_G6)
        assert code == 0 and out.strip() == "true"

    def test_cone(self, capsys):
        tri = encode_graph6(Graph.complete(3))
        code, out, _ = run(capsys, "graph", "cone", tri)
        assert code == 0
        assert out.strip() == encode_graph6(Graph.complete(4))

    def test_long_form_graph6(self, capsys):
        # the cone of a 62-vertex path has 63 vertices: long-form graph6
        path62 = encode_graph6(Graph.path(62))
        code, out, _ = run(capsys, "graph", "cone", path62)
        assert code == 0
        assert out.strip() == encode_graph6(cone(Graph.path(62)))
        assert out.startswith("~??~")
        code, out, _ = run(capsys, "graph", "cone", out.strip())
        assert code == 0 and out.startswith("~?@?")
        code, out, _ = run(capsys, "graph", "connected", out.strip())
        assert code == 0 and out.strip() == "true"

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "graph", "chi", "###")
        assert code == 2
        assert "byte offset" in err


class TestCertify:
    def test_yu_oh_exit_0(self, capsys):
        code, out, _ = run(capsys, "certify",
                           str(fixture_path("yu_oh_d3.vec")))
        assert code == 0
        assert "status SIC" in out
        assert "y = 33/35" in out
        assert "w[0] = 9/35" in out and "w[12] = 6/35" in out
        assert "<= 33/35" in out  # the inequality line

    def test_cone_exit_3(self, capsys):
        code, out, _ = run(capsys, "certify",
                           str(fixture_path("cone_yu_oh_d4.vec")))
        assert code == 3
        assert "status NOT_SIC" in out
        assert "obstruction state = (0/1, 0/1, 0/1, 1/1)" in out
        assert "independent set = {13}" in out

    def test_basis_exit_3(self, capsys):
        code, out, _ = run(capsys, "certify",
                           str(fixture_path("basis_d3.vec")))
        assert code == 3
        assert "status NOT_SIC" in out

    def test_numeric_mode_undecided(self, capsys, tmp_path):
        f = tmp_path / "yo.vec"
        lines = ["3"]
        from siccert.certify import parse_vector_file
        s = parse_vector_file(fixture_path("yu_oh_d3.vec").read_text())
        for v in s.vectors:
            lines.append(" ".join(f"{float(x.re):.9f}" for x in v))
        f.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "certify", str(f), "--tol", "1e-6")
        assert code == 4
        assert "status UNDECIDED" in out

    def test_past_the_mis_cap_exit_4(self, capsys, tmp_path):
        # 17 orthogonal pairs: a valid input past the 100000-set cap on
        # maximal independent sets gets a verdict, not an input error
        f = tmp_path / "pairs.vec"
        f.write_text("2\n" + "".join(f"1 {k}\n{-k} 1\n" for k in range(1, 18)))
        code, out, _ = run(capsys, "certify", str(f))
        assert code == 4
        assert out.splitlines()[0] == "status UNDECIDED"
        assert "not below 1" in out

    @pytest.mark.parametrize("rows, twin", [
        ("1e200 1e200 0\n1 0 0\n0 0 1", "1 1 0\n1 0 0\n0 0 1"),
        ("1e-200 0 0\n0 1 0\n0 0 1", "1 0 0\n0 1 0\n0 0 1"),
    ], ids=["overflow", "underflow"])
    def test_extreme_scale_matches_twin(self, capsys, tmp_path, rows, twin):
        # a row whose squared norm over- or underflows once normalized
        # to zero or NaN: an LP failure, or exit 2 on a valid input
        from siccert.certify import orthogonality_graph, parse_vector_file
        f, t = tmp_path / "far.vec", tmp_path / "twin.vec"
        f.write_text(f"3\n{rows}\n")
        t.write_text(f"3\n{twin}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run(capsys, "certify", str(f))
            graph = orthogonality_graph(parse_vector_file(f.read_text()),
                                        tol=1e-8)
        assert got[0] == 4
        assert got == run(capsys, "certify", "--numeric", str(t))
        assert graph == orthogonality_graph(
            parse_vector_file(t.read_text(), mode="numeric"), tol=1e-8)

    def test_exact_entry_outside_float_range(self, capsys, tmp_path):
        # row 0 scaled by 10^-400 or 10^400 is the same ray, though
        # complex() of its entries would under- or overflow
        rows = ["1 0 1", "1 1 0", "1 1 2", "1 2 1", "2 0 -1"]
        big = 10 ** 400
        got = {}
        for name, first in [("plain", "-1 -1 -1"),
                            ("tiny", f"-1/{big} -1/{big} -1/{big}"),
                            ("huge", f"-{big} -{big} -{big}")]:
            f = tmp_path / f"{name}.vec"
            f.write_text("3\n" + "\n".join([first] + rows) + "\n")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got[name] = run(capsys, "certify", str(f))
        assert got["plain"][0] == 4
        assert got["tiny"] == got["huge"] == got["plain"]

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "certify", "/nonexistent/x.vec")
        assert code == 2

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.vec"
        f.write_text("3\n1 0\n")
        code, _, err = run(capsys, "certify", str(f))
        assert code == 2
        assert "entries" in err


class TestInequality:
    def test_yu_oh(self, capsys):
        code, out, _ = run(capsys, "inequality",
                           str(fixture_path("yu_oh_d3.vec")))
        assert code == 0
        assert "bound = 33/35" in out
        assert out.count("<P") >= 37  # 13 singles + 24 pairs

    def test_non_sic_exit(self, capsys):
        code, out, err = run(capsys, "inequality",
                             str(fixture_path("basis_d3.vec")))
        assert code == 3
        assert "no inequality" in err


class TestRealize:
    def test_yu_oh_found(self, capsys):
        code, out, _ = run(capsys, "realize", YU_OH_G6, "--dim", "3",
                           "--restarts", "25", "--seed", "0")
        assert code == 0
        assert "status found" in out
        lines = out.strip().splitlines()
        assert lines[2] == "3"  # dimension line of the emitted file
        assert len(lines) == 3 + 13

    def test_byte_identical_reruns(self, capsys):
        a = run(capsys, "realize", YU_OH_G6, "--dim", "3",
                "--restarts", "10", "--seed", "5")
        b = run(capsys, "realize", YU_OH_G6, "--dim", "3",
                "--restarts", "10", "--seed", "5")
        assert a == b

    def test_c4_degenerate_exit_3(self, capsys):
        c4 = encode_graph6(Graph.cycle(4))
        code, out, _ = run(capsys, "realize", c4, "--dim", "3",
                           "--restarts", "10")
        assert code == 3
        assert "status degenerate" in out

    def test_k4_failed_exit_4(self, capsys):
        k4 = encode_graph6(Graph.complete(4))
        code, out, _ = run(capsys, "realize", k4, "--dim", "3",
                           "--restarts", "10")
        assert code == 4
        assert "status failed" in out

    def test_bad_dim_exit_2(self, capsys):
        code, _, err = run(capsys, "realize", YU_OH_G6, "--dim", "1")
        assert code == 2


class TestOddInput:
    """Odd input exits 2 with a message, never a traceback or a
    warning."""

    def quiet_run(self, capsys, *argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert not caught
        assert code == 2
        assert "Traceback" not in err and "Warning" not in err
        return err

    @pytest.mark.parametrize("mode", [[], ["--exact"], ["--numeric"]])
    @pytest.mark.parametrize("entry", ["1/0", "nan", "INF", "1e400"])
    def test_bad_vector_entry(self, capsys, tmp_path, entry, mode):
        f = tmp_path / "odd.vec"
        f.write_text(f"2\n{entry} 0\n0 1\n")
        err = self.quiet_run(capsys, "certify", str(f), *mode)
        assert "line 2" in err

    @pytest.mark.parametrize("option", [["--tol", "nan"], ["--tol", "inf"],
                                        ["--delta", "nan"], ["--tol", "0"],
                                        ["--restarts", "0"], ["--dim", "1"],
                                        ["--workers", "0"], ["--seed", "-1"]])
    def test_bad_realize_option(self, capsys, option):
        argv = ["realize", "A_", "--dim", "2", *option]
        err = self.quiet_run(capsys, *argv)
        assert err.startswith("error: ")
        if option[0] == "--seed":
            assert err == "error: seed must be at least 0\n"

    @pytest.mark.parametrize("command", ["certify", "inequality"])
    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_certify_tol(self, capsys, command, tol):
        err = self.quiet_run(capsys, command, "--numeric", "--tol", tol,
                             str(fixture_path("yu_oh_d3.vec")))
        assert "tol must be positive and finite" in err

    def test_parallel_rays(self, capsys, tmp_path):
        f = tmp_path / "parallel.vec"
        f.write_text("2\n1 0\n2 0\n")
        err = self.quiet_run(capsys, "certify", str(f), "--exact")
        assert "parallel" in err

    def test_ambiguous_overlap(self, capsys, tmp_path):
        f = tmp_path / "ambiguous.vec"
        f.write_text("2\n1 0\n3e-8 1\n")
        err = self.quiet_run(capsys, "certify", str(f), "--numeric",
                             "--tol", "1e-8")
        assert "ambiguous zone" in err

    def test_bad_enumerate_workers(self, capsys):
        err = self.quiet_run(capsys, "enumerate", "--max-n", "3",
                             "--workers", "0")
        assert "workers must be at least 1" in err

    def test_bad_enumerate_workers_keeps_output(self, capsys, tmp_path):
        f = tmp_path / "census.g6"
        f.write_bytes(b"kept\n")
        err = self.quiet_run(capsys, "enumerate", "--max-n", "3",
                             "--workers", "0", "--output", str(f))
        assert "workers must be at least 1" in err
        assert f.read_bytes() == b"kept\n"


class TestArgumentErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_query(self):
        with pytest.raises(SystemExit) as exc:
            main(["graph", "girth", YU_OH_G6])
        assert exc.value.code == 2
