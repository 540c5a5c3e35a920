import dataclasses
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import netinv
import netinv.cli
import netinv.inverse
import netinv.paths
from netinv import (
    AllRowsDegenerate,
    ExpansionMismatch,
    InteriorNotGrounded,
    NetworkError,
    RankDeficient,
    RecoveryPlan,
    RoundTripFailure,
    TooManySystems,
    dtn,
    grid_fixture,
    lattice_fixture,
    serialize_network,
)
from netinv.cli import main
from netinv.network import Edge, Network
from netinv.numerics import format_matrix_text, parse_matrix_text
from boxes import box_network

#: The one stderr line of a command whose interior solve leaves the
#: float range.
SUBNORMAL_ERROR = (
    "error: interior solve C^-1 B^T is not finite: the conductivities' scale "
    "leaves the float range\n"
)


@pytest.fixture
def lattice_file(tmp_path, lattice12):
    path = tmp_path / "lattice.net"
    path.write_text(serialize_network(lattice12))
    return str(path)


@pytest.fixture
def single_edge_file(tmp_path, single_edge):
    path = tmp_path / "edge.net"
    path.write_text(serialize_network(single_edge))
    return str(path)


class TestForward:
    def test_single_edge_exact_output(self, single_edge_file, capsys):
        assert main(["forward", single_edge_file]) == 0
        out = capsys.readouterr().out
        assert out == "2 2\n5 -5\n-5 5\n"

    def test_lattice_row_sums(self, lattice_file, lattice12, capsys):
        assert main(["forward", lattice_file]) == 0
        lam = parse_matrix_text(capsys.readouterr().out)
        assert lam.shape == (8, 8)
        assert np.max(np.abs(lam.sum(axis=1))) <= 1e-12 * np.max(np.abs(lam))
        assert np.allclose(lam, dtn(lattice12).entries)

    def test_self_loop_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.net"
        bad.write_text("boundary 2\ninterior 0\nedge 1 1 2\n")
        assert main(["forward", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "self-loop" in captured.err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_kirchhoff_exit_2(self, tmp_path, lattice12, capsys):
        big = lattice12.with_gammas([e.gamma * 10**307.1 for e in lattice12.edges])
        net_file = tmp_path / "big.net"
        net_file.write_text(serialize_network(big))
        assert main(["forward", str(net_file)]) == 2
        assert capsys.readouterr() == (
            "",
            "error: conductivities at vertex 9 sum beyond the float range\n",
        )

    def test_missing_file_exit_2(self, capsys):
        assert main(["forward", "/nonexistent.net"]) == 2
        assert "error" in capsys.readouterr().err

    def test_numerically_singular_interior_exit_3(self, tmp_path, capsys):
        # grounded, but K(I,I) rounds to singular: 1 + 1e-17 == 1
        net_file = tmp_path / "singular.net"
        net_file.write_text("boundary 1\ninterior 2\nedge 1 2 1e-17\nedge 2 3 1\n")
        assert main(["forward", str(net_file)]) == 3
        assert capsys.readouterr() == (
            "",
            "error: interior block K(I,I) is numerically singular (no Cholesky factor): "
            "its conductivities span more than float precision\n",
        )

    def test_subnormal_conductivities_exit_2(self, tmp_path, capsys):
        # K(I,I) = [[2e-318]] has a Cholesky factor, yet np.linalg.solve
        # returns a non-finite C^-1 B^T
        net_file = tmp_path / "subnormal.net"
        net_file.write_text("boundary 2\ninterior 1\nedge 1 3 1e-318\nedge 3 2 1e-318\n")
        assert main(["forward", str(net_file)]) == 2
        assert capsys.readouterr() == ("", SUBNORMAL_ERROR)


@pytest.mark.parametrize(
    "command", [["forward"], ["rank"], ["invert", "{lam}"]], ids=["forward", "rank", "invert"]
)
def test_ungrounded_interior_exit_3(tmp_path, command, capsys):
    net = tmp_path / "ungrounded.net"
    net.write_text("boundary 2\ninterior 1\nedge 1 2 1.0\n")
    lam = tmp_path / "lam.txt"
    lam.write_text("2 2\n1 -1\n-1 1\n")
    argv = [command[0], str(net)] + [a.format(lam=lam) for a in command[1:]]
    assert main(argv) == 3
    assert capsys.readouterr() == (
        "",
        "error: interior vertex 3 lies in a component with no boundary vertex\n",
    )


class TestPaths:
    def test_lattice_1_to_5(self, lattice_file, capsys):
        assert main(["paths", lattice_file, "--from", "1", "--to", "5"]) == 0
        out = capsys.readouterr().out
        system_lines = [l for l in out.splitlines() if "sign:" in l]
        assert len(system_lines) == 2
        assert "total =" in out and "reference =" in out

    def test_lattice_12_to_56_sign(self, lattice_file, capsys):
        assert main(["paths", lattice_file, "--from", "1,2", "--to", "5,6"]) == 0
        out = capsys.readouterr().out
        system_lines = [l for l in out.splitlines() if "sign:" in l]
        assert len(system_lines) == 1
        assert "sign: -1" in system_lines[0]
        assert "1-9-12-6 | 2-10-11-5" in system_lines[0]

    def test_size_mismatch_exit_2(self, lattice_file, capsys):
        assert main(["paths", lattice_file, "--from", "1", "--to", "1,2"]) == 2
        assert "error" in capsys.readouterr().err

    def test_out_of_range_exit_2(self, lattice_file, capsys):
        for source, error in (
            ("9", "P index out of boundary range 1..8: (9,)"),
            ("0", "P indices must be >= 1, got (0,)"),
        ):
            assert main(["paths", lattice_file, "--from", source, "--to", "1"]) == 2
            assert capsys.readouterr() == ("", f"error: {error}\n")

    def test_expansion_mismatch_exit_4(self, lattice_file, monkeypatch, capsys):
        # doubled residual determinants double the expansion's total but
        # not the determinant it is checked against
        subdet = netinv.paths.kirchhoff_subdet
        monkeypatch.setattr(
            netinv.paths, "kirchhoff_subdet", lambda k, rows, cols: 2 * subdet(k, rows, cols)
        )
        assert main(["paths", lattice_file, "--from", "1", "--to", "5"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        found = re.fullmatch(
            r"error: pair \(1,\)->\(5,\): expansion total (\S+) vs determinant (\S+)\n", err
        )
        assert found and float(found[1]) == pytest.approx(2 * float(found[2]), rel=1e-12)


def test_search_cap_exit_2(lattice_file, monkeypatch, capsys):
    # lattice (1;5) has two path systems
    monkeypatch.setattr(netinv.paths, "MAX_SYSTEMS", 1)
    assert main(["paths", lattice_file, "--from", "1", "--to", "5"]) == 2
    assert capsys.readouterr() == ("", "error: more than 1 path systems for pair (1,)->(5,)\n")


@pytest.fixture(scope="module")
def deep_chain(tmp_path_factory):
    """A series chain 1 - 3 - 4 - ... - 1202 - 2: its one path is longer
    than the recursion limit, and its DtN map is 1/1201 times [1 -1; -1 1]."""
    n = 1200
    pairs = [(1, 3)] + [(v, v + 1) for v in range(3, n + 2)] + [(n + 2, 2)]
    edges = tuple(Edge(i, u, v, 1.0) for i, (u, v) in enumerate(pairs, start=1))
    path = tmp_path_factory.mktemp("chain") / "chain.net"
    path.write_text(serialize_network(Network(2, n, edges)))
    lam = path.with_name("chain.txt")
    lam.write_text(format_matrix_text(np.array([[1.0, -1.0], [-1.0, 1.0]]) / (n + 1)))
    return str(path), str(lam)


@pytest.mark.parametrize(
    "command",
    [
        ["rank", "{net}"],
        ["paths", "{net}", "--from", "1", "--to", "2"],
        ["invert", "{net}", "{lam}"],
    ],
    ids=["rank", "paths", "invert"],
)
def test_search_deeper_than_recursion_limit_exit_2(deep_chain, command, capsys):
    net, lam = deep_chain
    assert main([a.format(net=net, lam=lam) for a in command]) == 2
    assert capsys.readouterr() == ("", "error: path search deeper than the recursion limit\n")


def test_deep_chain_at_pair_size_1_exit_5(deep_chain, capsys):
    # at cap 1 the chain's one path is the last, walked in a loop; its one
    # row leaves a null space of 1,201 dimensions
    start = time.perf_counter()
    assert main(["rank", deep_chain[0], "--max-pair-size", "1"]) == 5
    assert time.perf_counter() - start <= 1.0
    assert capsys.readouterr() == ("rows=1 rank=1 unknowns=1202 verdict=deficient\n", "")


def test_deep_chain_forward_exit_0(deep_chain, capsys):
    assert main(["forward", deep_chain[0]]) == 0
    lam = parse_matrix_text(capsys.readouterr().out)
    assert np.allclose(lam, np.array([[1.0, -1.0], [-1.0, 1.0]]) / 1201, rtol=1e-9, atol=0)


class TestRank:
    def test_lattice_full(self, lattice_file, capsys):
        assert main(["rank", lattice_file]) == 0
        out = capsys.readouterr().out
        assert "unknowns=13" in out and "verdict=full" in out and "rank=13" in out

    def test_single_edge_full(self, single_edge_file, capsys):
        assert main(["rank", single_edge_file]) == 0
        out = capsys.readouterr().out
        assert "unknowns=1" in out and "verdict=full" in out

    def test_series_chain_deficient(self, tmp_path, capsys):
        chain = tmp_path / "chain.net"
        chain.write_text("boundary 2\ninterior 2\nedge 1 3 1.0\nedge 3 4 1.0\nedge 4 2 1.0\n")
        assert main(["rank", str(chain)]) == 5
        assert "verdict=deficient" in capsys.readouterr().out

    def test_edgeless_network_deficient_like_invert(self, tmp_path, capsys):
        # no edges: nothing to recover and no row, so rank agrees with
        # invert and roundtrip, which refuse the file with exit 5
        net = tmp_path / "edgeless.net"
        net.write_text("boundary 2\ninterior 0\n")
        zeros = tmp_path / "zeros.txt"
        zeros.write_text("2 2\n0 0\n0 0\n")
        assert main(["rank", str(net)]) == 5
        assert capsys.readouterr().out == "rows=0 rank=0 unknowns=0 verdict=deficient\n"
        assert main(["invert", str(net), str(zeros)]) == 5
        assert main(["roundtrip", str(net), "--trials", "1"]) == 5
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "size, line",
        [
            ("4", "rows=3360 rank=24 unknowns=25 verdict=deficient\n"),
            ("3", "rows=352 rank=12 unknowns=25 verdict=deficient\n"),
            ("2", "rows=0 rank=0 unknowns=25 verdict=deficient\n"),
        ],
    )
    def test_grid3_rank_line(self, tmp_path, grid3, size, line, capsys):
        path = tmp_path / "grid3.net"
        path.write_text(serialize_network(grid3))
        assert main(["rank", str(path), "--max-pair-size", size]) == 5
        assert capsys.readouterr().out == line

    def test_grid4_rank_line(self, tmp_path, capsys):
        path = tmp_path / "grid4.net"
        path.write_text(serialize_network(grid_fixture(4, [1.0] * 40)))
        assert main(["rank", str(path), "--max-pair-size", "4"]) == 5
        assert capsys.readouterr().out == "rows=1792 rank=16 unknowns=41 verdict=deficient\n"

    @pytest.mark.parametrize(
        "dims, line",
        [
            ((1, 1, 2), "rows=19200 rank=12 unknowns=12 verdict=full\n"),
            # 17.3 M rows from 20,864 cores: counted per core, not built
            ((1, 2, 2), "rows=17334272 rank=21 unknowns=21 verdict=full\n"),
        ],
    )
    def test_box_rank_line(self, tmp_path, dims, line, capsys):
        path = tmp_path / "box.net"
        path.write_text(serialize_network(box_network(*dims)))
        assert main(["rank", str(path)]) == 0
        assert capsys.readouterr() == (line, "")

    @pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc")
    def test_box_rank_memory_is_set_by_the_cores(self, tmp_path):
        # storing the 1x2x2 box's rows would take gigabytes; its cores
        # take a few megabytes over the interpreter's own. VmHWM is the
        # peak resident size since exec, unlike ru_maxrss, which also
        # counts the forking test process
        path = tmp_path / "box.net"
        path.write_text(serialize_network(box_network(1, 2, 2)))
        program = (
            "import re, sys\n"
            "from netinv.cli import main\n"
            "code = main(['rank', sys.argv[1]])\n"
            "with open('/proc/self/status') as f:\n"
            "    print(re.search(r'VmHWM:\\s*(\\d+) kB', f.read()).group(1))\n"
            "sys.exit(code)\n"
        )
        src = str(Path(netinv.__file__).resolve().parent.parent)
        path_var = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", program, str(path)],
            env={**os.environ, "PYTHONPATH": path_var},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        line, peak_kib = result.stdout.splitlines()
        assert line == "rows=17334272 rank=21 unknowns=21 verdict=full"
        assert int(peak_kib) < 100 * 1024

    def test_cube_rank_line_and_memory(self, tmp_path):
        # the 2x2x2 cube has three twins at each of its eight corner cells.
        # A fresh interpreter runs `netinv rank` as its child and reads the
        # child's peak resident size; it is small, so the fork adds little
        path = tmp_path / "cube.net"
        path.write_text(serialize_network(box_network(2, 2, 2)))
        program = (
            "import resource, subprocess, sys\n"
            "argv = [sys.executable, '-m', 'netinv.cli', 'rank', sys.argv[1], '--max-pair-size', '4']\n"
            "result = subprocess.run(argv, capture_output=True, text=True)\n"
            "print(result.returncode, result.stdout, result.stderr, sep='|')\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        src = str(Path(netinv.__file__).resolve().parent.parent)
        path_var = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", program, str(path)],
            env={**os.environ, "PYTHONPATH": path_var},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        report, peak = result.stdout.rsplit("\n", 2)[:2]
        assert report == "5|rows=984879 rank=28 unknowns=37 verdict=deficient\n|"
        assert int(peak) < 150 * 2**20 // (1 if sys.platform == "darwin" else 1024)  # bytes there, else KiB


class TestInvert:
    def test_lattice_roundtrip(self, tmp_path, lattice_file, lattice12, capsys):
        lam_file = tmp_path / "lam.txt"
        lam_file.write_text(format_matrix_text(dtn(lattice12).entries))
        assert main(["invert", lattice_file, str(lam_file)]) == 0
        out = capsys.readouterr().out
        for eid in range(1, 13):
            line = next(l for l in out.splitlines() if l.startswith(f"gamma {eid} ="))
            assert float(line.split("=")[1]) == pytest.approx(eid, rel=1e-8)
        assert "rank = 13" in out

    def test_dimension_mismatch_exit_2(self, tmp_path, lattice_file, capsys):
        lam_file = tmp_path / "lam.txt"
        lam_file.write_text(format_matrix_text(np.eye(3)))
        assert main(["invert", lattice_file, str(lam_file)]) == 2
        capsys.readouterr()

    def test_dimension_mismatch_before_the_scan(
        self, tmp_path, grid3, lattice12, monkeypatch, capsys
    ):
        net_file = tmp_path / "grid3.net"
        net_file.write_text(serialize_network(grid3))
        lam_file = tmp_path / "lam.txt"
        lam_file.write_text(format_matrix_text(dtn(lattice12).entries))
        scans = []
        monkeypatch.setattr(netinv.inverse, "admissible_rows", lambda *args: scans.append(args))
        argv = ["invert", str(net_file), str(lam_file), "--max-pair-size", "3"]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "",
            "error: DtN map is 8x8 but the topology has 12 boundary vertices\n",
        )
        assert scans == []

    def test_nonfinite_map_exit_2(self, tmp_path, lattice_file, lattice12, capsys):
        lam = dtn(lattice12).entries.copy()
        lam[2, 3] = np.nan
        lam_file = tmp_path / "lam.txt"
        lam_file.write_text(format_matrix_text(lam))
        assert main(["invert", lattice_file, str(lam_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err

    def test_conductivity_beyond_float_range_exit_2(
        self, tmp_path, lattice_file, lattice12, capsys
    ):
        # a finite map whose recovered gamma_12 is ~2.6e308
        lam = dtn(lattice12).entries
        lam_file = tmp_path / "lam.txt"
        lam_file.write_text(format_matrix_text(lam * (1.5e308 / np.max(np.abs(lam)))))
        assert main(["invert", lattice_file, str(lam_file)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: recovered conductivity of edge 12, exp(")
        assert err.endswith("), is beyond the float range\n") and err.count("\n") == 1

    def test_underflowing_conductivity_is_a_data_fault(self, tmp_path, lattice_ones, capsys):
        # row and column 1 scaled by 1e-200: the solve gives log gamma_1
        # near -921, whose exp is 0.0; the map's row sums are the report
        net_file, lam_file = tmp_path / "lattice.net", tmp_path / "lam.txt"
        net_file.write_text(serialize_network(lattice_ones))
        lam = dtn(lattice_ones).entries.copy()
        lam[0, :] *= 1e-200
        lam[:, 0] *= 1e-200
        lam_file.write_text(format_matrix_text(lam))
        assert main(["invert", str(net_file), str(lam_file)]) == 2
        assert capsys.readouterr() == (
            "",
            "error: map row 2 does not sum to zero: |sum_j Lambda[2,j]| = 8.333e-02 "
            "exceeds 8 x 7.083e-07\n",
        )

    def test_map_that_drops_every_row_and_is_no_dtn_map_exit_2(self, tmp_path, capsys):
        # the identity's off-diagonal minors are all zero, so every row of
        # the star is dropped; its row sums say why before the rank does
        star, lam_file = tmp_path / "star.net", tmp_path / "lam.txt"
        star.write_text("boundary 3\ninterior 1\nedge 1 4 1.0\nedge 2 4 1.0\nedge 3 4 1.0\n")
        lam_file.write_text(format_matrix_text(np.eye(3)))
        assert main(["invert", str(star), str(lam_file)]) == 2
        assert capsys.readouterr() == (
            "",
            "error: map row 1 does not sum to zero: |sum_j Lambda[1,j]| = 1.000e+00 "
            "exceeds 3 x 1.000e-06\n",
        )

    def test_subnormal_roundtrip_exit_2(self, tmp_path, lattice_file, lattice12, capsys):
        # the map is finite; the round trip's interior solve on the
        # recovered subnormal conductivities is not, and its error is
        # the one line on stderr
        lam_file = tmp_path / "lam.txt"
        lam_file.write_text(format_matrix_text(dtn(lattice12).entries * 1e-318))
        assert main(["invert", lattice_file, str(lam_file)]) == 2
        assert capsys.readouterr() == ("", SUBNORMAL_ERROR)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_roundtrip_kirchhoff_exit_2(
        self, tmp_path, lattice_file, lattice12, capsys
    ):
        # the recovered conductivities e * 10^307.1 are representable,
        # but the round trip's Kirchhoff matrix is not
        lam_file = tmp_path / "lam.txt"
        lam_file.write_text(format_matrix_text(dtn(lattice12).entries * 10**307.1))
        assert main(["invert", lattice_file, str(lam_file)]) == 2
        assert capsys.readouterr() == (
            "",
            "error: conductivities at vertex 9 sum beyond the float range\n",
        )

    def test_asymmetric_map_exit_2(self, tmp_path, lattice_file, lattice12, capsys, recwarn):
        lam = dtn(lattice12).entries.copy()
        lam[0, 1] += 1e-3 * np.max(np.abs(lam))
        lam_file = tmp_path / "lam.txt"
        lam_file.write_text(format_matrix_text(lam))
        assert main(["invert", lattice_file, str(lam_file)]) == 2
        assert capsys.readouterr() == (
            "",
            "error: map is not symmetric: |Lambda[1,2] - Lambda[2,1]| = 6.860e-03 "
            "exceeds 2 x 6.860e-06\n",
        )

    @pytest.mark.parametrize(
        "scale, gap",
        [
            # the round trip's Kirchhoff matrix overflows
            (10**307.1, "8.636e+304 exceeds 2 x 8.636e+301"),
            # the round trip's interior solve is not finite
            (1e-318, "6.858e-321 exceeds 2 x 4.941e-324"),
        ],
        ids=["huge", "subnormal"],
    )
    def test_asymmetric_map_failing_the_roundtrip_solve_exit_2(
        self, tmp_path, lattice_file, lattice12, capsys, recwarn, scale, gap
    ):
        # the fault the round trip's forward solve meets is the map's:
        # it is far from symmetric
        lam = dtn(lattice12).entries.copy()
        lam[0, 1] += 1e-3 * np.max(np.abs(lam))
        lam_file = tmp_path / "lam.txt"
        lam_file.write_text(format_matrix_text(lam * scale))
        assert main(["invert", lattice_file, str(lam_file)]) == 2
        assert capsys.readouterr() == (
            "",
            f"error: map is not symmetric: |Lambda[1,2] - Lambda[2,1]| = {gap}\n",
        )

    def test_wrong_map_exit_6(self, tmp_path, lattice_file, other_lattice_map, capsys, recwarn):
        lam_file = tmp_path / "lam.txt"
        lam_file.write_text(format_matrix_text(other_lattice_map.entries))
        assert main(["invert", lattice_file, str(lam_file)]) == 6
        capsys.readouterr()

    def test_map_with_nonzero_row_sums_exit_2(
        self, tmp_path, lattice_file, lattice12, capsys, recwarn
    ):
        # Lambda_12 and Lambda_21 raised by half: symmetric still, but
        # rows 1 and 2 no longer sum to zero, so no DtN map lies near
        lam = dtn(lattice12).entries.copy()
        lam[0, 1] *= 1.5
        lam[1, 0] *= 1.5
        lam_file = tmp_path / "lam.txt"
        lam_file.write_text(format_matrix_text(lam))
        assert main(["invert", lattice_file, str(lam_file)]) == 2
        assert capsys.readouterr() == (
            "",
            "error: map row 1 does not sum to zero: |sum_j Lambda[1,j]| = 4.266e-02 "
            "exceeds 8 x 6.860e-06\n",
        )

    def test_inconsistent_map_warns_on_one_line(self, tmp_path, lattice_file, lattice12, capsys):
        # Lambda_15 and Lambda_51 raised by 1e-5: within the round-trip
        # threshold, but not the log-linear fit of all 1,288 rows
        lam = dtn(lattice12).entries.copy()
        lam[0, 4] *= 1 + 1e-5
        lam[4, 0] *= 1 + 1e-5
        lam_file = tmp_path / "lam.txt"
        lam_file.write_text(format_matrix_text(lam))
        assert main(["invert", lattice_file, str(lam_file), "--no-stop-at-full-rank"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("gamma 1 = ")
        assert err == (
            "warning: least-squares residual 1.231e-04 vs ||rhs|| 7.418e+01: "
            "data is not an exact DtN map of this topology\n"
        )

    def test_failure_prints_only_its_error(
        self, tmp_path, lattice_file, other_lattice_map, capsys
    ):
        # the same warning is met, but the error line is the report
        lam_file = tmp_path / "lam.txt"
        lam_file.write_text(format_matrix_text(other_lattice_map.entries))
        assert main(["invert", lattice_file, str(lam_file)]) == 6
        assert capsys.readouterr() == ("", "error: roundtrip error 2.552e+00 exceeds 6.980e-06\n")

    def test_negated_map_is_a_data_fault(self, tmp_path, lattice_file, lattice12, capsys):
        # the topology is full rank; -Lambda's odd-size rows are dropped
        # for their sign, and that is reported as the data's fault
        lam_file = tmp_path / "neg.txt"
        lam_file.write_text(format_matrix_text(-dtn(lattice12).entries))
        assert main(["invert", lattice_file, str(lam_file)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: rows kept by this map have rank 8 of 13: pair ")
        assert "contradicts predicted" in err
        assert main(["invert", lattice_file, str(lam_file), "--no-stop-at-full-rank"]) == 6
        capsys.readouterr()

    def test_negated_chain_map_is_the_topology_fault(self, tmp_path, capsys):
        chain = tmp_path / "chain.net"
        chain.write_text("boundary 2\ninterior 2\nedge 1 3 1.0\nedge 3 4 1.0\nedge 4 2 1.0\n")
        lam_file = tmp_path / "neg.txt"
        lam_file.write_text("2 2\n-1 1\n1 -1\n")
        assert main(["invert", str(chain), str(lam_file)]) == 5
        assert capsys.readouterr() == ("", "error: rank 1, unresolved columns [1, 2, 3]\n")

    def test_pipes_compose_with_forward(self, tmp_path, lattice_file, capsys):
        assert main(["forward", lattice_file]) == 0
        lam_text = capsys.readouterr().out
        lam_file = tmp_path / "lam.txt"
        lam_file.write_text(lam_text)
        assert main(["invert", lattice_file, str(lam_file)]) == 0
        capsys.readouterr()


class TestRoundtrip:
    def test_lattice_trials_pass(self, lattice_file, capsys):
        assert main(["roundtrip", lattice_file, "--seed", "7", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert len([l for l in out.splitlines() if l.startswith("trial ")]) == 3

    def test_deterministic_for_seed(self, lattice_file, capsys):
        main(["roundtrip", lattice_file, "--seed", "7", "--trials", "2"])
        first = capsys.readouterr().out
        main(["roundtrip", lattice_file, "--seed", "7", "--trials", "2"])
        assert capsys.readouterr().out == first

    def test_scans_topology_once(self, lattice_file, monkeypatch, capsys):
        scans = []
        scan = netinv.inverse.admissible_rows

        def counted(*args):
            scans.append(args)
            return scan(*args)

        monkeypatch.setattr(netinv.inverse, "admissible_rows", counted)
        assert main(["roundtrip", lattice_file, "--trials", "5"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5
        assert len(scans) == 1

    def test_gamma_error_above_bound_exit_6(self, lattice_file, monkeypatch, capsys):
        apply = RecoveryPlan.apply

        def off_by_1e6(plan, lam):
            report = apply(plan, lam)
            scaled = tuple(g * (1 + 1e-6) for g in report.recovered_gammas)
            return dataclasses.replace(report, recovered_gammas=scaled)

        monkeypatch.setattr(RecoveryPlan, "apply", off_by_1e6)
        assert main(["roundtrip", lattice_file, "--trials", "2"]) == 6
        out, err = capsys.readouterr()
        assert [line.split(" = ")[0] for line in out.splitlines()] == [
            "trial 1 max_rel_error",
            "trial 2 max_rel_error",
        ]
        worst = max(float(line.split(" = ")[1]) for line in out.splitlines())
        assert err == f"error: worst max_rel_error {worst:.3e} exceeds 1e-08\n"

    def test_deficient_topology_exit_5(self, tmp_path, capsys):
        chain = tmp_path / "chain.net"
        chain.write_text("boundary 2\ninterior 2\nedge 1 3 1.0\nedge 3 4 1.0\nedge 4 2 1.0\n")
        assert main(["roundtrip", str(chain), "--trials", "1"]) == 5
        capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "{net}", "--max-pair-size", "0"],
        ["rank", "{net}", "--max-pair-size", "-2"],
        ["invert", "{net}", "{lam}", "--max-pair-size", "-1"],
        ["roundtrip", "{net}", "--max-pair-size", "-1"],
        ["roundtrip", "{net}", "--trials", "0"],
        ["roundtrip", "{net}", "--trials", "-3"],
    ],
)
def test_cap_or_trials_below_one_exit_2(tmp_path, lattice_file, lattice12, argv, capsys):
    # bad input, not a verdict on the topology
    lam_file = tmp_path / "lam.txt"
    lam_file.write_text(format_matrix_text(dtn(lattice12).entries))
    assert main([a.format(net=lattice_file, lam=lam_file) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_empty_network_default_cap_exit_5(tmp_path, capsys):
    net = tmp_path / "empty.net"
    net.write_text("boundary 0\ninterior 0\n")
    assert main(["rank", str(net)]) == 5
    assert capsys.readouterr().out == "rows=0 rank=0 unknowns=0 verdict=deficient\n"


FAULT_CODES = [
    (OSError("disk gone"), 2),
    (NetworkError("bad network"), 2),
    (ValueError("bad value"), 2),
    (InteriorNotGrounded("not grounded"), 3),
    (ExpansionMismatch("terms disagree"), 4),
    (RankDeficient(1, (2, 3)), 5),
    (AllRowsDegenerate("rows dropped"), 5),
    (RoundTripFailure(1.0, 0.5), 6),
    (TooManySystems("search over budget"), 2),
]


@pytest.mark.parametrize(
    "exc, code", FAULT_CODES, ids=[type(exc).__name__ for exc, _ in FAULT_CODES]
)
@pytest.mark.parametrize(
    "command, call, prefix",
    [
        (["forward", "{net}"], "dtn", ""),
        (["paths", "{net}", "--from", "1", "--to", "2"], "expand_det", ""),
        (["invert", "{net}", "{lam}"], "recover", ""),
        (["roundtrip", "{net}", "--trials", "2"], "dtn", "trial 1: "),
    ],
    ids=["forward", "paths", "invert", "roundtrip"],
)
def test_exit_code_table(
    tmp_path, single_edge_file, monkeypatch, capsys, exc, code, command, call, prefix
):
    lam_file = tmp_path / "lam.txt"
    lam_file.write_text("2 2\n5 -5\n-5 5\n")

    def fault(*args, **kwargs):
        raise exc

    monkeypatch.setattr(netinv.cli, call, fault)
    argv = [a.format(net=single_edge_file, lam=lam_file) for a in command]
    assert main(argv) == code
    assert capsys.readouterr() == ("", f"error: {prefix}{exc}\n")


def test_parser_built_once_and_command_looked_up_per_call(single_edge_file, monkeypatch, capsys):
    # main reuses one parser, and runs whatever cmd_<command> the module
    # holds when it is called, so a command rebound after the first call
    # (a tracer's wrapper, a test's fake) is the one that runs
    assert main(["rank", single_edge_file]) == 0
    assert netinv.cli.build_parser() is netinv.cli.build_parser()
    monkeypatch.setattr(netinv.cli, "cmd_rank", lambda args: print(f"rebound {args.max_pair_size}") or 5)
    assert main(["rank", single_edge_file, "--max-pair-size", "2"]) == 5
    assert capsys.readouterr().out.splitlines()[-1] == "rebound 2"
