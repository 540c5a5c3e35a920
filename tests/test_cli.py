import numpy as np
import pytest

import netinv.cli
import netinv.inverse
from netinv import (
    AllRowsDegenerate,
    ExpansionMismatch,
    InteriorNotGrounded,
    NetworkError,
    RankDeficient,
    RoundTripFailure,
    dtn,
    lattice_fixture,
    serialize_network,
)
from netinv.cli import main
from netinv.network import Edge, Network
from netinv.numerics import format_matrix_text, parse_matrix_text


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

    def test_missing_file_exit_2(self, capsys):
        assert main(["forward", "/nonexistent.net"]) == 2
        assert "error" in capsys.readouterr().err


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
        assert main(["paths", lattice_file, "--from", "9", "--to", "1"]) == 2
        capsys.readouterr()


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
            ("3", "rows=352 rank=12 unknowns=25 verdict=deficient\n"),
            ("2", "rows=0 rank=0 unknowns=25 verdict=deficient\n"),
        ],
    )
    def test_grid3_rank_line(self, tmp_path, grid3, size, line, capsys):
        path = tmp_path / "grid3.net"
        path.write_text(serialize_network(grid3))
        assert main(["rank", str(path), "--max-pair-size", size]) == 5
        assert capsys.readouterr().out == line


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

    def test_nonfinite_map_exit_2(self, tmp_path, lattice_file, lattice12, capsys):
        lam = dtn(lattice12).entries.copy()
        lam[2, 3] = np.nan
        lam_file = tmp_path / "lam.txt"
        lam_file.write_text(format_matrix_text(lam))
        assert main(["invert", lattice_file, str(lam_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err

    def test_wrong_map_exit_6(self, tmp_path, lattice_file, lattice12, capsys, recwarn):
        lam = dtn(lattice12).entries.copy()
        lam[0, 1] *= 1.5
        lam[1, 0] *= 1.5
        lam_file = tmp_path / "lam.txt"
        lam_file.write_text(format_matrix_text(lam))
        assert main(["invert", lattice_file, str(lam_file)]) == 6
        capsys.readouterr()

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

    def test_deficient_topology_exit_5(self, tmp_path, capsys):
        chain = tmp_path / "chain.net"
        chain.write_text("boundary 2\ninterior 2\nedge 1 3 1.0\nedge 3 4 1.0\nedge 4 2 1.0\n")
        assert main(["roundtrip", str(chain), "--trials", "1"]) == 5
        capsys.readouterr()


FAULT_CODES = [
    (OSError("disk gone"), 2),
    (NetworkError("bad network"), 2),
    (ValueError("bad value"), 2),
    (InteriorNotGrounded("not grounded"), 3),
    (ExpansionMismatch("terms disagree"), 4),
    (RankDeficient(1, (2, 3)), 5),
    (AllRowsDegenerate("rows dropped"), 5),
    (RoundTripFailure(1.0, 0.5), 6),
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
