import numpy as np
import pytest

from netinv import dtn, lattice_fixture, serialize_network
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

    def test_deficient_topology_exit_5(self, tmp_path, capsys):
        chain = tmp_path / "chain.net"
        chain.write_text("boundary 2\ninterior 2\nedge 1 3 1.0\nedge 3 4 1.0\nedge 4 2 1.0\n")
        assert main(["roundtrip", str(chain), "--trials", "1"]) == 5
        capsys.readouterr()
