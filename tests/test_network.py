import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netinv import (
    NetworkError,
    NetworkFormatError,
    grid_fixture,
    lattice_fixture,
    parse_network,
    serialize_network,
)
from netinv.network import Edge, Network, kirchhoff, random_network
from netinv.forward import _harmonic_basis


def test_kirchhoff_single_edge():
    net = Network(2, 0, (Edge(1, 1, 2, 3.0),))
    k = kirchhoff(net)
    assert np.array_equal(k, [[3, -3], [-3, 3]])


def test_kirchhoff_lattice_row_9(lattice12):
    # node 9 couples to 1, 8, 10, 12 with -g1, -g7, -g8, -g2
    k = kirchhoff(lattice12)
    row = k[8]
    expected = np.zeros(12)
    expected[0] = -1.0   # g1
    expected[7] = -7.0   # g7
    expected[9] = -8.0   # g8
    expected[11] = -2.0  # g2
    expected[8] = 1 + 7 + 8 + 2
    assert np.array_equal(row, expected)


def test_kirchhoff_lattice_row_10_diagonal(lattice12):
    k = kirchhoff(lattice12)
    assert k[9, 9] == 4 + 9 + 8 + 5  # g4 + g9 + g8 + g5
    assert k[9, 10] == -5.0          # g5 joins 10 and 11


def test_kirchhoff_symmetric_zero_row_sums(lattice12):
    k = kirchhoff(lattice12)
    assert np.array_equal(k, k.T)
    assert np.allclose(k.sum(axis=1), 0.0, atol=0)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_kirchhoff_zero_row_sums_random(seed):
    net = random_network(seed=seed)
    k = kirchhoff(net)
    assert np.array_equal(k, k.T)
    assert np.max(np.abs(k.sum(axis=1))) <= 1e-12 * max(np.max(np.abs(k)), 1.0)


@pytest.mark.filterwarnings("error")
def test_kirchhoff_diagonal_overflow_names_vertex(lattice12):
    # gamma_e = e * 10^307.1: every conductivity is finite, but the sums
    # at the interior vertices pass the float maximum, quietly
    net = lattice12.with_gammas([e.gamma * 10**307.1 for e in lattice12.edges])
    with pytest.raises(ValueError, match="^conductivities at vertex 9 sum beyond the float range$"):
        kirchhoff(net)


def test_interior_block_positive_definite(lattice12):
    # the forward solve (Cholesky-checked) must succeed on K(I,I) of the
    # fixtures, here against B^T = -1, so that X = K(I,I)^-1 1
    c = kirchhoff(lattice12)[8:, 8:]
    k = np.block([[np.zeros((1, 1)), -np.ones((1, 4))], [-np.ones((4, 1)), c]])
    x = _harmonic_basis(k, 1)
    assert np.allclose(c @ x, 1.0, rtol=0, atol=1e-12)


def test_lattice_rejects_nonpositive():
    with pytest.raises(NetworkError):
        lattice_fixture([1] * 11 + [0])
    with pytest.raises(NetworkError):
        lattice_fixture([1] * 11 + [-2])


def test_lattice_edge_incidences(lattice12):
    by_id = {e.id: e for e in lattice12.edges}
    assert by_id[2].pair == (9, 12)
    assert by_id[5].pair == (10, 11)


def test_grid_fixture_numbering():
    net = grid_fixture(3, range(1, 25))
    assert (net.n_boundary, net.n_interior, net.n_edges) == (12, 9, 24)
    # boundary 1..12 hang clockwise on the side cells 13..21 (row-major)
    assert [e.pair for e in net.edges[:12]] == [
        (1, 13), (2, 14), (3, 15), (4, 15), (5, 18), (6, 21),
        (7, 21), (8, 20), (9, 19), (10, 19), (11, 16), (12, 13),
    ]
    assert [e.pair for e in net.edges[12:]] == [
        (13, 14), (14, 15), (16, 17), (17, 18), (19, 20), (20, 21),
        (13, 16), (14, 17), (15, 18), (16, 19), (17, 20), (18, 21),
    ]
    assert [e.gamma for e in net.edges] == list(range(1, 25))


def test_grid_fixture_rejects_bad_input():
    with pytest.raises(NetworkError, match="^1x1 grid fixture needs 4 conductivities, got 3$"):
        grid_fixture(1, [1.0] * 3)
    with pytest.raises(NetworkError, match="^lattice fixture needs 12 conductivities, got 11$"):
        lattice_fixture([1.0] * 11)
    with pytest.raises(NetworkError, match="at least 1"):
        grid_fixture(0, [])


def test_network_rejects_self_loop():
    with pytest.raises(NetworkError, match="self-loop"):
        Network(2, 0, (Edge(1, 1, 1, 2.0),))


def test_network_rejects_parallel_edges():
    with pytest.raises(NetworkError, match="parallel"):
        Network(2, 0, (Edge(1, 1, 2, 1.0), Edge(2, 2, 1, 3.0)))


def test_network_rejects_ungrounded_interior():
    with pytest.raises(NetworkError, match="no boundary"):
        Network(2, 2, (Edge(1, 1, 2, 1.0), Edge(2, 3, 4, 1.0)))
    # two ungrounded components, 4-6 and the isolated 5: the smallest
    # ungrounded vertex is named
    with pytest.raises(NetworkError) as exc:
        Network(2, 4, (Edge(1, 1, 3, 1.0), Edge(2, 4, 6, 1.0)))
    assert str(exc.value) == "interior vertex 4 lies in a component with no boundary vertex"


def test_network_rejects_bad_edge_ids():
    with pytest.raises(NetworkError, match="edge ids"):
        Network(2, 0, (Edge(2, 1, 2, 1.0),))


def test_parse_single_edge():
    net = parse_network("boundary 2\ninterior 0\nedge 1 2 3.0\n")
    assert net.n_boundary == 2 and net.n_interior == 0
    assert net.edges == (Edge(1, 1, 2, 3.0),)


def test_parse_comments_and_blanks():
    text = "# a comment\n\nboundary 2\n# another\ninterior 0\n\nedge 1 2 1.5\n"
    assert parse_network(text).n_edges == 1


def test_parse_serialize_roundtrip_lattice(lattice12):
    assert parse_network(serialize_network(lattice12)) == lattice12


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_parse_serialize_roundtrip_random(seed):
    net = random_network(seed=seed)
    assert parse_network(serialize_network(net)) == net


def test_parse_self_loop_names_line():
    with pytest.raises(NetworkFormatError, match="line 3.*self-loop"):
        parse_network("boundary 2\ninterior 0\nedge 1 1 2.0\n")


def test_parse_nonpositive_gamma_names_line():
    with pytest.raises(NetworkFormatError, match="line 3.*positive"):
        parse_network("boundary 2\ninterior 0\nedge 1 2 -1.0\n")


def test_parse_parallel_edge_names_line():
    with pytest.raises(NetworkFormatError, match="line 4.*parallel"):
        parse_network("boundary 2\ninterior 0\nedge 1 2 1.0\nedge 2 1 2.0\n")


def test_parse_rejects_missing_header():
    with pytest.raises(NetworkFormatError, match="header"):
        parse_network("edge 1 2 1.0\n")


def test_parse_rejects_duplicate_header():
    with pytest.raises(NetworkFormatError, match="duplicate"):
        parse_network("boundary 2\nboundary 2\ninterior 0\n")


def test_parse_rejects_unknown_keyword():
    with pytest.raises(NetworkFormatError, match="unknown keyword"):
        parse_network("boundary 2\ninterior 0\nvertex 1\n")


def test_parse_rejects_interior_only_component():
    with pytest.raises(NetworkError, match="no boundary"):
        parse_network("boundary 2\ninterior 2\nedge 1 2 1.0\nedge 3 4 1.0\n")


def test_serialize_17_digits():
    net = Network(2, 0, (Edge(1, 1, 2, 1 / 3),))
    assert "0.33333333333333331" in serialize_network(net)


def test_with_gammas_keeps_topology(lattice12):
    net = lattice12.with_gammas([2.0] * 12)
    assert [e.pair for e in net.edges] == [e.pair for e in lattice12.edges]
    assert all(e.gamma == 2.0 for e in net.edges)
