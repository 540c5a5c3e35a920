import pytest

from netinv import dtn, grid_fixture, lattice_fixture
from netinv.network import Edge, Network


@pytest.fixture
def lattice12():
    """Lattice with gamma_e = e."""
    return lattice_fixture(range(1, 13))


@pytest.fixture
def other_lattice_map(lattice12):
    """The DtN map of another network on the lattice's boundary: the
    lattice plus edge (9, 11), gamma = 1. It is symmetric with zero row
    sums, as every DtN map is, yet fails the lattice's round trip."""
    return dtn(Network(8, 4, lattice12.edges + (Edge(13, 9, 11, 1.0),)))


@pytest.fixture
def lattice_ones():
    return lattice_fixture([1.0] * 12)


@pytest.fixture
def single_edge():
    """Two boundary vertices joined by one conductor, gamma = 5."""
    return Network(2, 0, (Edge(1, 1, 2, 5.0),))


@pytest.fixture
def series_path():
    """Boundary 1, 2 joined through interior vertex 3, both gamma = 1."""
    return Network(2, 1, (Edge(1, 1, 3, 1.0), Edge(2, 2, 3, 1.0)))


@pytest.fixture
def grid3():
    """The 3x3 grid: 12 pendant boundary vertices, 9 interior, 24 edges,
    gamma_e = 1."""
    return grid_fixture(3, [1.0] * 24)
