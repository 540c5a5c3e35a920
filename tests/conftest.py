import pytest

from netinv import grid_fixture, lattice_fixture
from netinv.network import Edge, Network


@pytest.fixture
def lattice12():
    """Lattice with gamma_e = e."""
    return lattice_fixture(range(1, 13))


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
