import pytest

from netinv import lattice_fixture
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


def grid_edge_pairs(n):
    """Vertex pairs of the n x n grid in edge-id order: n^2 interior
    cells (row r, column c is 4n + 1 + r*n + c) and 4n pendant boundary
    vertices numbered clockwise (top side left to right, right side top
    to bottom, bottom side right to left, left side bottom to top); the
    pendant edges in boundary order, then horizontal, then vertical."""

    def cell(r, c):
        return 4 * n + 1 + r * n + c

    sides = (
        [cell(0, c) for c in range(n)]
        + [cell(r, n - 1) for r in range(n)]
        + [cell(n - 1, c) for c in reversed(range(n))]
        + [cell(r, 0) for r in reversed(range(n))]
    )
    pairs = list(enumerate(sides, start=1))
    pairs += [(cell(r, c), cell(r, c + 1)) for r in range(n) for c in range(n - 1)]
    pairs += [(cell(r, c), cell(r + 1, c)) for r in range(n - 1) for c in range(n)]
    return pairs


@pytest.fixture
def grid3():
    """The 3x3 grid: 12 pendant boundary vertices, 9 interior, 24 edges,
    gamma_e = 1."""
    edges = tuple(Edge(i, u, v, 1.0) for i, (u, v) in enumerate(grid_edge_pairs(3), start=1))
    return Network(12, 9, edges)
