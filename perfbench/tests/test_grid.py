import random

import networkx as nx
import numpy as np
import pytest

from netinv import BoundaryPair, dtn, dtn_subdet, lattice_fixture
from perfbench.grid import circular_pairs, cim_sign, grid_network, log_uniform, relabel


@pytest.mark.parametrize("n", [1, 2, 3, 4, 10])
def test_grid_counts(n):
    net = grid_network(n, [1.0] * (2 * n * n + 2 * n))
    assert (net.n_boundary, net.n_interior, net.n_edges) == (4 * n, n * n, 2 * n * n + 2 * n)
    # boundary vertices are pendant
    adj = net.adjacency()
    assert all(len(adj[b]) == 1 for b in range(1, 4 * n + 1))


def test_relabel_permutes_dtn_by_boundary_permutation():
    rng = random.Random(5)
    net = grid_network(3, log_uniform(rng, 24))
    moved, perm = relabel(net, rng)
    assert sorted(perm[1:13]) == list(range(1, 13))
    assert sorted(perm[13:]) == list(range(13, 22))
    lam, lam_moved = dtn(net).entries, dtn(moved).entries
    idx = [perm[b] - 1 for b in range(1, 13)]
    np.testing.assert_allclose(lam_moved[np.ix_(idx, idx)], lam, rtol=1e-12, atol=1e-14)


def _graph(net):
    g = nx.Graph()
    for v in range(1, net.n_vertices + 1):
        g.add_node(v, boundary=v <= net.n_boundary)
    for e in net.edges:
        g.add_edge(e.u, e.v, id=e.id)
    return g


def test_two_by_two_grid_is_the_lattice_up_to_labels():
    rng = random.Random(9)
    lattice = lattice_fixture(log_uniform(rng, 12))
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        _graph(lattice), _graph(grid_network(2, [1.0] * 12)),
        node_match=lambda a, b: a["boundary"] == b["boundary"],
    )
    iso = next(matcher.isomorphisms_iter())
    # carry the lattice's conductivities over and compare DtN maps
    grid_edges = {frozenset((e.u, e.v)): e.id for e in grid_network(2, [1.0] * 12).edges}
    gammas = [0.0] * 12
    for e in lattice.edges:
        gammas[grid_edges[frozenset((iso[e.u], iso[e.v]))] - 1] = e.gamma
    grid = grid_network(2, gammas)
    idx = [iso[b] - 1 for b in range(1, 9)]
    np.testing.assert_allclose(dtn(grid).entries[np.ix_(idx, idx)], dtn(lattice).entries, rtol=1e-12, atol=1e-14)


def test_circular_minor_signs_on_small_grid():
    rng = random.Random(3)
    for _ in range(20):
        lam = dtn(grid_network(4, log_uniform(rng, 40)))
        for p, q in circular_pairs(4, 3):
            assert not set(p) & set(q)
            assert dtn_subdet(lam, BoundaryPair(p, q)) * cim_sign(len(p)) > 0, (p, q)
