import random

import numpy as np
import pytest

from netinv import BoundaryPair, DtNMap, NetworkError, dtn, dtn_subdet, enumerate_path_systems
from netinv.network import Edge, Network, kirchhoff, random_network
from oracle import exhaustive_path_systems, perm_det


class TestPermDet:
    def test_2x2(self):
        assert perm_det([[1, 2], [3, 4]]) == -2.0

    def test_identity_5x5(self):
        assert perm_det(np.eye(5)) == 1.0

    def test_empty(self):
        assert perm_det([]) == 1.0

    def test_too_large(self):
        with pytest.raises(ValueError, match="capped"):
            perm_det(np.eye(9))

    def test_matches_lu_det_random(self):
        # against the package's determinant path, the full DtN minor
        rng = random.Random(42)
        for _ in range(300):
            n = rng.randint(1, 6)
            m = [[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)]
            ref = perm_det(m)
            got = dtn_subdet(DtNMap(m), BoundaryPair(range(1, n + 1), range(1, n + 1)))
            assert abs(got - ref) <= 1e-10 * max(abs(ref), 1.0)


class TestExhaustivePathSystems:
    def test_lattice_1_to_5(self, lattice12):
        systems = exhaustive_path_systems(lattice12, BoundaryPair((1,), (5,)))
        assert set(systems) == set(
            enumerate_path_systems(lattice12, BoundaryPair((1,), (5,)))
        )
        assert len(systems) == 2

    def test_lattice_12_to_56(self, lattice12):
        systems = exhaustive_path_systems(lattice12, BoundaryPair((1, 2), (5, 6)))
        assert len(systems) == 1

    def test_disconnected_pair_empty(self):
        # 1 and 2 hang off interior 5; 3-4 is a separate component
        net = Network(
            4,
            1,
            (Edge(1, 1, 5, 1.0), Edge(2, 2, 5, 1.0), Edge(3, 3, 4, 1.0)),
        )
        assert exhaustive_path_systems(net, BoundaryPair((1,), (3,))) == []

    def test_size_cap(self):
        net = Network(15, 0, tuple(Edge(i, i, i + 1, 1.0) for i in range(1, 15)))
        with pytest.raises(ValueError, match="capped"):
            exhaustive_path_systems(net, BoundaryPair((1,), (15,)))


class TestRandomNetwork:
    def test_deterministic_for_seed(self):
        assert random_network(seed=123) == random_network(seed=123)

    def test_all_draws_satisfy_invariants(self):
        for seed in range(300):
            net = random_network(seed=seed)
            # construction re-runs the full invariant suite; spot-check
            assert all(e.gamma > 0 for e in net.edges)
            assert len({e.pair for e in net.edges}) == net.n_edges

    def test_gamma_range_respected(self):
        nets = [random_network(seed=seed) for seed in range(100)]
        assert all(0.1 <= e.gamma <= 10.0 for net in nets for e in net.edges)

    def test_gives_up_when_no_draw_is_grounded(self):
        # a lone interior vertex with no boundary to join is never grounded
        with pytest.raises(NetworkError, match="^no valid network after 1000 draws: "):
            random_network(n_boundary=(0, 0), n_interior=(1, 1))

    def test_no_interior_dtn_equals_kirchhoff(self):
        net = random_network(n_interior=(0, 0), seed=5)
        assert np.array_equal(dtn(net).entries, kirchhoff(net))
