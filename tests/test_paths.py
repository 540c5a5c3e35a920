from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netinv import (
    BoundaryPair,
    lattice_fixture,
    TooManySystems,
    enumerate_path_systems,
    expand_det,
    is_log_linear_admissible,
    kirchhoff_subdet,
    term_sign,
)
from netinv.network import Edge, Network, RandomNetSpec, kirchhoff, random_network
from oracle import exhaustive_path_systems


def system_summaries(systems):
    return {(s.paths, s.residual) for s in systems}


class TestEnumeration:
    def test_lattice_1_to_5(self, lattice12):
        systems = enumerate_path_systems(lattice12, BoundaryPair((1,), (5,)))
        assert system_summaries(systems) == {
            (((1, 9, 12, 11, 5),), (10,)),
            (((1, 9, 10, 11, 5),), (12,)),
        }

    def test_lattice_12_to_56(self, lattice12):
        systems = enumerate_path_systems(lattice12, BoundaryPair((1, 2), (5, 6)))
        assert system_summaries(systems) == {(((1, 9, 12, 6), (2, 10, 11, 5)), ())}

    def test_lattice_128_to_568(self, lattice12):
        systems = enumerate_path_systems(lattice12, BoundaryPair((1, 2, 8), (5, 6, 8)))
        assert system_summaries(systems) == {(((1, 9, 12, 6), (2, 10, 11, 5)), (8,))}

    def test_equal_pair_gives_single_empty_system(self, lattice12):
        systems = enumerate_path_systems(lattice12, BoundaryPair((1, 2), (1, 2)))
        assert len(systems) == 1
        assert systems[0].paths == ()
        # residual covers all of I plus the shared boundary vertices
        assert systems[0].residual == (1, 2, 9, 10, 11, 12)

    def test_cap_raises(self, lattice12):
        with pytest.raises(TooManySystems):
            enumerate_path_systems(lattice12, BoundaryPair((1,), (5,)), max_systems=1)

    def test_systems_satisfy_invariants(self, lattice12):
        lookup = lattice12.edge_lookup()
        pair = BoundaryPair((1, 5), (2, 6))
        for system in enumerate_path_systems(lattice12, pair):
            all_vertices = [v for p in system.paths for v in p]
            assert len(all_vertices) == len(set(all_vertices))  # vertex-disjoint
            for path in system.paths:
                for a, b in zip(path, path[1:]):
                    assert ((min(a, b), max(a, b))) in lookup
            touched_allowed = set(all_vertices) & {9, 10, 11, 12}
            assert touched_allowed | set(system.residual) == {9, 10, 11, 12}
            assert not touched_allowed & set(system.residual)
            starts = [p[0] for p in system.paths]
            assert starts == sorted(starts)


class TestTermSign:
    def test_single_edge(self, single_edge):
        pair = BoundaryPair((1,), (2,))
        (system,) = enumerate_path_systems(single_edge, pair)
        assert term_sign(system, pair) == -1  # det Lambda(1;2) = -gamma

    def test_lattice_unique_system_negative(self, lattice12):
        pair = BoundaryPair((1, 2), (5, 6))
        (system,) = enumerate_path_systems(lattice12, pair)
        assert term_sign(system, pair) == -1

    def test_lattice_crossing_pair_opposite_signs(self, lattice12):
        # the two systems of (1,5;2,6) carry opposite signs; under the
        # ascending row/column convention the g1*g2*g3*g4*g5*g6 pairing
        # is the negative one
        pair = BoundaryPair((1, 5), (2, 6))
        signs = {}
        for system in enumerate_path_systems(lattice12, pair):
            signs[system.paths] = term_sign(system, pair)
        assert sorted(signs.values()) == [-1, 1]
        assert signs[((1, 9, 12, 6), (5, 11, 10, 2))] == -1


class TestExpandDet:
    def test_lattice_1_to_5_value(self, lattice12):
        terms, total = expand_det(lattice12, BoundaryPair((1,), (5,)))
        # -(g1*g2*g11*g6*(g8+g4+g9+g5) + g1*g8*g5*g6*(g2+g3+g10+g11))
        assert total == pytest.approx(-9672.0, rel=1e-10)
        assert len(terms) == 2
        assert {t.monomial for t in terms} == {(1, 2, 6, 11), (1, 5, 6, 8)}

    def test_empty_pair_gives_interior_determinant(self, lattice12):
        k = kirchhoff(lattice12)
        interior = lattice12.interior_vertices
        terms, total = expand_det(lattice12, BoundaryPair((), ()))
        assert len(terms) == 1 and terms[0].sign == 1 and terms[0].monomial == ()
        assert total == pytest.approx(kirchhoff_subdet(k, interior, interior), rel=1e-12)

    @given(st.integers(0, 10_000), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_master_identity_random(self, seed, rnd):
        net = random_network(RandomNetSpec(n_boundary=(3, 6), n_interior=(1, 4), seed=seed))
        size = rnd.randint(1, min(3, net.n_boundary))
        p = tuple(sorted(rnd.sample(range(1, net.n_boundary + 1), size)))
        q = tuple(sorted(rnd.sample(range(1, net.n_boundary + 1), size)))
        pair = BoundaryPair(p, q)
        # raises ExpansionMismatch internally on any disagreement
        _, total = expand_det(net, pair)
        k = kirchhoff(net)
        interior = set(net.interior_vertices)
        ref = kirchhoff_subdet(k, sorted(set(p) | interior), sorted(set(q) | interior))
        denom = max(abs(ref), abs(total))
        if denom > 1e-6:
            assert abs(total - ref) <= 1e-9 * denom

    @given(st.integers(0, 10_000), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_enumeration_matches_exhaustive_oracle(self, seed, rnd):
        net = random_network(RandomNetSpec(n_boundary=(3, 6), n_interior=(1, 4), seed=seed))
        size = rnd.randint(1, min(3, net.n_boundary))
        p = tuple(sorted(rnd.sample(range(1, net.n_boundary + 1), size)))
        q = tuple(sorted(rnd.sample(range(1, net.n_boundary + 1), size)))
        pair = BoundaryPair(p, q)
        assert set(enumerate_path_systems(net, pair)) == set(
            exhaustive_path_systems(net, pair)
        )


class TestAdmissibility:
    def test_row_for_pair_12_56(self, lattice12):
        row = is_log_linear_admissible(lattice12, BoundaryPair((1, 2), (5, 6)))
        assert row is not None
        assert row.edge_ids == (1, 2, 3, 4, 5, 6)
        assert row.sign == -1

    def test_row_for_pair_128_568(self, lattice12):
        row = is_log_linear_admissible(lattice12, BoundaryPair((1, 2, 8), (5, 6, 8)))
        assert row is not None
        assert row.edge_ids == (1, 2, 3, 4, 5, 6, 7)

    def test_two_systems_not_admissible(self, lattice12):
        assert is_log_linear_admissible(lattice12, BoundaryPair((1,), (5,))) is None

    def test_uncovered_interior_not_admissible(self, lattice12):
        # 1-9-8 leaves interior 10, 11, 12 untouched
        assert is_log_linear_admissible(lattice12, BoundaryPair((1,), (8,))) is None

    def test_non_pendant_residual_not_admissible(self):
        # unique system 1-5-3, but residual boundary vertex 2 has degree 2
        net = Network(
            4,
            1,
            (
                Edge(1, 1, 5, 1.0),
                Edge(2, 3, 5, 1.0),
                Edge(3, 2, 5, 1.0),
                Edge(4, 2, 4, 1.0),
            ),
        )
        assert len(enumerate_path_systems(net, BoundaryPair((1, 2), (2, 3)))) == 1
        assert is_log_linear_admissible(net, BoundaryPair((1, 2), (2, 3))) is None

    def test_pendant_residual_contributes_its_edge(self):
        net = Network(
            3,
            1,
            (Edge(1, 1, 4, 1.0), Edge(2, 3, 4, 1.0), Edge(3, 2, 4, 1.0)),
        )
        row = is_log_linear_admissible(net, BoundaryPair((1, 2), (2, 3)))
        assert row is not None
        assert row.edge_ids == (1, 2, 3)

    @pytest.mark.parametrize(
        "net",
        [lattice_fixture([1.0] * 12)]
        + [
            random_network(RandomNetSpec(n_boundary=(3, 6), n_interior=(1, 4), seed=seed))
            for seed in range(8)
        ],
    )
    def test_several_systems_never_admissible(self, net):
        several = 0
        for size in range(1, min(3, net.n_boundary) + 1):
            subsets = list(combinations(range(1, net.n_boundary + 1), size))
            for p in subsets:
                for q in subsets:
                    pair = BoundaryPair(p, q)
                    if q >= p and len(exhaustive_path_systems(net, pair)) >= 2:
                        several += 1
                        assert is_log_linear_admissible(net, pair) is None
        assert several > 0
