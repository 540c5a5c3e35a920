import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netinv import (
    BoundaryPair,
    lattice_fixture,
    TooManySystems,
    compile_topology,
    enumerate_path_systems,
    expand_det,
    is_log_linear_admissible,
    kirchhoff_subdet,
    term_sign,
)
from netinv import paths
from netinv.network import Edge, Network, RandomNetSpec, kirchhoff, random_network
from netinv.paths import covering_family_counts
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

    def test_cap_raises(self, lattice12, monkeypatch):
        monkeypatch.setattr(paths, "MAX_SYSTEMS", 1)
        with pytest.raises(TooManySystems):
            enumerate_path_systems(lattice12, BoundaryPair((1,), (5,)))

    def test_cap_counts_systems(self, lattice12, monkeypatch):
        # (1;5) has exactly two systems, which a cap of two allows
        monkeypatch.setattr(paths, "MAX_SYSTEMS", 2)
        systems = enumerate_path_systems(lattice12, BoundaryPair((1,), (5,)))
        assert len(systems) == 2

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
        terms, total, ref = expand_det(lattice12, BoundaryPair((1,), (5,)))
        # -(g1*g2*g11*g6*(g8+g4+g9+g5) + g1*g8*g5*g6*(g2+g3+g10+g11))
        assert total == pytest.approx(-9672.0, rel=1e-10)
        assert ref == pytest.approx(-9672.0, rel=1e-10)
        assert len(terms) == 2
        assert {t.monomial for t in terms} == {(1, 2, 6, 11), (1, 5, 6, 8)}

    def test_empty_pair_gives_interior_determinant(self, lattice12):
        k = kirchhoff(lattice12)
        interior = lattice12.interior_vertices
        terms, total, _ = expand_det(lattice12, BoundaryPair((), ()))
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
        _, total, _ = expand_det(net, pair)
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


def candidate_pairs(n_boundary, max_size):
    """The scan's candidate order: increasing |P|, then lexicographic,
    (Q,P) skipped after (P,Q)."""
    for size in range(1, max_size + 1):
        subsets = list(combinations(range(1, n_boundary + 1), size))
        for p in subsets:
            for q in subsets:
                if q >= p:
                    yield BoundaryPair(p, q)


def oracle_rows(net, max_size):
    """The admissible rows by definition, in scan order, from the
    exhaustive oracle: one path system, no interior vertex in its
    residual, every residual vertex pendant with its neighbor outside it."""
    interior = set(net.interior_vertices)
    adj = net.adjacency()
    edge_id = {e.pair: e.id for e in net.edges}
    rows = []
    for pair in candidate_pairs(net.n_boundary, max_size):
        systems = exhaustive_path_systems(net, pair)
        if len(systems) != 1:
            continue
        (system,) = systems
        residual = set(system.residual)
        if residual & interior or any(len(adj[r]) != 1 or adj[r][0] in residual for r in residual):
            continue
        edges = [edge_id[tuple(sorted(e))] for path in system.paths for e in zip(path, path[1:])]
        edges += [edge_id[tuple(sorted((r, adj[r][0])))] for r in residual]
        rows.append((pair.p, pair.q, tuple(sorted(edges)), term_sign(system, pair)))
    return rows


def all_rows(net, max_size):
    return compile_topology(net, max_size, stop_at_full_rank=False).rows


def scan_rows(net, max_size):
    return [(r.pair.p, r.pair.q, r.edge_ids, r.sign) for r in all_rows(net, max_size)]


def relabeled(net, seed):
    """net with its boundary labels, interior labels and edge order
    shuffled, and the vertex map old -> new (index 0 unused)."""
    rng = random.Random(seed)
    boundary = list(range(1, net.n_boundary + 1))
    interior = list(net.interior_vertices)
    rng.shuffle(boundary)
    rng.shuffle(interior)
    perm = [0] + boundary + interior
    order = list(net.edges)
    rng.shuffle(order)
    edges = tuple(Edge(i, perm[e.u], perm[e.v], e.gamma) for i, e in enumerate(order, start=1))
    return Network(net.n_boundary, net.n_interior, edges), perm


def pendant_network(seed):
    """A random network whose boundary vertices are all pendant: a random
    connected interior graph (a random tree plus extra edges) with each
    boundary vertex hung on a random interior vertex."""
    rng = random.Random(seed)
    nb, ni = rng.randint(3, 6), rng.randint(2, 5)
    cells = range(nb + 1, nb + ni + 1)
    pairs = [(b, rng.choice(cells)) for b in range(1, nb + 1)]
    tree = {(rng.randint(nb + 1, v - 1), v) for v in cells[1:]}
    pairs += sorted(tree)
    pairs += [(u, v) for u, v in combinations(cells, 2) if (u, v) not in tree and rng.random() < 0.4]
    return Network(nb, ni, tuple(Edge(i, u, v, 1.0) for i, (u, v) in enumerate(pairs, start=1)))


def oracle_family_counts(net, max_size):
    """covering_family_counts by its definition, from the exhaustive
    oracle: per pair with P before Q, the empty pair included, its
    systems that cover I, pass through every shared vertex and have no
    chord."""
    edges = {e.pair for e in net.edges}
    counts = {}
    for pair in [BoundaryPair((), ())] + list(candidate_pairs(net.n_boundary, max_size)):
        n = sum(
            1
            for system in exhaustive_path_systems(net, pair)
            if not system.residual
            and not any(
                (min(a, b), max(a, b)) in edges
                for path in system.paths
                for i, a in enumerate(path)
                for b in path[i + 2 :]
            )
        )
        if n:
            counts[(sum(1 << v for v in pair.p), sum(1 << v for v in pair.q))] = n
    return counts


class TestAdmissibleScan:
    """The scan (covering walk, unique-system check, shared-pendant
    extension) admits exactly the rows the definition does, in candidate
    order."""

    def test_lattice_matches_oracle(self, lattice_ones):
        rows = scan_rows(lattice_ones, 3)
        assert len(rows) == 384
        assert rows == oracle_rows(lattice_ones, 3)

    def test_relabeled_lattice_matches_oracle(self, lattice_ones):
        net, _ = relabeled(lattice_ones, 7)
        assert scan_rows(net, 3) == oracle_rows(net, 3)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_network_matches_oracle(self, seed):
        net = random_network(RandomNetSpec(n_boundary=(3, 6), n_interior=(1, 4), seed=seed))
        assert scan_rows(net, 3) == oracle_rows(net, 3)

    @pytest.mark.parametrize("seed", range(20))
    def test_pendant_boundary_network_matches_oracle(self, seed):
        net = pendant_network(seed)
        assert scan_rows(net, 3) == oracle_rows(net, 3)

    @pytest.mark.parametrize("seed", range(10))
    def test_boundary_only_network_matches_oracle(self, seed):
        # no interior vertex: only the empty family and paths between
        # boundary vertices exist
        net = random_network(RandomNetSpec(n_boundary=(3, 6), n_interior=(0, 0), seed=seed))
        assert scan_rows(net, 3) == oracle_rows(net, 3)

    def test_single_edge_matches_oracle(self, single_edge):
        rows = scan_rows(single_edge, 2)
        assert rows == [((1,), (1,), (1,), 1), ((1,), (2,), (1,), -1), ((2,), (2,), (1,), 1)]
        assert rows == oracle_rows(single_edge, 2)

    def test_lattice_every_size_matches_per_pair(self, lattice_ones):
        rows = all_rows(lattice_ones, 8)
        assert len(rows) == 1288
        per_pair = (is_log_linear_admissible(lattice_ones, pair) for pair in candidate_pairs(8, 8))
        assert rows == tuple(row for row in per_pair if row is not None)

    @pytest.mark.parametrize("seed", range(10))
    def test_family_counts_match_oracle(self, seed):
        net = random_network(RandomNetSpec(n_boundary=(3, 6), n_interior=(0, 4), seed=seed))
        for size in (1, 2, 3):
            assert covering_family_counts(net, size) == oracle_family_counts(net, size)

    def test_lattice_family_counts(self, lattice_ones):
        counts = covering_family_counts(lattice_ones, 2)
        assert counts == oracle_family_counts(lattice_ones, 2)
        # 1-9-12-6 and 2-10-11-5 are the one family of (1,2;5,6); the
        # two systems of (1;5) each leave an interior vertex out
        assert counts[(0b110, 0b1100000)] == 1
        assert (0b10, 0b100000) not in counts

    def test_shared_vertex_inside_a_path(self):
        # shared boundary vertex 2 has degree 2 and carries the path
        # 1-2-3, so it is no pendant and stays in the pair's core
        net = Network(3, 0, (Edge(1, 1, 2, 1.0), Edge(2, 2, 3, 1.0)))
        rows = scan_rows(net, 3)
        assert ((1, 2), (2, 3), (1, 2), 1) in rows
        assert rows == oracle_rows(net, 3)

    def test_pendants_joined_to_each_other(self):
        # boundary 1 and 2 hang on each other: the core (3;4) is
        # admissible, but in (1,2,3;1,2,4) each residual pendant's
        # neighbor is residual too
        net = Network(4, 1, (Edge(1, 1, 2, 1.0), Edge(2, 3, 5, 1.0), Edge(3, 4, 5, 1.0)))
        rows = scan_rows(net, 3)
        assert ((3,), (4,), (2, 3), -1) in rows
        assert is_log_linear_admissible(net, BoundaryPair((1, 2, 3), (1, 2, 4))) is None
        assert rows == oracle_rows(net, 3)

    def test_first_system_leaves_interior_out(self):
        # the search meets 1-3-2 first, which leaves interior 4 out, and
        # stops there: the later 1-3-4-2 makes the system not unique
        net = Network(
            2,
            2,
            (Edge(1, 1, 3, 1.0), Edge(2, 2, 3, 1.0), Edge(3, 3, 4, 1.0), Edge(4, 2, 4, 1.0)),
        )
        pair = BoundaryPair((1,), (2,))
        first, *rest = enumerate_path_systems(net, pair)
        assert first.residual == (4,) and [s.residual for s in rest] == [()]
        assert is_log_linear_admissible(net, pair) is None
        assert scan_rows(net, 2) == oracle_rows(net, 2) == []

    def test_relabeled_grid_matches_per_pair(self, grid3):
        # 21 vertices put the grid beyond the exhaustive oracle; the
        # reference is the per-pair test, a fresh search per pair
        net, _ = relabeled(grid3, 1)
        rows = all_rows(net, 3)
        assert len(rows) == 352
        per_pair = (is_log_linear_admissible(net, pair) for pair in candidate_pairs(12, 3))
        assert rows == tuple(row for row in per_pair if row is not None)

    def test_relabeled_grid_carries_base_rows(self, grid3):
        net, perm = relabeled(grid3, 2)
        new_id = {e.pair: e.id for e in net.edges}

        def carried(row):
            p = tuple(sorted(perm[v] for v in row.pair.p))
            q = tuple(sorted(perm[v] for v in row.pair.q))
            old = [grid3.edges[i - 1] for i in row.edge_ids]
            ids = sorted(new_id[tuple(sorted((perm[e.u], perm[e.v])))] for e in old)
            return min(p, q), max(p, q), tuple(ids)  # (Q,P) is scanned as (P,Q)

        rows = {(r.pair.p, r.pair.q, r.edge_ids) for r in all_rows(net, 3)}
        assert rows == {carried(r) for r in all_rows(grid3, 3)}
