import gc
import random
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netinv import (
    BoundaryPair,
    grid_fixture,
    lattice_fixture,
    TooManySystems,
    compile_topology,
    enumerate_path_systems,
    expand_det,
    kirchhoff_subdet,
)
from netinv import paths
from netinv.network import Edge, Network, kirchhoff, random_network
from oracle import (
    covering_families,
    covering_orbits,
    exhaustive_path_systems,
    is_log_linear_admissible,
    scan_reference,
    second_system_search,
    term_sign,
)


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

    @pytest.mark.parametrize("n, count", [(3, 12), (4, 184)])
    def test_corner_to_corner_systems_are_self_avoiding_walks(self, n, count):
        # the systems of (1;2n) are the self-avoiding walks between opposite
        # corner cells of the n x n grid, OEIS A007764: 1, 2, 12, 184, 8512
        net = grid_fixture(n, [1.0] * (2 * n * (n + 1)))
        assert len(enumerate_path_systems(net, BoundaryPair((1,), (2 * n,)))) == count

    @pytest.mark.parametrize("p, q", [((1, 24), (2, 23)), ((2, 3), (1, 24))])
    def test_twin_ends_have_no_system(self, p, q):
        # 1 and 24 hang on cell (0,0) of the 6x6 grid: as two sources, or
        # two sinks, both paths would need that cell. The search used to
        # walk for 15-25 s before it printed total = 0
        net = grid_fixture(6, [1.0] * 84)
        start = time.perf_counter()
        assert enumerate_path_systems(net, BoundaryPair(p, q)) == []
        assert time.perf_counter() - start < 2.0

    def test_twin_source_and_sink_keep_their_system(self, grid3):
        # 1 and 12 hang on cell (0,0) of the 3x3 grid: a source and a sink
        # there are joined through it
        (system,) = enumerate_path_systems(grid3, BoundaryPair((1,), (12,)))
        assert system.paths == ((1, 13, 12),)

    def test_systems_satisfy_invariants(self, lattice12):
        lookup = {e.pair for e in lattice12.edges}
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


def term_signs(net, pair):
    """Each expansion term's sign, keyed by its paths, after checking
    that it is the oracle's term_sign of its system."""
    terms = expand_det(net, pair)[0]
    for term in terms:
        assert term.sign == term_sign(term.system, pair)
    return {term.system.paths: term.sign for term in terms}


class TestTermSign:
    def test_single_edge(self, single_edge):
        # det Lambda(1;2) = -gamma
        assert term_signs(single_edge, BoundaryPair((1,), (2,))) == {((1, 2),): -1}

    def test_lattice_unique_system_negative(self, lattice12):
        signs = term_signs(lattice12, BoundaryPair((1, 2), (5, 6)))
        assert list(signs.values()) == [-1]

    def test_lattice_crossing_pair_opposite_signs(self, lattice12):
        # the two systems of (1,5;2,6) carry opposite signs; under the
        # ascending row/column convention the g1*g2*g3*g4*g5*g6 pairing
        # is the negative one
        signs = term_signs(lattice12, BoundaryPair((1, 5), (2, 6)))
        assert sorted(signs.values()) == [-1, 1]
        assert signs[((1, 9, 12, 6), (5, 11, 10, 2))] == -1

    def test_sign_reads_only_the_ends(self):
        # (1,3;2,3) has two systems joining 1 to 2: 1-3-2, two edges with
        # the shared vertex 3 on the path, and 1-4-5-2, three edges with 3
        # in the residual; both terms have the same sign
        pairs = [(1, 3), (2, 3), (1, 4), (4, 5), (5, 2)]
        net = Network(3, 2, tuple(Edge(i, u, v, 1.0) for i, (u, v) in enumerate(pairs, start=1)))
        pair = BoundaryPair((1, 3), (2, 3))
        systems = {(s.paths, s.residual) for s in enumerate_path_systems(net, pair)}
        assert systems == {(((1, 3, 2),), (4, 5)), (((1, 4, 5, 2),), (3,))}
        assert term_signs(net, pair) == {((1, 3, 2),): -1, ((1, 4, 5, 2),): -1}

    def test_random_expansions(self):
        # p and q are drawn apart, so they often share vertices, and most
        # terms leave a residual, where phi is the identity
        n_terms = n_residual = n_shared = 0
        for seed in range(300):
            net = random_network(seed=seed)
            rnd = random.Random(seed)
            for _ in range(6):
                size = rnd.randint(1, min(3, net.n_boundary))
                p = tuple(sorted(rnd.sample(range(1, net.n_boundary + 1), size)))
                q = tuple(sorted(rnd.sample(range(1, net.n_boundary + 1), size)))
                pair = BoundaryPair(p, q)
                for term in expand_det(net, pair)[0]:
                    assert term.sign == term_sign(term.system, pair)
                    n_terms += 1
                    n_residual += bool(term.system.residual)
                    n_shared += bool(set(term.system.residual) & set(p))
        assert (n_terms, n_residual, n_shared) == (11462, 9677, 4512)


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
        net = random_network(seed=seed)
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
        net = random_network(seed=seed)
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
        [lattice_fixture([1.0] * 12)] + [random_network(seed=seed) for seed in range(8)],
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
    """The number of chordless covering families per core, by their
    definition, from the exhaustive oracle: per pair with P before Q, the
    empty pair included, its systems that cover I, pass through every
    shared vertex and have no chord."""
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


def families_match_oracle(net, max_size):
    """covering_families, after checking it against oracle_family_counts:
    a core the oracle counts once holds a family that is one of its path
    systems, a core counted more often holds None, and no other core
    appears."""
    families = covering_families(net, max_size)
    counts = oracle_family_counts(net, max_size)
    assert {core: family is None for core, family in families.items()} == {
        core: n > 1 for core, n in counts.items()
    }
    for (p_mask, q_mask), family in families.items():
        if family is not None:
            pair = BoundaryPair(paths._vertices(p_mask), paths._vertices(q_mask))
            oriented = sorted(path if p_mask >> path[0] & 1 else path[::-1] for path in family)
            assert tuple(oriented) in {s.paths for s in enumerate_path_systems(net, pair)}
    return families


def walked_cores_match_families(net, max_size):
    """Check _covering_orbits' dict, which holds walked cores only,
    against covering_families, which counts every family of every orbit:
    a walked core holds its walked family exactly when it has one family."""
    families, orbits = paths._covering_orbits(paths._SearchGraph(net), max_size)
    full = covering_families(net, max_size)
    assert set(families) == {core for _, cores in orbits for core in cores}
    for walked, cores in orbits:
        for core in cores:
            assert (families[core] is walked) is (full[core] is not None)


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
        net = random_network(seed=seed)
        assert scan_rows(net, 3) == oracle_rows(net, 3)

    @pytest.mark.parametrize("seed", range(20))
    def test_pendant_boundary_network_matches_oracle(self, seed):
        net = pendant_network(seed)
        assert scan_rows(net, 3) == oracle_rows(net, 3)

    @pytest.mark.parametrize("seed", range(10))
    def test_boundary_only_network_matches_oracle(self, seed):
        # no interior vertex: only the empty family and paths between
        # boundary vertices exist
        net = random_network(n_interior=(0, 0), seed=seed)
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

    @pytest.mark.parametrize("fixture, size, n_rows", [("lattice_ones", 8, 1288), ("grid3", 4, 3360)])
    def test_signs_are_term_signs(self, request, fixture, size, n_rows):
        # each row's sign, its core's times one factor per added shared
        # pendant, is term_sign of the pair's one system
        net = request.getfixturevalue(fixture)
        rows = all_rows(net, size)
        assert len(rows) == n_rows
        for row in rows:
            (system,) = enumerate_path_systems(net, row.pair)
            assert row.sign == term_sign(system, row.pair)

    @pytest.mark.parametrize("seed", range(10))
    def test_family_counts_match_oracle(self, seed):
        net = random_network(n_interior=(0, 4), seed=seed)
        for size in (1, 2, 3):
            families_match_oracle(net, size)

    @pytest.mark.parametrize("seed", range(20, 40))
    def test_last_path_family_counts_match_oracle(self, seed):
        # at caps 1 and 2 most paths are the last; inner boundary vertices
        # let a path pass one and become the last midway
        net = random_network(n_interior=(1, 6), seed=seed)
        graph = paths._SearchGraph(net)
        assert graph.boundary & ~graph.pendants
        for size in (1, 2):
            families_match_oracle(net, size)

    def test_path_becomes_last_by_passing_an_inner_boundary_vertex(self):
        # the path 1-5-2-6-7-8-4 passes inner boundary vertex 2, reaching
        # cap 2 there; from 7 it must take 8, its one uncovered neighbor,
        # not end at 3. With edge 4-7 that path has a chord, and no other
        # family covers 5..8 at cap 2
        pairs = [(1, 5), (2, 5), (2, 6), (6, 7), (3, 7), (7, 8), (4, 8)]
        net = Network(4, 4, tuple(Edge(i, u, v, 1.0) for i, (u, v) in enumerate(pairs, start=1)))
        assert families_match_oracle(net, 1) == {}
        assert families_match_oracle(net, 2) == {(0b110, 0b10100): ((1, 5, 2, 6, 7, 8, 4),)}
        families_match_oracle(net, 3)
        chord = Network(4, 4, net.edges + (Edge(8, 4, 7, 1.0),))
        assert families_match_oracle(chord, 2) == {}

    def test_lattice_family_counts(self, lattice_ones):
        families = families_match_oracle(lattice_ones, 2)
        # 1-9-12-6 and 2-10-11-5 are the one family of (1,2;5,6); the
        # two systems of (1;5) each leave an interior vertex out
        assert families[(0b110, 0b1100000)] == ((1, 9, 12, 6), (2, 10, 11, 5))
        assert (0b10, 0b100000) not in families

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
        # the walk meets 1-3-2 first, which leaves interior 4 out, and
        # the later 1-3-4-2 makes the system not unique
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


def sole_system_verdicts(net, max_size):
    """The numbers of one-family cores with |P| <= max_size and of those
    kept, after checking that sole_system keeps each exactly when the
    second-system search finds its family to be its only system."""
    graph = paths._SearchGraph(net)
    families = {core: f for core, f in covering_families(net, max_size).items() if f is not None}
    kept = 0
    for (p_mask, q_mask), family in families.items():
        sole = graph.sole_system(p_mask, q_mask, family)
        pair = BoundaryPair(paths._vertices(p_mask), paths._vertices(q_mask))
        assert sole is (second_system_search(net, pair) is not None)
        kept += sole
    return len(families), kept


def two_paths_network(*extra):
    """The family 1-5-3, 2-6-4 of the core (1,2;3,4), plus the edges
    `extra`, every conductivity 1."""
    pairs = [(1, 5), (3, 5), (2, 6), (4, 6), *extra]
    return Network(4, 2, tuple(Edge(i, u, v, 1.0) for i, (u, v) in enumerate(pairs, start=1)))


def long_path_network(*extra):
    """The family 1-5-6-7-3, 2-8-9-4 of the core (1,2;3,4), plus the edges
    `extra`, every conductivity 1."""
    pairs = [(1, 5), (5, 6), (6, 7), (3, 7), (2, 8), (8, 9), (4, 9), *extra]
    return Network(4, 5, tuple(Edge(i, u, v, 1.0) for i, (u, v) in enumerate(pairs, start=1)))


class TestSoleSystem:
    """sole_system agrees with the second-system search on every core it
    is asked about: those with one chordless covering family."""

    def test_lattice(self, lattice_ones):
        assert sole_system_verdicts(lattice_ones, 8) == (136, 136)

    @pytest.mark.parametrize("size, verdicts", [(3, (928, 352)), (4, (2336, 1248))])
    def test_grid(self, grid3, size, verdicts):
        assert sole_system_verdicts(grid3, size) == verdicts

    @pytest.mark.parametrize(
        "edge_prob, verdicts", [(0.3, (3000, 2156)), (0.5, (6634, 3595)), (0.7, (6432, 2803))]
    )
    def test_random_networks(self, edge_prob, verdicts):
        totals = [0, 0]
        for seed in range(300):
            net = random_network((3, 7), (0, 5), edge_prob, seed)
            for i, n in enumerate(sole_system_verdicts(net, net.n_boundary)):
                totals[i] += n
        assert tuple(totals) == verdicts

    def test_reroute_back_through_a_used_sink(self):
        # 1-4, 2-6-3 is a second system that leaves 5 out; without path
        # 1-5-3 and vertex 5, the only augmenting path 1-4-6-3 enters the
        # used sink 4 and runs back along 2-6-4 to 6
        net = two_paths_network((1, 4), (3, 6))
        assert families_match_oracle(net, 2)[(0b110, 0b11000)] == ((1, 5, 3), (2, 6, 4))
        assert sole_system_verdicts(net, 2) == (3, 2)
        assert scan_rows(net, 2) == oracle_rows(net, 2)

    def test_reroute_back_through_a_source(self):
        # 1-6-4, 2-3 is a second system that leaves 5 out; without path
        # 1-5-3 and vertex 5, the only augmenting path 1-6-2-3 enters 6,
        # runs back along 2-6-4 to its source 2 and leaves it for sink 3
        net = two_paths_network((1, 6), (2, 3))
        assert families_match_oracle(net, 2)[(0b110, 0b11000)] == ((1, 5, 3), (2, 6, 4))
        assert sole_system_verdicts(net, 2) == (3, 2)
        assert scan_rows(net, 2) == oracle_rows(net, 2)

    @pytest.mark.parametrize(
        "extra, skipped, verdicts",
        [
            # 1-9-4, 2-8-6-7-3 skips only 5: the launch from 1 enters 9,
            # runs back along 2-8-9 to 8 and touches 6, two steps ahead
            (((1, 9), (6, 8)), (5,), (2, 1)),
            # 1-5-6-9-4, 2-8-3 skips only 7: only the last launch, from 6,
            # enters 9, runs back to 8 and touches the sink 3
            (((6, 9), (3, 8)), (7,), (2, 1)),
        ],
    )
    def test_second_system_skips_one_end_of_a_long_path(self, extra, skipped, verdicts):
        net = long_path_network(*extra)
        core = (0b110, 0b11000)
        family = families_match_oracle(net, 2)[core]
        assert family == ((1, 5, 6, 7, 3), (2, 8, 9, 4))
        residuals = [s.residual for s in enumerate_path_systems(net, BoundaryPair((1, 2), (3, 4)))]
        assert sorted(residuals) == [(), skipped]
        assert second_system_search(net, BoundaryPair((1, 2), (3, 4))) is None
        graph = paths._SearchGraph(net)
        assert graph.sole_system(*core, family) is False
        # (1,4;2,3), the same family with 2-8-9-4 run the other way, has
        # no second system
        assert sole_system_verdicts(net, 2) == verdicts
        assert scan_rows(net, 2) == oracle_rows(net, 2)

    @pytest.mark.parametrize(
        "rungs, same, opposite, kept, rejected",
        [
            # 5-9 and 7-8 cross when both paths run from their lower ends:
            # 1-5-9-4, 2-8-7-3 is a second system that leaves 6 out
            (((5, 9), (7, 8)), [((1, 5, 9, 4), (2, 8, 7, 3))], [], (0b10010, 0b1100), (0b110, 0b11000)),
            # 5-8 and 7-9 cross when 2-8-9-4 runs from 4: 1-5-8-2,
            # 4-9-7-3 is a second system that leaves 6 out
            (((5, 8), (7, 9)), [], [((1, 5, 8, 2), (4, 9, 7, 3))], (0b110, 0b11000), (0b10010, 0b1100)),
        ],
    )
    def test_two_crossing_rungs(self, rungs, same, opposite, kept, rejected):
        # `same` and `opposite` are the systems other than the family of
        # its cores whose paths run the same way, (1,2;3,4), and opposite
        # ways, (1,4;2,3)
        net = long_path_network(*rungs)
        families = families_match_oracle(net, 2)
        family = families[kept]
        assert family == ((1, 5, 6, 7, 3), (2, 8, 9, 4))
        assert families[rejected] is family
        for pair, others in [(((1, 2), (3, 4)), same), (((1, 4), (2, 3)), opposite)]:
            systems = enumerate_path_systems(net, BoundaryPair(*pair))
            assert [s.paths for s in systems[1:]] == others
        graph = paths._SearchGraph(net)
        assert graph.sole_system(*kept, family) is True
        assert graph.sole_system(*rejected, family) is False
        assert sole_system_verdicts(net, 2) == (2, 1)
        assert scan_rows(net, 2) == oracle_rows(net, 2)

    def test_triangle_of_rungs_goes_to_the_search(self):
        # paths 1-7-4, 2-8-5 and 3-9-6, each pair joined by one rung
        pairs = [(1, 7), (4, 7), (2, 8), (5, 8), (3, 9), (6, 9), (7, 8), (8, 9), (7, 9)]
        net = Network(6, 3, tuple(Edge(i, u, v, 1.0) for i, (u, v) in enumerate(pairs, start=1)))
        family = families_match_oracle(net, 3)[(0b1110, 0b1110000)]
        assert family == ((1, 7, 4), (2, 8, 5), (3, 9, 6))
        # the 24 cores of one- and two-path families and the four ways to
        # run this family from path 1's lower end: each is its only system
        assert sole_system_verdicts(net, 3) == (28, 28)
        assert scan_rows(net, 3) == oracle_rows(net, 3)

    def test_one_path_is_kept(self):
        net = Network(2, 2, (Edge(1, 1, 3, 1.0), Edge(2, 3, 4, 1.0), Edge(3, 2, 4, 1.0)))
        family = families_match_oracle(net, 1)[(0b10, 0b100)]
        assert family == ((1, 3, 4, 2),)
        assert paths._SearchGraph(net).sole_system(0b10, 0b100, family) is True
        assert sole_system_verdicts(net, 1) == (1, 1)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_order_key_orders_subsets_as_tuples(data):
    # among subsets of 1..n of one size, a larger key is exactly a
    # lexicographically smaller ascending tuple
    n = data.draw(st.integers(1, 40))
    size = data.draw(st.integers(0, n))
    subsets = st.lists(st.integers(1, n), min_size=size, max_size=size, unique=True).map(sorted)
    a, b = tuple(data.draw(subsets)), tuple(data.draw(subsets))
    key_a, key_b = (paths._order_key(paths._mask(s), n) for s in (a, b))
    assert (key_a > key_b, key_a == key_b) == (a < b, a == b)


def rows_match_reference(net, max_size):
    """admissible_rows, after checking that it yields scan_reference's rows,
    in its order, and that each pair passes BoundaryPair's own checks."""
    rows = list(paths.admissible_rows(net, max_size))
    assert rows == scan_reference(net, max_size)
    for row in rows:
        assert BoundaryPair(row.pair.p, row.pair.q) == row.pair
        assert all(type(v) is int for v in row.pair.p + row.pair.q)
        row.pair.validate_for(net.n_boundary)
    return rows


class TestScanReference:
    """The scan's integer keys and rows built at yield give the rows that
    plain tuple sorting gives: same order, pairs, signs and edge ids."""

    def test_lattice(self, lattice_ones):
        rows = rows_match_reference(lattice_ones, 8)
        assert len(rows) == 1288
        # the plan stops at full rank, 46 rows into the size-3 candidates
        assert compile_topology(lattice_ones).rows == tuple(rows[:110])

    @pytest.mark.parametrize("n, size, n_rows", [(3, 3, 352), (3, 4, 3360), (4, 4, 1792)])
    def test_grid(self, n, size, n_rows):
        net = grid_fixture(n, [1.0] * (2 * n * (n + 1)))
        assert len(rows_match_reference(net, size)) == n_rows

    def test_random_networks(self):
        for seed in range(300):
            net = random_network(seed=seed)
            for size in (1, 2, 3):
                rows_match_reference(net, size)


def star_network(k):
    """k pendant boundary vertices hung on interior vertex k + 1: one twin
    class of k."""
    return Network(k, 1, tuple(Edge(i, i, k + 1, 1.0) for i in range(1, k + 1)))


def network_of(n_boundary, n_interior, pairs):
    return Network(
        n_boundary, n_interior, tuple(Edge(i, u, v, 1.0) for i, (u, v) in enumerate(pairs, start=1))
    )


#: Two twin classes of three on adjacent interior vertices, their labels
#: interleaved: 1, 3, 5 hang on 7 and 2, 4, 6 on 8.
TWO_CLASSES = network_of(6, 2, [(1, 7), (3, 7), (5, 7), (2, 8), (4, 8), (6, 8), (7, 8)])

#: Pendants 2, 3, 4 hung on boundary vertex 1, which a path passes or ends
#: at; 1, 6 and 5 join the interior path 7-8.
BOUNDARY_HUB = network_of(6, 2, [(2, 1), (3, 1), (4, 1), (1, 7), (7, 8), (5, 8), (1, 8), (6, 7)])


def twins(net):
    """The first two pendant boundary vertices hung on one vertex, or None."""
    adj, hung = net.adjacency(), {}
    for b in range(1, net.n_boundary + 1):
        if len(adj[b]) == 1:
            hung.setdefault(adj[b][0], []).append(b)
    return next((pair[:2] for pair in hung.values() if len(pair) > 1), None)


TWIN_NETWORKS = [star_network(4), star_network(5), TWO_CLASSES, BOUNDARY_HUB] + [
    net for net in map(pendant_network, range(100)) if twins(net)
][:6]


def mapped_families(families, perm):
    """A covering_families dict with every vertex v renamed perm[v]: each
    core keyed with its lowest endpoint in P, each family's paths run from
    their lower end and ordered by it."""
    out = {}
    for (p_mask, q_mask), family in families.items():
        p, q = (paths._mask(perm[v] for v in paths._vertices(m)) for m in (p_mask, q_mask))
        if family is not None:
            renamed = (tuple(perm[v] for v in path) for path in family)
            family = tuple(sorted(path if path[0] < path[-1] else path[::-1] for path in renamed))
        low = (p ^ q) & -(p ^ q)
        out[(p, q) if p & low else (q, p)] = family
    return out


class TestTwins:
    """Pendant boundary vertices hung on one vertex swap by an automorphism,
    so the walk builds one family per orbit and relabels it; every family,
    core and verdict is still the one the oracle finds."""

    @pytest.mark.parametrize("net", TWIN_NETWORKS)
    def test_every_cap_matches_oracle(self, net):
        for size in range(1, net.n_boundary + 1):
            families_match_oracle(net, size)
            walked_cores_match_families(net, size)
            sole_system_verdicts(net, size)
            assert scan_rows(net, size) == oracle_rows(net, size)

    @pytest.mark.parametrize("net", TWIN_NETWORKS + [lattice_fixture([1.0] * 12)])
    def test_swapping_twins_maps_the_families(self, net):
        # the network with two twins' labels swapped is the network itself,
        # so its dict is the dict mapped through the swap; so is the dict of
        # a network relabeled at random
        a, b = twins(net)
        swap = list(range(net.n_vertices + 1))
        swap[a], swap[b] = b, a
        edges = tuple(Edge(e.id, swap[e.u], swap[e.v], 1.0) for e in net.edges)
        swapped = Network(net.n_boundary, net.n_interior, edges)
        other, perm = relabeled(net, 3)
        for size in range(1, net.n_boundary + 1):
            families = covering_families(net, size)
            assert covering_families(swapped, size) == mapped_families(families, swap) == families
            assert covering_families(other, size) == mapped_families(families, perm)

    @pytest.mark.parametrize("fixture", ["lattice_ones", "grid3"])
    def test_walked_cores_match_families(self, request, fixture):
        net = request.getfixturevalue(fixture)
        for size in range(1, 6):
            walked_cores_match_families(net, size)

    def test_path_between_two_twins(self):
        # a-v-b is the one path through v between two of its twins: the
        # star's families at |P| <= 1 are its six
        families = families_match_oracle(star_network(4), 1)
        assert sorted(families.values()) == [((a, 5, b),) for a, b in combinations(range(1, 5), 2)]

    @pytest.mark.parametrize(
        "fixture, size, walked, families, sole, rows",
        [
            ("grid3", 3, 30, 288, 106, 352),
            ("grid3", 4, 86, 640, 378, 3360),
            ("lattice_ones", 8, 11, 65, 34, 1288),
        ],
    )
    def test_checks_run_once_per_orbit(
        self, request, monkeypatch, fixture, size, walked, families, sole, rows
    ):
        # the walk builds `walked` families, which relabel into `families`;
        # the scan decides each walked core once, not each of the
        # one-family cores (928 of the grid's at |P| <= 3)
        net = request.getfixturevalue(fixture)
        orbits = covering_orbits(net, size)
        assert (len(orbits), sum(map(len, orbits))) == (walked, families)
        calls = []
        method = paths._SearchGraph.sole_system

        def counted(graph, *args):
            calls.append(args)
            return method(graph, *args)

        monkeypatch.setattr(paths._SearchGraph, "sole_system", counted)
        assert len(all_rows(net, size)) == rows
        assert len(calls) == sole


@pytest.mark.parametrize("walk", ["enumerate_path_systems", "compile_topology"])
def test_walks_leave_no_cyclic_garbage(lattice_ones, walk):
    # each walk's nested functions call each other; once it returns, its
    # data is freed by reference counting, not left for the collector
    pair = BoundaryPair((1,), (5,))
    run = {
        "enumerate_path_systems": lambda: enumerate_path_systems(lattice_ones, pair),
        "compile_topology": lambda: compile_topology(lattice_ones, stop_at_full_rank=False),
    }[walk]
    run()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for _ in range(3):
            run()
        assert len(gc.get_objects()) == before
    finally:
        gc.enable()
