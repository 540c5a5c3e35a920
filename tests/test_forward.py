import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from netinv import (
    BoundaryPair,
    DtNMap,
    InteriorNotGrounded,
    dtn,
    dtn_subdet,
    harmonic_extension,
    kirchhoff_subdet,
    lattice_fixture,
)
from netinv.forward import submatrix
from netinv.network import Edge, Network, kirchhoff, random_network
from netinv.paths import enumerate_path_systems
from oracle import perm_det, schur_identity_check


def check_dtn_invariants(lam):
    m = lam.entries
    scale = np.max(np.abs(m))
    assert np.max(np.abs(m - m.T)) <= 1e-12 * scale
    assert np.max(np.abs(m.sum(axis=1))) <= 1e-12 * scale
    off = m - np.diag(np.diag(m))
    assert np.max(off) <= 1e-12 * scale


def check_component_invariants(net):
    """check_dtn_invariants on each connected component's boundary block,
    against that block's own max|Lambda|. A component with one boundary
    vertex b holds only roundoff, |Lambda_bb| <= 1e-12 K_bb, and entries
    between components are exactly 0."""
    m = dtn(net).entries
    k = kirchhoff(net)
    graph = nx.Graph([e.pair for e in net.edges])
    graph.add_nodes_from(range(1, net.n_vertices + 1))
    component = np.zeros(net.n_boundary, dtype=int)
    for i, vertices in enumerate(nx.connected_components(graph)):
        block = [v - 1 for v in sorted(vertices) if v <= net.n_boundary]
        component[block] = i
        if len(block) == 1:
            assert abs(m[block[0], block[0]]) <= 1e-12 * k[block[0], block[0]]
        else:
            check_dtn_invariants(DtNMap(m[np.ix_(block, block)]))
    assert np.all(m[component[:, None] != component] == 0)


def test_dtn_no_interior_is_kirchhoff(single_edge):
    lam = dtn(single_edge)
    assert np.array_equal(lam.entries, [[5, -5], [-5, 5]])


def test_dtn_series_conductance(series_path):
    lam = dtn(series_path)
    assert np.allclose(lam.entries, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


def test_dtn_lattice_invariants(lattice12):
    check_dtn_invariants(dtn(lattice12))


def test_dtn_homogeneous_in_gamma(lattice12):
    lam = dtn(lattice12)
    scaled = dtn(lattice12.with_gammas([3.0 * e.gamma for e in lattice12.edges]))
    assert np.allclose(scaled.entries, 3.0 * lam.entries, rtol=1e-12)


@pytest.mark.parametrize(
    "entries", [np.ones(3), np.ones((2, 3)), [[1.0, np.inf], [0.0, 1.0]], [[np.nan]]]
)
def test_dtn_map_rejects_bad_entries(entries):
    with pytest.raises(ValueError):
        DtNMap(entries)


@pytest.mark.parametrize(
    "entries",
    [
        np.array([[1 + 2j, 0], [0, 1]]),
        [[1 + 2j]],
        np.array([[1.0]], dtype=complex),
        [["2.5"]],
        np.array([[1.0]], dtype=object),
        [[1.0, None]],
    ],
    ids=["complex-array", "complex-list", "complex-zero-imaginary", "text", "object", "none"],
)
def test_dtn_map_rejects_entries_that_are_not_real(entries):
    # a cast to float would drop the imaginary part, parse the text and
    # read None as nan
    with pytest.raises(ValueError, match="DtN map entries must be real numbers, got dtype"):
        DtNMap(entries)


@pytest.mark.parametrize(
    "entries, expected",
    [
        ([[True, False], [False, True]], [[1.0, 0.0], [0.0, 1.0]]),
        (np.array([[2, -1], [-1, 2]], dtype=np.int32), [[2.0, -1.0], [-1.0, 2.0]]),
        (np.array([[3]], dtype=np.uint8), [[3.0]]),
        (np.array([[0.5]], dtype=np.float32), [[0.5]]),
    ],
    ids=["bool", "int32", "uint8", "float32"],
)
def test_dtn_map_reads_real_entries_as_floats(entries, expected):
    lam = DtNMap(entries)
    assert lam.entries.dtype == np.float64
    assert lam.entries.tolist() == expected


@pytest.mark.parametrize("p, q", [((1.9, 2.5), (3, 4)), ((1.0,), (2,)), ("12", (3, 4)), ((1, 2), "34")])
def test_boundary_pair_rejects_non_integral_indices(p, q):
    # int() would truncate 1.9 to 1 and read "12" as (1, 2): a minor the
    # caller did not ask for
    with pytest.raises(ValueError, match="integers"):
        BoundaryPair(p, q)


def test_boundary_pair_accepts_integral_indices():
    pair = BoundaryPair((np.int64(1), np.int32(3)), range(2, 4))
    assert pair == BoundaryPair((1, 3), (2, 3))
    assert all(type(i) is int for i in pair.p + pair.q)


def test_subnormal_conductivities_fail_the_interior_solve():
    # K(I,I) = [[2e-318]] has a Cholesky factor, yet np.linalg.solve
    # returns a non-finite C^-1 B^T
    net = Network(2, 1, (Edge(1, 1, 3, 1e-318), Edge(2, 3, 2, 1e-318)))
    unsolved = r"^interior solve C\^-1 B\^T is not finite: .* leaves the float range$"
    with pytest.raises(ValueError, match=unsolved):
        dtn(net)
    with pytest.raises(ValueError, match=unsolved):
        harmonic_extension(net, [1.0, 0.0])


def test_numerically_singular_interior_block():
    # grounded through edge 1-2, but K(I,I) = [[1 + 1e-17, -1], [-1, 1]]
    # rounds to a singular matrix: 1 + 1e-17 == 1 in floating point
    net = Network(1, 2, (Edge(1, 1, 2, 1e-17), Edge(2, 2, 3, 1.0)))
    singular = r"^interior block K\(I,I\) is numerically singular .*float precision$"
    with pytest.raises(InteriorNotGrounded, match=singular):
        dtn(net)
    with pytest.raises(InteriorNotGrounded, match=singular):
        harmonic_extension(net, [1.0])


@pytest.mark.parametrize(
    "u_boundary, message",
    [
        ([np.nan] + [0.0] * 7, r"^boundary potential 1 is not finite: nan$"),
        ([0.0] * 3 + [-np.inf] + [0.0] * 4, r"^boundary potential 4 is not finite: -inf$"),
        ([0.0] * 7, r"^expected 8 boundary values, got \(7,\)$"),
    ],
)
def test_harmonic_extension_rejects_bad_potentials(lattice12, u_boundary, message):
    with pytest.raises(ValueError, match=message):
        harmonic_extension(lattice12, u_boundary)


def test_harmonic_extension_constant(lattice12):
    u = harmonic_extension(lattice12, np.full(8, 2.5))
    assert np.allclose(u, 2.5, atol=1e-12)


def test_harmonic_extension_series_midpoint(series_path):
    u = harmonic_extension(series_path, [0.0, 1.0])
    assert u[2] == pytest.approx(0.5)


def test_harmonic_extension_is_harmonic(lattice12):
    rng = np.random.default_rng(0)
    u_b = rng.normal(size=8)
    u = harmonic_extension(lattice12, u_b)
    gamma_max = max(e.gamma for e in lattice12.edges)
    tol = 1e-10 * np.linalg.norm(u) * gamma_max
    adj = lattice12.adjacency()
    gamma = {e.pair: e.gamma for e in lattice12.edges}
    for i in lattice12.interior_vertices:
        flux = sum(
            gamma[(min(i, j), max(i, j))] * (u[i - 1] - u[j - 1])
            for j in adj[i]
        )
        assert abs(flux) <= tol


def test_harmonic_extension_boundary_current_matches_dtn(lattice12):
    k = kirchhoff(lattice12)
    lam = dtn(lattice12)
    u_b = np.eye(8)[0]
    u = harmonic_extension(lattice12, u_b)
    current = (k @ u)[:8]
    assert np.allclose(current, lam.entries[:, 0], atol=1e-10)


def test_harmonic_all_ones_zero_current(lattice12):
    lam = dtn(lattice12)
    assert np.max(np.abs(lam.entries @ np.ones(8))) <= 1e-12 * np.max(np.abs(lam.entries))


def test_dtn_subdet_singleton(lattice12):
    lam = dtn(lattice12)
    assert dtn_subdet(lam, BoundaryPair((3,), (3,))) == pytest.approx(lam.entries[2, 2])


@pytest.mark.parametrize(
    "p, q, expected",
    [
        ((1, 2), (5, 6), -720.0),
        ((1, 2, 8), (5, 6, 8), -5040.0),
        ((1,), (5,), -9672.0),
    ],
)
def test_lattice_subdeterminant_identities(lattice12, p, q, expected):
    lam = dtn(lattice12)
    k = kirchhoff(lattice12)
    interior = lattice12.interior_vertices
    product = dtn_subdet(lam, BoundaryPair(p, q)) * kirchhoff_subdet(k, interior, interior)
    assert product == pytest.approx(expected, rel=1e-10)


def test_kirchhoff_subdet_interior_block(lattice_ones):
    k = kirchhoff(lattice_ones)
    interior = lattice_ones.interior_vertices
    got = kirchhoff_subdet(k, interior, interior)
    ref = perm_det(k[8:, 8:])
    assert got == pytest.approx(ref, rel=1e-12)
    assert got == pytest.approx(192.0)


def test_kirchhoff_subdet_single_diagonal(lattice12):
    # det K(10,10) = g8 + g4 + g9 + g5
    k = kirchhoff(lattice12)
    assert kirchhoff_subdet(k, (10,), (10,)) == pytest.approx(8 + 4 + 9 + 5)


def test_kirchhoff_subdet_empty(lattice12):
    k = kirchhoff(lattice12)
    assert kirchhoff_subdet(k, (), ()) == 1.0
    # np.ix_ shapes an empty index set; a set is taken ascending
    assert submatrix(k, (), (1, 2, 3)).shape == (0, 3)
    assert submatrix(k, (1, 2, 3), ()).shape == (3, 0)
    assert np.array_equal(submatrix(k, {10, 2}, {12, 9}), k[np.ix_([1, 9], [8, 11])])
    assert kirchhoff_subdet(k, {10, 9}, {9, 10}) == kirchhoff_subdet(k, (9, 10), (9, 10))
    with pytest.raises(ValueError, match=r"^\|rows\| = 1 != \|cols\| = 0$"):
        kirchhoff_subdet(k, (1,), ())


@pytest.mark.parametrize(
    "rows, cols, message",
    [
        # 0 would become index -1 and read vertex 12's diagonal
        ((0,), (0,), r"^row index 0 is not in 1\.\.12$"),
        ((13,), (13,), r"^row index 13 is not in 1\.\.12$"),
        ((1, 2), (3, -1), r"^column index -1 is not in 1\.\.12$"),
        ((1.5,), (2,), r"^row index 1\.5 is not in 1\.\.12$"),
        # a repeated index would give the determinant of a singular matrix
        ((1, 1), (2, 3), r"^row index 1 is repeated$"),
        ((2, 3), (4, 4), r"^column index 4 is repeated$"),
    ],
)
def test_kirchhoff_subdet_rejects_bad_indices(lattice12, rows, cols, message):
    with pytest.raises(ValueError, match=message):
        kirchhoff_subdet(kirchhoff(lattice12), rows, cols)


def test_schur_identity_lattice(lattice12):
    assert schur_identity_check(lattice12, BoundaryPair((1, 2), (5, 6))) <= 1e-10


def test_schur_identity_single_edge(single_edge):
    assert schur_identity_check(single_edge, BoundaryPair((1,), (2,))) == 0.0


@given(st.integers(0, 10_000), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
@example(252, random.Random(0))  # each boundary vertex alone; Lambda_33 is roundoff
def test_schur_identity_random(seed, rnd):
    net = random_network(seed=seed)
    check_component_invariants(net)
    size = rnd.randint(1, min(3, net.n_boundary))
    p = tuple(sorted(rnd.sample(range(1, net.n_boundary + 1), size)))
    q = tuple(sorted(rnd.sample(range(1, net.n_boundary + 1), size)))
    pair = BoundaryPair(p, q)
    # the relative check is only meaningful when the reference
    # determinant is not a structural zero
    assume(len(enumerate_path_systems(net, pair)) > 0 or p == q)
    assert schur_identity_check(net, pair) <= 1e-9
