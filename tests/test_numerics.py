import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netinv import (
    BoundaryPair,
    DtNMap,
    InconsistentDataWarning,
    NotPositiveDefinite,
    RankDeficient,
    RoundTripFailure,
    compile_topology,
    dtn,
    dtn_subdet,
    lattice_fixture,
)
from netinv.network import Edge, Network, kirchhoff
from netinv.numerics import (
    RowSpace,
    format_matrix_text,
    integer_rank,
    parse_matrix_text,
    solve_spd,
)
from oracle import perm_det


def full_det(m) -> float:
    """det M through the package's determinant path: the DtN minor on
    all rows and columns."""
    lam = DtNMap(m)
    everything = range(1, lam.n_boundary + 1)
    return dtn_subdet(lam, BoundaryPair(everything, everything))


class TestLuDet:
    """The dense determinant the package evaluates minors with."""

    def test_rank_one_laplacian_is_zero(self):
        assert full_det([[3, -3], [-3, 3]]) == 0.0

    def test_identity(self):
        assert full_det(np.eye(4)) == 1.0

    def test_empty_matrix(self):
        assert full_det(np.zeros((0, 0))) == 1.0

    def test_interior_block_matches_permutation_oracle(self, lattice_ones):
        c = kirchhoff(lattice_ones)[8:, 8:]
        ref = perm_det(c)
        assert full_det(c) == pytest.approx(ref, rel=1e-12)

    @given(st.integers(0, 10_000), st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_matches_permutation_oracle_random(self, seed, n):
        rng = random.Random(seed)
        m = [[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)]
        ref = perm_det(m)
        got = full_det(m)
        assert abs(got - ref) <= 1e-10 * max(abs(ref), 1.0)


class TestSolveSpd:
    def test_scaled_identity(self):
        x = solve_spd(2 * np.eye(3), np.eye(3))
        assert np.allclose(x, 0.5 * np.eye(3), rtol=0, atol=1e-15)

    def test_lattice_interior_solve_residual(self, lattice_ones):
        k = kirchhoff(lattice_ones)
        c, bt = k[8:, 8:], k[:8, 8:].T
        x = solve_spd(c, bt)
        resid = np.max(np.abs(c @ x - bt))
        bound = 1e-10 * (np.max(np.abs(c)) * np.max(np.abs(x)) + np.max(np.abs(bt)))
        assert resid <= bound

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            solve_spd([[1, 2], [2, 1]], [1, 1])

    def test_residual_bound_random_spd(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = rng.integers(1, 7)
            g = rng.normal(size=(n, n))
            m = g @ g.T + 1e-6 * np.eye(n)
            b = rng.normal(size=n)
            x = solve_spd(m, b)
            resid = np.max(np.abs(m @ x - b))
            bound = 1e-10 * (
                np.max(np.abs(m)) * max(np.max(np.abs(x)), 1e-300) + np.max(np.abs(b))
            )
            assert resid <= bound


class TestLstsq:
    """The least-squares solve of the log-linear system."""

    def test_rank_deficient_reports_free_columns(self):
        # boundary 1, 2, 3, interior 4: edges 1-4, 4-2 and 1-3; the rows
        # pin gamma_3 but only the product gamma_1 gamma_2
        net = Network(3, 1, (Edge(1, 1, 4, 1.0), Edge(2, 4, 2, 1.0), Edge(3, 1, 3, 1.0)))
        with pytest.raises(RankDeficient) as exc:
            compile_topology(net).apply(dtn(net))
        assert exc.value.rank == 2
        assert set(exc.value.columns) == {1, 2}  # edge ids, 1-based

    def test_genuinely_overdetermined_residual(self):
        net = lattice_fixture(range(1, 13))
        lam = dtn(net).entries.copy()
        lam[0, 1] *= 1.5
        lam[1, 0] *= 1.5
        with pytest.warns(InconsistentDataWarning, match="not an exact DtN map"):
            with pytest.raises(RoundTripFailure):
                compile_topology(net).apply(DtNMap(lam))


class TestIntegerRank:
    def test_zero_matrix(self):
        assert integer_rank([[0, 0], [0, 0], [0, 0]]) == 0

    def test_identity(self):
        for k in range(1, 6):
            assert integer_rank(np.eye(k, dtype=int).tolist()) == k

    def test_dependent_rows(self):
        assert integer_rank([[1, 1, -1], [1, 1, -1], [0, 1, 0]]) == 2

    @given(
        st.lists(
            st.lists(st.integers(-1, 1), min_size=4, max_size=4),
            min_size=1,
            max_size=6,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_invariances(self, rows, rnd):
        base = integer_rank(rows)
        transpose = [list(col) for col in zip(*rows)]
        assert integer_rank(transpose) == base
        shuffled = rows[:]
        rnd.shuffle(shuffled)
        assert integer_rank(shuffled) == base
        negated = [[-x for x in row] if rnd.random() < 0.5 else row for row in rows]
        assert integer_rank(negated) == base

    def test_matches_numpy_rank_on_random_int_matrices(self):
        def np_rank(a):
            return np.linalg.matrix_rank(a) if len(a) else 0

        rng = np.random.default_rng(3)
        for _ in range(200):
            m = rng.integers(-1, 2, size=(rng.integers(1, 7), rng.integers(1, 7)))
            assert integer_rank(m.tolist()) == np.linalg.matrix_rank(m)
            n = m.shape[1]
            space = RowSpace()
            for i, row in enumerate(m):
                assert space.add(row) == (np_rank(m[: i + 1]) > np_rank(m[:i]))
            # random rows, and combinations of m's rows that lie in the span
            probes = [rng.integers(-1, 2, size=n) for _ in range(4)]
            probes += [rng.integers(-2, 3, size=len(m)) @ m for _ in range(4)]
            for probe in probes:
                in_span = np_rank(np.vstack([m, probe])) == np_rank(m)
                assert (not any(space.reduce(probe))) == in_span
            unit_raises = {
                j + 1
                for j in range(n)
                if np_rank(np.vstack([m, np.eye(n, dtype=int)[j]])) > np_rank(m)
            }
            unit = np.eye(n, dtype=int)
            assert {j + 1 for j in range(n) if any(space.reduce(unit[j]))} == unit_raises


class TestMatrixText:
    def test_roundtrip(self):
        m = np.array([[1 / 3, -2.0], [5.0, 1e-12]])
        back = parse_matrix_text(format_matrix_text(m))
        assert np.array_equal(back, m)

    def test_header(self):
        assert format_matrix_text(np.zeros((2, 3))).splitlines()[0] == "2 3"

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError, match="carries"):
            parse_matrix_text("2 2\n1 2 3\n")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_matrix_text("2 x\n1 2\n")
