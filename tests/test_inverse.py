import math
import random

import numpy as np
import pytest

import netinv.inverse
import netinv.paths
from netinv import (
    AllRowsDegenerate,
    BoundaryPair,
    DtNMap,
    InconsistentDataWarning,
    RankDeficient,
    RoundTripFailure,
    TooManySystems,
    compile_topology,
    difference_rows,
    dtn,
    dtn_subdet,
    grid_fixture,
    kirchhoff_subdet,
    lattice_fixture,
    rank_topology,
    recover,
)
from netinv.inverse import LogLinearSystem
from netinv.network import Edge, Network, kirchhoff, random_network
from netinv.numerics import RowSpace
from boxes import box_network
from oracle import EchelonRowSpace, in_span, per_row_system
from test_paths import TWIN_NETWORKS, relabeled


# boundary 1, 2 joined through interior 3, 4: the boundary sees only
# the through-conductance, so no map pins the three gammas
SERIES_CHAIN = Network(2, 2, (Edge(1, 1, 3, 1.0), Edge(2, 3, 4, 1.0), Edge(3, 4, 2, 1.0)))

# boundary 1, 2 joined directly and through interior 3: every pair has
# two path systems, so there is no admissible row at all
CHAIN_WITH_BYPASS = Network(2, 1, (Edge(1, 1, 3, 1.0), Edge(2, 3, 2, 1.0), Edge(3, 1, 2, 1.0)))


def lattice_rows(net, max_pair_size=None, stop_at_full_rank=False):
    return compile_topology(net, max_pair_size, stop_at_full_rank).rows


def row_index(sys, p, q):
    """Index of the row of pair p->q in a map's system."""
    return next(i for i, pair in enumerate(sys.provenance) if (pair.p, pair.q) == (p, q))


def two_row_space(lattice12):
    """The exact span of the (1,2;5,6) and (1,2,8;5,6,8) rows of the
    lattice's system."""
    sys = compile_topology(lattice12, 3, stop_at_full_rank=False).system(dtn(lattice12))
    return RowSpace(
        sys.coeffs[row_index(sys, *pair)] for pair in (((1, 2), (5, 6)), ((1, 2, 8), (5, 6, 8)))
    )


class TestEnumerateAdmissiblePairs:
    def test_includes_known_lattice_pairs(self, lattice_ones):
        rows = lattice_rows(lattice_ones, max_pair_size=3)
        pairs = {(r.pair.p, r.pair.q) for r in rows}
        assert ((1, 2), (5, 6)) in pairs
        assert ((1, 2, 8), (5, 6, 8)) in pairs

    def test_single_edge(self, single_edge):
        rows = lattice_rows(single_edge)
        pairs = {(r.pair.p, r.pair.q) for r in rows}
        assert ((1,), (2,)) in pairs
        assert all(r.edge_ids == (1,) for r in rows)

    def test_stop_at_full_rank_reaches_13(self, lattice_ones):
        plan = compile_topology(lattice_ones)
        assert len(plan.rows) == 110
        assert (plan.rank, plan.n_unknowns, plan.full_rank) == (13, 13, True)
        assert plan.unresolved_edges == ()
        assert RowSpace(plan.coeffs).rank == 13
        # an exact map keeps every row
        assert plan.system(dtn(lattice_ones)).coeffs == plan.coeffs

    def test_admissibility_is_gamma_independent(self, lattice_ones):
        rng = random.Random(0)
        reference = {(r.pair.p, r.pair.q, r.edge_ids) for r in lattice_rows(lattice_ones, max_pair_size=3)}
        for _ in range(10):
            gammas = [math.exp(rng.uniform(math.log(0.1), math.log(10))) for _ in range(12)]
            net = lattice_fixture(gammas)
            got = {(r.pair.p, r.pair.q, r.edge_ids) for r in lattice_rows(net, max_pair_size=3)}
            assert got == reference

    def test_symmetric_pairs_deduplicated(self, lattice_ones):
        rows = lattice_rows(lattice_ones, max_pair_size=2)
        pairs = {(r.pair.p, r.pair.q) for r in rows}
        assert not any((q, p) in pairs for p, q in pairs if p != q)


class TestBuildSystem:
    def test_lattice_first_row_coefficients(self, lattice12):
        lam = dtn(lattice12)
        sys = compile_topology(lattice12, 2, stop_at_full_rank=False).system(lam)
        i = row_index(sys, (1, 2), (5, 6))
        assert sys.coeffs[i] == (1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, -1)
        k = kirchhoff(lattice12)
        det_kii = kirchhoff_subdet(k, (9, 10, 11, 12), (9, 10, 11, 12))
        assert sys.rhs[i] == pytest.approx(math.log(720.0) - math.log(det_kii), rel=1e-12)
        assert sys.rhs[i] == pytest.approx(
            math.log(abs(dtn_subdet(lam, sys.provenance[i]))), rel=1e-12
        )

    def test_minors_beyond_float_range(self, lattice12):
        # slogdet reads each minor from its LU factors: scaled by 1e-120
        # the (1,2,8;5,6,8) minor itself underflows to 0, yet no row
        # drops and each rhs shifts by exactly |P| log 1e-120
        plan = compile_topology(lattice12, stop_at_full_rank=False)
        lam = dtn(lattice12)
        tiny = DtNMap(1e-120 * lam.entries)
        pair = BoundaryPair((1, 2, 8), (5, 6, 8))
        assert dtn_subdet(tiny, pair) == 0.0
        sys, tiny_sys = plan.system(lam), plan.system(tiny)
        assert sys.dropped == tiny_sys.dropped == ()
        assert sys.provenance == tiny_sys.provenance and len(sys.coeffs) == len(plan.rows)
        i = row_index(sys, pair.p, pair.q)
        assert plan.rows[i].sign == np.sign(dtn_subdet(lam, pair))
        assert sys.rhs[i] == pytest.approx(math.log(abs(dtn_subdet(lam, pair))), rel=1e-12)
        for row_pair, logabs, tiny_logabs in zip(sys.provenance, sys.rhs, tiny_sys.rhs):
            shifted = logabs + len(row_pair.p) * math.log(1e-120)
            assert tiny_logabs == pytest.approx(shifted, rel=1e-12)

    def test_stacked_read_matches_per_row_reference(self):
        # sparse random topologies over all pair sizes: most plans mix
        # sizes, and many hold pairs that share a pendant boundary vertex
        mixed = shared = 0
        for seed in range(30):
            net = random_network((4, 7), (0, 3), 0.3, seed)
            plan = compile_topology(net, stop_at_full_rank=False)
            mixed += len({len(row.pair.p) for row in plan.rows}) > 1
            shared += any(set(row.pair.p) & set(row.pair.q) for row in plan.rows)
            lam = dtn(net).entries
            for m in (lam, -lam, np.zeros_like(lam)):
                assert plan.system(DtNMap(m)) == per_row_system(plan, DtNMap(m)), seed
        assert mixed >= 10 and shared >= 10

    def test_single_edge_drops_logdet_column(self, single_edge):
        plan = compile_topology(single_edge, stop_at_full_rank=False)
        assert plan.n_unknowns == 1
        sys = plan.system(dtn(single_edge))
        assert len(sys.coeffs) == len(plan.rows) > 0
        assert all(row == (1,) for row in sys.coeffs)

    def test_duplicate_rows_keep_rank(self, lattice12):
        plan = compile_topology(lattice12, 2, stop_at_full_rank=False)
        sys = plan.system(dtn(lattice12))
        distinct = set(sys.coeffs)
        assert len(distinct) < len(sys.coeffs)
        assert RowSpace(sys.coeffs).rank == RowSpace(list(distinct)).rank == plan.rank
        assert RowSpace(sys.coeffs + sys.coeffs).rank == plan.rank

    def test_all_rows_degenerate(self, single_edge):
        # the system keeps no row and raises nothing; apply's rank check
        # is the one place that decides the fault
        plan = compile_topology(single_edge)
        zero_map = DtNMap(np.zeros((2, 2)))
        sys = plan.system(zero_map)
        assert sys.coeffs == sys.rhs == sys.provenance == ()
        assert sys.dropped == ("pair (1,)->(1,): zero determinant",)
        with pytest.raises(AllRowsDegenerate) as exc:
            plan.apply(zero_map)
        assert str(exc.value) == (
            "rows kept by this map have rank 0 of 1: pair (1,)->(1,): zero determinant"
        )

    def test_map_size_checked(self, lattice12, single_edge):
        with pytest.raises(ValueError, match="DtN map is 8x8 but the topology has 2"):
            compile_topology(single_edge).system(dtn(lattice12))


class TestSystemRank:
    def test_empty_system(self, lattice12):
        # no 1x1 lattice minor is log-linear
        plan = compile_topology(lattice12, 1)
        sys = plan.system(dtn(lattice12))
        assert plan.coeffs == sys.coeffs == ()
        assert plan.rank == RowSpace(sys.coeffs).rank == 0

    def test_two_row_subsystem_rank_2(self, lattice12):
        assert two_row_space(lattice12).rank == 2

    def test_full_lattice_rank_13(self, lattice12):
        sys = compile_topology(lattice12).system(dtn(lattice12))
        assert RowSpace(sys.coeffs).rank == 13

    @pytest.mark.parametrize(
        "side, size, n_unresolved",
        [(0, 2, 12), (0, None, 0), (3, 3, 24), (3, 4, 4), (4, 4, 40), (4, 5, 12)],
        ids=["lattice-2", "lattice", "grid3-3", "grid3-4", "grid4-4", "grid4-5"],
    )
    def test_unresolved_edges_match_echelon_reference(self, side, size, n_unresolved):
        # an edge is unresolved when its unit vector leaves the span of
        # the rows, each unit vector reduced against the echelon reference
        net = grid_fixture(side, [1.0] * 2 * side * (side + 1)) if side else lattice_fixture([1.0] * 12)
        plan = compile_topology(net, size, stop_at_full_rank=False)
        reference = EchelonRowSpace(dict.fromkeys(plan.coeffs))
        assert reference.rank == plan.rank
        unit = np.eye(plan.n_unknowns, dtype=int)
        expected = tuple(j + 1 for j in range(net.n_edges) if any(reference.reduce(unit[j])))
        assert plan.unresolved_edges == expected
        assert len(expected) == n_unresolved


class TestSolveSystem:
    def test_single_edge_recovers_gamma(self, single_edge):
        lam = DtNMap(np.array([[5.0, -5.0], [-5.0, 5.0]]))
        report = compile_topology(single_edge).apply(lam)
        assert report.recovered_gammas[0] == pytest.approx(5.0, rel=1e-12)
        assert report.logdet_interior == 0.0
        assert report.residual_norm <= 1e-12

    def test_lattice_exact_data(self, lattice12):
        report = compile_topology(lattice12).apply(dtn(lattice12))
        assert report.residual_norm <= 1e-9
        assert report.recovered_gammas == pytest.approx(list(range(1, 13)), rel=1e-8)
        k = kirchhoff(lattice12)
        det_kii = kirchhoff_subdet(k, (9, 10, 11, 12), (9, 10, 11, 12))
        assert report.logdet_interior == pytest.approx(math.log(det_kii), rel=1e-10)

    def test_rank_deficient_carries_unresolved_edges(self, lattice12):
        # the |P| <= 2 rows reach rank 8 and pin no edge
        plan = compile_topology(lattice12, 2)
        with pytest.raises(RankDeficient) as exc:
            plan.apply(dtn(lattice12))
        assert (exc.value.rank, exc.value.columns) == (8, tuple(range(1, 13)))
        # two rows of rank 2: gamma_7 is pinned by the row difference;
        # the rest are not
        space = two_row_space(lattice12)
        unit = {j: [int(c == j) for c in range(1, 14)] for j in range(7, 13)}
        assert in_span(space, unit[7])
        assert not any(in_span(space, unit[j]) for j in (8, 9, 10, 11, 12))

    @pytest.mark.parametrize("n_edges, columns", [(3, (1, 2, 3)), (0, ())])
    def test_empty_system_is_rank_deficient(self, n_edges, columns):
        net = CHAIN_WITH_BYPASS if n_edges else Network(2, 0, ())
        plan = compile_topology(net, stop_at_full_rank=False)
        assert plan.rows == plan.coeffs == ()
        with pytest.raises(RankDeficient) as exc:
            plan.apply(dtn(net))
        assert exc.value.rank == 0
        assert exc.value.columns == columns

    def test_unresolved_edges_empty_system(self):
        plan = compile_topology(CHAIN_WITH_BYPASS, stop_at_full_rank=False)
        assert plan.coeffs == ()
        assert plan.unresolved_edges == (1, 2, 3)


class TestRecover:
    def test_lattice_1_to_12(self, lattice12):
        report = recover(lattice12, dtn(lattice12))
        assert report.recovered_gammas == pytest.approx(list(range(1, 13)), rel=1e-8)
        assert report.rank == 13
        lam_scale = np.max(np.abs(dtn(lattice12).entries))
        assert report.roundtrip_error <= 1e-8 * lam_scale

    def test_lattice_all_ones(self, lattice_ones):
        report = recover(lattice_ones, dtn(lattice_ones))
        assert report.recovered_gammas == pytest.approx([1.0] * 12, rel=1e-8)

    def test_scaling_invariance(self, lattice12):
        lam = dtn(lattice12)
        # at 1e-120 and 1e120 the minors of size >= 3 leave the float
        # range; log|det| must not pass through them
        for scale in (2.0, 1e-120, 1e120):
            report = recover(lattice12, DtNMap(scale * lam.entries))
            assert report.recovered_gammas == pytest.approx(
                [scale * e for e in range(1, 13)], rel=1e-8
            )

    def test_roundtrip_random_gammas(self):
        rng = random.Random(2024)
        template = lattice_fixture([1.0] * 12)
        for _ in range(20):
            gammas = [math.exp(rng.uniform(math.log(0.1), math.log(10))) for _ in range(12)]
            net = lattice_fixture(gammas)
            report = recover(template, dtn(net))
            rel = max(
                abs(r - g) / g for r, g in zip(report.recovered_gammas, gammas)
            )
            assert rel <= 1e-8

    def test_dimension_mismatch(self, lattice12, single_edge):
        with pytest.raises(ValueError, match="boundary"):
            recover(single_edge, dtn(lattice12))

    def test_inconsistent_map_fails_roundtrip(self, lattice12, other_lattice_map):
        with pytest.raises(RoundTripFailure):
            with pytest.warns(InconsistentDataWarning):
                recover(lattice12, other_lattice_map, stop_at_full_rank=False)

    def test_map_with_nonzero_row_sums_is_bad_input(self, lattice12):
        # Lambda_12 and Lambda_21 raised by half: symmetric still, but no
        # DtN map lies within the round-trip threshold of rows 1 and 2
        lam = dtn(lattice12).entries.copy()
        lam[0, 1] *= 1.5
        lam[1, 0] *= 1.5
        with pytest.warns(InconsistentDataWarning):
            with pytest.raises(ValueError) as exc:
                recover(lattice12, DtNMap(lam))
        assert str(exc.value) == (
            "map row 1 does not sum to zero: |sum_j Lambda[1,j]| = 4.266e-02 "
            "exceeds 8 x 6.860e-06"
        )

    def test_asymmetric_map_is_bad_input(self, lattice12):
        # Lambda_12 alone raised by 1e-3 max|Lambda|: no symmetric matrix,
        # so no DtN map, lies within the round-trip threshold of the map
        lam = dtn(lattice12).entries.copy()
        lam[0, 1] += 1e-3 * np.max(np.abs(lam))
        with pytest.warns(InconsistentDataWarning):
            with pytest.raises(ValueError) as exc:
                recover(lattice12, DtNMap(lam))
        assert str(exc.value) == (
            "map is not symmetric: |Lambda[1,2] - Lambda[2,1]| = 6.860e-03 exceeds 2 x 6.860e-06"
        )

    def test_asymmetry_within_twice_the_threshold_fails_roundtrip(
        self, lattice12, other_lattice_map
    ):
        # another network's map, plus an asymmetry that a symmetric matrix
        # within the threshold could still explain
        lam = other_lattice_map.entries.copy()
        lam[0, 1] += 1.9e-6 * np.max(np.abs(lam))
        with pytest.raises(RoundTripFailure):
            with pytest.warns(InconsistentDataWarning):
                recover(lattice12, DtNMap(lam))

    def test_negated_map_is_a_data_fault(self, lattice12):
        # -Lambda is no DtN map: its odd-size minors contradict the signs
        # the path systems predict, and the even-size rows left reach
        # rank 8 of the 13 the topology's rows reach
        neg = DtNMap(-dtn(lattice12).entries)
        assert compile_topology(lattice12).full_rank
        with pytest.raises(AllRowsDegenerate, match="rank 8 of 13: .*contradicts predicted"):
            recover(lattice12, neg)
        # over all pair sizes the even-size rows alone reach full rank:
        # they recover Lambda's gammas, which fail the round trip to -Lambda
        with pytest.raises(RoundTripFailure):
            recover(lattice12, neg, stop_at_full_rank=False)

    def test_deficient_topology_raises(self, monkeypatch):
        # -Lambda contradicts the chain's one row, but the topology is
        # deficient whatever the map, and that is the one verdict: it is
        # given before any minor is read
        lams = (dtn(SERIES_CHAIN), DtNMap(-dtn(SERIES_CHAIN).entries))

        def no_minor(*args):
            raise AssertionError("a deficient plan evaluated a minor")

        monkeypatch.setattr(netinv.inverse.RecoveryPlan, "system", no_minor)
        for lam in lams:
            with pytest.raises(RankDeficient) as exc:
                recover(SERIES_CHAIN, lam)
            assert (exc.value.rank, exc.value.columns) == (1, (1, 2, 3))


class TestDifferenceRows:
    def _two_row_system(self, lattice12):
        """The lattice's |P| <= 3 system and the indices of its
        (1,2;5,6) and (1,2,8;5,6,8) rows."""
        sys = compile_topology(lattice12, 3, stop_at_full_rank=False).system(dtn(lattice12))
        return sys, row_index(sys, (1, 2), (5, 6)), row_index(sys, (1, 2, 8), (5, 6, 8))

    def test_isolates_gamma_7(self, lattice12):
        sys, i, j = self._two_row_system(lattice12)
        row, rhs = difference_rows(sys, j, i)
        assert row == (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)
        assert rhs == pytest.approx(math.log(7.0), rel=1e-10)

    def test_row_minus_itself_is_zero(self, lattice12):
        sys, i, _ = self._two_row_system(lattice12)
        row, rhs = difference_rows(sys, i, i)
        assert row == (0,) * 13
        assert rhs == 0.0

    def test_difference_of_indicator_rows_always_legal(self, lattice12):
        sys, i, j = self._two_row_system(lattice12)
        # {0,1} - {0,1} stays within {-1,0,1}
        row, _ = difference_rows(sys, i, j)
        assert all(c in (-1, 0, 1) for c in row)

    def test_not_sparse_difference(self):
        sys = LogLinearSystem(((2, 0), (0, 1)), (0.0, 0.0), (None, None))
        with pytest.raises(ValueError, match=r"difference of rows 0 and 1 leaves \{-1,0,1\}: \(2, -1\)"):
            difference_rows(sys, 0, 1)

    @pytest.mark.parametrize(
        "i, j, message",
        [
            # -1 would wrap around to the last row
            (-1, 0, r"^row index -1 is not in 0\.\.1$"),
            (0, 2, r"^row index 2 is not in 0\.\.1$"),
            (1.0, 0, r"^row index 1\.0 is not in 0\.\.1$"),
        ],
    )
    def test_rejects_bad_indices(self, i, j, message):
        sys = LogLinearSystem(((1, 0), (0, 1)), (0.0, 0.0), (None, None))
        with pytest.raises(ValueError, match=message):
            difference_rows(sys, i, j)

    def test_appending_difference_preserves_solution(self, lattice12):
        # a difference row lies in the rows' span, so apply's solution
        # satisfies it as it satisfies the rows themselves
        lam = dtn(lattice12)
        plan = compile_topology(lattice12)
        report = plan.apply(lam)
        x = [math.log(g) for g in report.recovered_gammas] + [report.logdet_interior]
        row, rhs = difference_rows(plan.system(lam), 1, 0)
        assert abs(sum(c * v for c, v in zip(row, x)) - rhs) <= 1e-10


class TestRecoveryPlan:
    def test_apply_equals_recover(self):
        rng = random.Random(5)
        template = lattice_fixture([1.0] * 12)
        plan = compile_topology(template)
        for _ in range(20):
            gammas = [math.exp(rng.uniform(math.log(0.1), math.log(10))) for _ in range(12)]
            lam = dtn(lattice_fixture(gammas))
            assert plan.apply(lam) == recover(template, lam)

    @pytest.mark.parametrize(
        "net, rows, rank, n_unknowns",
        [
            (Network(2, 0, ()), 0, 0, 0),
            (SERIES_CHAIN, 1, 1, 4),
        ],
    )
    def test_deficient_plans(self, net, rows, rank, n_unknowns):
        plan = compile_topology(net)
        assert (len(plan.rows), plan.rank, plan.n_unknowns, plan.full_rank) == (
            rows,
            rank,
            n_unknowns,
            False,
        )
        # neither plan pins any edge
        assert plan.unresolved_edges == tuple(range(1, net.n_edges + 1))

    @pytest.mark.parametrize("cap", [0, -1, 2.5, "3"])
    def test_cap_below_one_or_not_an_integer_raises(self, lattice_ones, cap):
        with pytest.raises(ValueError, match="max_pair_size must be an integer >= 1"):
            compile_topology(lattice_ones, cap)

    def test_caps_that_compile(self, lattice_ones):
        # a numpy integer is a cap, a cap above the boundary size is all
        # of it, and the default compiles a network without boundary
        assert compile_topology(lattice_ones, np.int64(3)) == compile_topology(lattice_ones, 3)
        assert compile_topology(lattice_ones, 99) == compile_topology(lattice_ones)
        assert len(compile_topology(Network(0, 0, ())).rows) == 0

    def test_row_budget_raises(self, lattice_ones, monkeypatch):
        # the full scan stores 1,288 rows, more than this budget; the plan
        # that stops at full rank stores 110 and fits, as does a budget of
        # exactly 1,288
        monkeypatch.setattr(netinv.inverse, "MAX_ROWS", 1287)
        with pytest.raises(TooManySystems, match="^more than 1287 rows for one plan$"):
            compile_topology(lattice_ones, stop_at_full_rank=False)
        assert len(compile_topology(lattice_ones).rows) == 110
        monkeypatch.setattr(netinv.inverse, "MAX_ROWS", 1288)
        assert len(compile_topology(lattice_ones, stop_at_full_rank=False).rows) == 1288

    def test_grid3_negated_map_is_the_topology_fault(self, grid3):
        # at |P| <= 3 every grid3 row has size 3 and -Lambda contradicts
        # each one's sign, but rank 12 of 25 is the topology's verdict
        with pytest.raises(RankDeficient) as exc:
            recover(grid3, DtNMap(-dtn(grid3).entries), max_pair_size=3)
        assert exc.value.rank == 12

    def test_apply_reuses_the_plan_rank(self, lattice12, monkeypatch):
        plan = compile_topology(lattice_fixture([1.0] * 12))
        spaces = []

        class CountedRowSpace(RowSpace):
            def __init__(self, rows=()):
                spaces.append(rows)
                super().__init__(rows)

        monkeypatch.setattr(netinv.inverse, "RowSpace", CountedRowSpace)
        rng = random.Random(11)
        for _ in range(5):
            gammas = [math.exp(rng.uniform(math.log(0.1), math.log(10))) for _ in range(12)]
            plan.apply(dtn(lattice_fixture(gammas)))
        assert spaces == []
        # a map that drops rows has its kept rows ranked
        with pytest.raises(AllRowsDegenerate, match="rank 8 of 13: "):
            plan.apply(DtNMap(-dtn(lattice12).entries))
        assert len(spaces) == 1

    def test_apply_builds_no_coefficient_row(self, monkeypatch):
        # the plan holds its coefficient rows; a map supplies the rhs only
        plan = compile_topology(lattice_fixture([1.0] * 12))

        def no_row(*args):
            raise AssertionError("apply built a coefficient row")

        monkeypatch.setattr(netinv.inverse, "_coefficient_row", no_row)
        rng = random.Random(13)
        for _ in range(5):
            gammas = [math.exp(rng.uniform(math.log(0.1), math.log(10))) for _ in range(12)]
            report = plan.apply(dtn(lattice_fixture(gammas)))
            assert report.recovered_gammas == pytest.approx(gammas, rel=1e-8)


def census_matches_compile(net, caps=None):
    """rank_topology against compile_topology(..., stop_at_full_rank=False)
    at each of `caps`, by default the default cap and every cap from 1 to
    the boundary size: the same row count, rank, unknowns, unresolved
    edges and verdict."""
    for cap in caps or [None, *range(1, net.n_boundary + 1)]:
        cert = rank_topology(net, cap)
        plan = compile_topology(net, cap, stop_at_full_rank=False)
        assert (cert.rows, cert.rank, cert.n_unknowns, cert.unresolved_edges) == (
            len(plan.rows),
            plan.rank,
            plan.n_unknowns,
            plan.unresolved_edges,
        )
        assert cert.full_rank is plan.full_rank


def star(k):
    """k pendant boundary vertices hung on interior vertex k + 1."""
    return Network(k, 1, tuple(Edge(i, i, k + 1, 1.0) for i in range(1, k + 1)))


class TestRankTopology:
    """The census counts and ranks the rows without building them, and
    agrees with the plan that builds them all."""

    @pytest.mark.parametrize(
        "net",
        [
            lattice_fixture([1.0] * 12),
            grid_fixture(3, [1.0] * 24),
            star(2),
            star(3),
            star(4),
            star(5),
            Network(3, 0, ()),
            Network(0, 0, ()),
        ],
        ids=["lattice", "grid3", "star2", "star3", "star4", "star5", "edgeless", "empty"],
    )
    def test_matches_compile(self, net):
        # star(2)'s one family, 1-3-2, has one variant and so no twin
        # difference: rank 1 of 3
        census_matches_compile(net)

    @pytest.mark.parametrize("net", TWIN_NETWORKS[2:])  # the two stars are above
    def test_matches_compile_on_twin_networks(self, net):
        census_matches_compile(net)

    @pytest.mark.parametrize(
        "net, caps",
        [
            (grid_fixture(3, [1.0] * 24), (1, 2, 3, 4)),
            (lattice_fixture([1.0] * 12), (None,)),
            (box_network(1, 1, 2), (None,)),
        ],
        ids=["grid3", "lattice", "box112"],
    )
    def test_relabeling_keeps_the_certificate(self, net, caps):
        # the twin differences depend on which twin is lowest, the
        # certificate does not: a relabeled network has the same rows and
        # rank, and its unresolved edges are the images of the original's
        for seed in range(3):
            other, perm = relabeled(net, seed)
            image = {frozenset(e.pair): e.id for e in other.edges}
            edge_map = {e.id: image[frozenset((perm[e.u], perm[e.v]))] for e in net.edges}
            for cap in caps:
                cert, mapped = rank_topology(net, cap), rank_topology(other, cap)
                assert (mapped.rows, mapped.rank, mapped.n_unknowns) == (
                    cert.rows,
                    cert.rank,
                    cert.n_unknowns,
                )
                assert mapped.unresolved_edges == tuple(sorted(edge_map[e] for e in cert.unresolved_edges))

    @pytest.mark.parametrize(
        "shape, caps", [((1, 1, 2), None), ((1, 2, 2), (1, 2, 3))], ids=["box112", "box122"]
    )
    def test_matches_compile_on_boxes(self, shape, caps):
        # each cell of the 1x1x2 box holds a class of five pendant twins,
        # each of the 1x2x2 box a class of four; its caps above 3 hold
        # too many rows to build
        census_matches_compile(box_network(*shape), caps)

    def test_matches_compile_on_random_networks(self):
        for seed in range(50):
            census_matches_compile(random_network(seed=seed))

    @pytest.mark.parametrize("cap, rows", [(2, 64), (3, 384), (4, 904), (5, 1224), (8, 1288)])
    def test_lattice_row_counts(self, cap, rows):
        # every pendant of the lattice has a twin, so these rows come from
        # 11 walked families at most, each relabeled into its orbit
        assert rank_topology(lattice_fixture([1.0] * 12), cap).rows == rows

    def test_pendants_joined_in_twos(self):
        # 1-2 and 3-4 are isolated edges and 5, 6 hang on the path 7-8:
        # a row shares at most one pendant of each joined two
        pairs = [(1, 2), (3, 4), (5, 7), (7, 8), (6, 8)]
        net = Network(6, 2, tuple(Edge(i, u, v, 1.0) for i, (u, v) in enumerate(pairs, start=1)))
        census_matches_compile(net)
        assert rank_topology(net).rows > 0

    def test_builds_no_row(self, monkeypatch):
        # the census reads the cores; it neither scans rows nor signs them
        def no_row(*args):
            raise AssertionError("rank_topology built a row")

        monkeypatch.setattr(netinv.inverse, "admissible_rows", no_row)
        monkeypatch.setattr(netinv.paths, "_term_sign", no_row)
        cert = rank_topology(grid_fixture(3, [1.0] * 24), 4)
        assert (cert.rows, cert.rank, cert.unresolved_edges) == (3360, 24, (15, 16, 20, 23))

    def test_stops_ranking_at_full_rank(self, monkeypatch):
        # once the rows reach full rank, the later orbits' rows are counted,
        # not ranked: 31 of the 47 rows that could raise the rank (the 11
        # walked families' rows, the 4 differences of the 4 twin classes of
        # two and 32 free-pendant unit rows), the last of them raising it
        # to full
        net = lattice_fixture([1.0] * 12)
        census = list(netinv.paths.core_census(net, net.n_boundary))
        classes = {twins for _, _, reached, _ in census for twins in reached}
        differences = sum(len(twins) - 1 for twins in classes)
        assert (len(census), differences, sum(len(extra) for *_, extra in census)) == (11, 4, 32)
        raised = []
        add = RowSpace.add_sparse

        def counted(space, entries):
            raised.append(add(space, entries))
            return raised[-1]

        monkeypatch.setattr(RowSpace, "add_sparse", counted)
        cert = rank_topology(net)
        assert (cert.rows, cert.rank, cert.full_rank) == (1288, 13, True)
        assert len(raised) == 31
        assert raised[-1] is True

    @pytest.mark.parametrize("cap", [0, -1, 2.5, "3"])
    def test_cap_below_one_or_not_an_integer_raises(self, lattice_ones, cap):
        with pytest.raises(ValueError, match="max_pair_size must be an integer >= 1"):
            rank_topology(lattice_ones, cap)
