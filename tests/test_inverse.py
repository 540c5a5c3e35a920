import math
import random

import numpy as np
import pytest

import netinv.inverse
from netinv import (
    AllRowsDegenerate,
    BoundaryPair,
    DtNMap,
    NotSparseDifference,
    RankDeficient,
    RoundTripFailure,
    build_system,
    compile_topology,
    difference_rows,
    dtn,
    dtn_subdet,
    kirchhoff_subdet,
    lattice_fixture,
    recover,
    solve_system,
)
from netinv.inverse import LogLinearSystem, unresolved_edges
from netinv.network import Edge, Network, kirchhoff
from netinv.numerics import RowSpace, integer_rank


# boundary 1, 2 joined through interior 3, 4: the boundary sees only
# the through-conductance, so no map pins the three gammas
SERIES_CHAIN = Network(2, 2, (Edge(1, 1, 3, 1.0), Edge(2, 3, 4, 1.0), Edge(3, 4, 2, 1.0)))


def lattice_rows(net, max_pair_size=None, stop_at_full_rank=False):
    return compile_topology(net, max_pair_size, stop_at_full_rank).rows


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
        sys = build_system(plan.rows, dtn(lattice_ones), 12, 4)
        assert integer_rank(sys.coeffs) == 13

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
        rows = [
            r
            for r in lattice_rows(lattice12, max_pair_size=2)
            if (r.pair.p, r.pair.q) == ((1, 2), (5, 6))
        ]
        sys = build_system(rows, lam, 12, 4)
        assert sys.coeffs[0] == (1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, -1)
        k = kirchhoff(lattice12)
        det_kii = kirchhoff_subdet(k, (9, 10, 11, 12), (9, 10, 11, 12))
        assert sys.rhs[0] == pytest.approx(math.log(720.0) - math.log(det_kii), rel=1e-12)
        assert sys.rhs[0] == pytest.approx(
            math.log(abs(dtn_subdet(lam, rows[0].pair))), rel=1e-12
        )

    def test_single_edge_drops_logdet_column(self, single_edge):
        lam = dtn(single_edge)
        rows = lattice_rows(single_edge)
        sys = build_system(rows, lam, 1, 0)
        assert not sys.has_logdet_column
        assert sys.n_unknowns == 1
        assert all(row == (1,) for row in sys.coeffs)

    def test_duplicate_rows_keep_rank(self, lattice12):
        lam = dtn(lattice12)
        rows = lattice_rows(lattice12, max_pair_size=2)
        sys = build_system(rows, lam, 12, 4)
        doubled = build_system(rows + rows, lam, 12, 4)
        assert doubled.n_rows == 2 * sys.n_rows
        assert integer_rank(doubled.coeffs) == integer_rank(sys.coeffs)

    def test_all_rows_degenerate(self, single_edge):
        rows = lattice_rows(single_edge)
        zero_map = DtNMap(np.zeros((2, 2)))
        with pytest.raises(AllRowsDegenerate):
            build_system(rows, zero_map, 1, 0)


class TestSystemRank:
    def test_empty_system(self):
        sys = LogLinearSystem((), (), (), 12, True)
        assert integer_rank(sys.coeffs) == 0

    def test_two_row_subsystem_rank_2(self, lattice12):
        lam = dtn(lattice12)
        rows = [
            r
            for r in lattice_rows(lattice12, max_pair_size=3)
            if (r.pair.p, r.pair.q) in {((1, 2), (5, 6)), ((1, 2, 8), (5, 6, 8))}
        ]
        sys = build_system(rows, lam, 12, 4)
        assert integer_rank(sys.coeffs) == 2

    def test_full_lattice_rank_13(self, lattice12):
        lam = dtn(lattice12)
        rows = lattice_rows(lattice12, stop_at_full_rank=True)
        sys = build_system(rows, lam, 12, 4)
        assert integer_rank(sys.coeffs) == 13


class TestSolveSystem:
    def test_single_edge_recovers_gamma(self, single_edge):
        lam = DtNMap(np.array([[5.0, -5.0], [-5.0, 5.0]]))
        sys = build_system(lattice_rows(single_edge), lam, 1, 0)
        loggammas, logdet, residual = solve_system(sys)
        assert math.exp(loggammas[0]) == pytest.approx(5.0, rel=1e-12)
        assert logdet == 0.0
        assert residual <= 1e-12

    def test_lattice_exact_data(self, lattice12):
        lam = dtn(lattice12)
        sys = build_system(lattice_rows(lattice12, stop_at_full_rank=True), lam, 12, 4)
        loggammas, logdet, residual = solve_system(sys)
        assert residual <= 1e-9
        recovered = [math.exp(g) for g in loggammas]
        assert recovered == pytest.approx(list(range(1, 13)), rel=1e-8)
        k = kirchhoff(lattice12)
        det_kii = kirchhoff_subdet(k, (9, 10, 11, 12), (9, 10, 11, 12))
        assert logdet == pytest.approx(math.log(det_kii), rel=1e-10)

    def test_rank_deficient_carries_unresolved_edges(self, lattice12):
        lam = dtn(lattice12)
        rows = [
            r
            for r in lattice_rows(lattice12, max_pair_size=3)
            if (r.pair.p, r.pair.q) in {((1, 2), (5, 6)), ((1, 2, 8), (5, 6, 8))}
        ]
        sys = build_system(rows, lam, 12, 4)
        with pytest.raises(RankDeficient) as exc:
            solve_system(sys)
        assert exc.value.rank == 2
        # gamma_7 is pinned by the row difference; the rest are not
        assert 7 not in exc.value.columns
        assert set(exc.value.columns) >= {8, 9, 10, 11, 12}

    @pytest.mark.parametrize("n_edges, columns", [(3, (1, 2, 3)), (0, ())])
    def test_empty_system_is_rank_deficient(self, n_edges, columns):
        with pytest.raises(RankDeficient) as exc:
            solve_system(LogLinearSystem((), (), (), n_edges, False))
        assert exc.value.rank == 0
        assert exc.value.columns == columns

    def test_unresolved_edges_empty_system(self):
        sys = LogLinearSystem((), (), (), 3, False)
        assert unresolved_edges(sys) == (1, 2, 3)


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

    def test_inconsistent_map_fails_roundtrip(self, lattice12):
        lam = dtn(lattice12).entries.copy()
        lam[0, 1] *= 1.5
        lam[1, 0] *= 1.5
        with pytest.raises(RoundTripFailure):
            with pytest.warns():
                recover(lattice12, DtNMap(lam), stop_at_full_rank=False)

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

        monkeypatch.setattr(netinv.inverse, "dtn_slogdet", no_minor)
        for lam in lams:
            with pytest.raises(RankDeficient) as exc:
                recover(SERIES_CHAIN, lam)
            assert (exc.value.rank, exc.value.columns) == (1, (1, 2, 3))


class TestDifferenceRows:
    def _two_row_system(self, lattice12):
        lam = dtn(lattice12)
        rows = lattice_rows(lattice12, max_pair_size=3)
        wanted = {((1, 2), (5, 6)): 0, ((1, 2, 8), (5, 6, 8)): 1}
        ordered = [None, None]
        for r in rows:
            key = (r.pair.p, r.pair.q)
            if key in wanted:
                ordered[wanted[key]] = r
        return build_system(ordered, lam, 12, 4)

    def test_isolates_gamma_7(self, lattice12):
        sys = self._two_row_system(lattice12)
        row, rhs = difference_rows(sys, 1, 0)
        assert row == (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)
        assert rhs == pytest.approx(math.log(7.0), rel=1e-10)

    def test_row_minus_itself_is_zero(self, lattice12):
        sys = self._two_row_system(lattice12)
        row, rhs = difference_rows(sys, 0, 0)
        assert row == (0,) * 13
        assert rhs == 0.0

    def test_difference_of_indicator_rows_always_legal(self, lattice12):
        sys = self._two_row_system(lattice12)
        # {0,1} - {0,1} stays within {-1,0,1}
        row, _ = difference_rows(sys, 0, 1)
        assert all(c in (-1, 0, 1) for c in row)

    def test_not_sparse_difference(self):
        sys = LogLinearSystem(((2, 0), (0, 1)), (0.0, 0.0), (None, None), 2, False)
        with pytest.raises(NotSparseDifference):
            difference_rows(sys, 0, 1)

    def test_appending_difference_preserves_solution(self, lattice12):
        lam = dtn(lattice12)
        rows = lattice_rows(lattice12, stop_at_full_rank=True)
        sys = build_system(rows, lam, 12, 4)
        base, base_logdet, _ = solve_system(sys)
        row, rhs = difference_rows(sys, 1, 0)
        extended = LogLinearSystem(
            sys.coeffs + (row,),
            sys.rhs + (rhs,),
            sys.provenance + (sys.provenance[0],),
            sys.n_edges,
            sys.has_logdet_column,
        )
        ext, ext_logdet, _ = solve_system(extended)
        assert np.max(np.abs(ext - base)) <= 1e-10
        assert abs(ext_logdet - base_logdet) <= 1e-10


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
