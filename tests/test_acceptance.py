"""Acceptance suite: one test per criterion, each printing a pass line
with its measured runtime. Run with `pytest tests/test_acceptance.py -s`
to see the per-criterion report.
"""

import math
import random
import time

import numpy as np
import pytest

from netinv import (
    BoundaryPair,
    DtNMap,
    RankDeficient,
    compile_topology,
    difference_rows,
    dtn,
    dtn_subdet,
    enumerate_path_systems,
    expand_det,
    kirchhoff_subdet,
    lattice_fixture,
)
from netinv.forward import submatrix
from netinv.network import RandomNetSpec, kirchhoff, random_network
from netinv.numerics import integer_rank
from oracle import exhaustive_path_systems, perm_det

INTERIOR = (9, 10, 11, 12)


def report(n, elapsed, detail):
    print(f"criterion {n}: PASS ({elapsed * 1e3:.1f} ms) {detail}")


def lattice12():
    return lattice_fixture(range(1, 13))


def subdet_product(net, p, q):
    lam = dtn(net)
    k = kirchhoff(net)
    return dtn_subdet(lam, BoundaryPair(p, q)) * kirchhoff_subdet(k, INTERIOR, INTERIOR)


def seeded_random_family():
    """The 100-network family shared by criteria 6 and 9."""
    nets = []
    for seed in range(100):
        spec = RandomNetSpec(
            n_boundary=(3, 6), n_interior=(1, 4), gamma_range=(0.1, 10.0), seed=seed
        )
        nets.append(random_network(spec))
    return nets


def random_pairs(net, rng, count=5):
    pairs = []
    for _ in range(count):
        size = rng.randint(1, min(3, net.n_boundary))
        p = tuple(sorted(rng.sample(range(1, net.n_boundary + 1), size)))
        q = tuple(sorted(rng.sample(range(1, net.n_boundary + 1), size)))
        pairs.append(BoundaryPair(p, q))
    return pairs


def test_criterion_1_det_12_56():
    net = lattice12()
    subdet_product(net, (1, 2), (5, 6))  # warm-up outside the timed run
    t0 = time.perf_counter()
    value = subdet_product(net, (1, 2), (5, 6))
    elapsed = time.perf_counter() - t0
    assert value == pytest.approx(-720.0, rel=1e-10)
    assert elapsed < 0.010
    report(1, elapsed, "det L(1,2;5,6) * det K(I,I) = -720")


def test_criterion_2_det_128_568():
    net = lattice12()
    subdet_product(net, (1, 2, 8), (5, 6, 8))
    t0 = time.perf_counter()
    value = subdet_product(net, (1, 2, 8), (5, 6, 8))
    elapsed = time.perf_counter() - t0
    assert value == pytest.approx(-5040.0, rel=1e-10)
    assert elapsed < 0.010
    report(2, elapsed, "det L(1,2,8;5,6,8) * det K(I,I) = -5040")


def test_criterion_3_det_1_5():
    net = lattice12()
    t0 = time.perf_counter()
    value = subdet_product(net, (1,), (5,))
    elapsed = time.perf_counter() - t0
    # two-term expansion with gamma_e = e:
    # g1*g2*g11*g6*(g8+g4+g9+g5) + g1*g8*g5*g6*(g2+g3+g10+g11)
    expected = -(1 * 2 * 11 * 6 * (8 + 4 + 9 + 5) + 1 * 8 * 5 * 6 * (2 + 3 + 10 + 11))
    assert expected == -9672
    assert value == pytest.approx(expected, rel=1e-10)
    report(3, elapsed, "det L(1;5) * det K(I,I) = -9672")


def test_criterion_4_det_15_26():
    # The two expansion monomials are g1*g2*g3*g4*g5*g6 = 720 and
    # g1*g8*g4*g3*g11*g6 = 6336 with opposite signs. Under the
    # ascending row/column ordering used throughout, the exact value of
    # det K({1,5}+I, {2,6}+I) is +5616 = 6336 - 720, certified here by
    # the permutation-expansion oracle on the integer submatrix.
    net = lattice12()
    k = kirchhoff(net)
    sub = submatrix(k, (1, 5) + INTERIOR, (2, 6) + INTERIOR)
    oracle_value = perm_det(sub)
    assert oracle_value == pytest.approx(6336 - 720, rel=1e-12)
    t0 = time.perf_counter()
    value = subdet_product(net, (1, 5), (2, 6))
    elapsed = time.perf_counter() - t0
    assert value == pytest.approx(oracle_value, rel=1e-10)
    report(4, elapsed, "det L(1,5;2,6) * det K(I,I) = 6336 - 720 = 5616")


def test_criterion_5_path_enumeration_fixture():
    net = lattice12()
    enumerate_path_systems(net, BoundaryPair((1,), (5,)))
    t0 = time.perf_counter()
    one = enumerate_path_systems(net, BoundaryPair((1, 2), (5, 6)))
    two = enumerate_path_systems(net, BoundaryPair((1,), (5,)))
    elapsed = time.perf_counter() - t0
    assert [s.paths for s in one] == [((1, 9, 12, 6), (2, 10, 11, 5))]
    assert sorted(s.paths for s in two) == [
        ((1, 9, 10, 11, 5),),
        ((1, 9, 12, 11, 5),),
    ]
    assert elapsed < 0.010
    report(5, elapsed, "1 system for (1,2;5,6), 2 systems for (1;5)")


def test_criterion_6_lgv_master_property():
    t0 = time.perf_counter()
    checked = 0
    for seed, net in enumerate(seeded_random_family()):
        rng = random.Random(10_000 + seed)
        k = kirchhoff(net)
        interior = set(net.interior_vertices)
        for pair in random_pairs(net, rng):
            terms, total, _ = expand_det(net, pair)  # raises on internal mismatch
            ref = kirchhoff_subdet(
                k, sorted(set(pair.p) | interior), sorted(set(pair.q) | interior)
            )
            denom = max(abs(ref), abs(total))
            if denom > 1e-6:
                assert abs(total - ref) <= 1e-9 * denom
            assert set(enumerate_path_systems(net, pair)) == set(
                exhaustive_path_systems(net, pair)
            )
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 500
    assert elapsed < 60.0
    report(6, elapsed, "expansion = determinant and DFS = oracle on 500 pairs")


def test_criterion_7_rank_certification():
    net = lattice_fixture([1.0] * 12)
    t0 = time.perf_counter()
    plan = compile_topology(net, stop_at_full_rank=False)  # max pair size 8
    rows = plan.rows
    coeffs = [
        [1 if eid in r.edge_ids else 0 for eid in range(1, 13)] + [-1] for r in rows
    ]
    rank = integer_rank(coeffs)
    elapsed = time.perf_counter() - t0
    assert rank == plan.rank == 13
    assert elapsed < 10.0
    report(7, elapsed, f"exact rank 13 from {len(rows)} admissible rows")


def test_criterion_8_roundtrip_100_trials():
    rng = random.Random(20_000)
    t0 = time.perf_counter()
    plan = compile_topology(lattice_fixture([1.0] * 12))  # admissibility is gamma-free
    for _ in range(100):
        gammas = [
            math.exp(rng.uniform(math.log(0.1), math.log(10.0))) for _ in range(12)
        ]
        net = lattice_fixture(gammas)
        lam = dtn(net)
        rep = plan.apply(lam)
        rel = max(abs(r - g) / g for r, g in zip(rep.recovered_gammas, gammas))
        assert rel <= 1e-8
        assert rep.roundtrip_error <= 1e-8 * np.max(np.abs(lam.entries))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(8, elapsed, "one plan applied to 100 seeded lattice maps, rel error <= 1e-8")


def test_criterion_9_dtn_invariants():
    t0 = time.perf_counter()
    nets = seeded_random_family()
    rng = random.Random(20_000)
    for _ in range(100):
        gammas = [
            math.exp(rng.uniform(math.log(0.1), math.log(10.0))) for _ in range(12)
        ]
        nets.append(lattice_fixture(gammas))
    for net in nets:
        m = dtn(net).entries
        scale = np.max(np.abs(m))
        assert np.max(np.abs(m - m.T)) <= 1e-12 * scale
        assert np.max(np.abs(m.sum(axis=1))) <= 1e-12 * scale
        assert np.max(m - np.diag(np.diag(m))) <= 1e-12 * scale
    elapsed = time.perf_counter() - t0
    report(9, elapsed, f"symmetry, zero row sums, off-diagonal sign on {len(nets)} maps")


def test_criterion_10_oracle_equivalence():
    rng = random.Random(31)
    t0 = time.perf_counter()
    for _ in range(1000):
        n = rng.randint(1, 7)
        m = [[rng.uniform(-3, 3) for _ in range(n)] for _ in range(n)]
        ref = perm_det(m)
        got = dtn_subdet(DtNMap(m), BoundaryPair(range(1, n + 1), range(1, n + 1)))
        assert abs(got - ref) <= 1e-10 * max(abs(ref), 1.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(10, elapsed, "dtn_subdet = perm_det on 1000 matrices up to 7x7")


def test_criterion_11_difference_row_fixture():
    net = lattice12()
    lam = dtn(net)
    sys = compile_topology(net, max_pair_size=3, stop_at_full_rank=False).system(lam)
    at = {(pair.p, pair.q): i for i, pair in enumerate(sys.provenance)}
    t0 = time.perf_counter()
    row, _ = difference_rows(sys, at[((1, 2, 8), (5, 6, 8))], at[((1, 2), (5, 6))])
    elapsed = time.perf_counter() - t0
    assert row == (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)
    report(11, elapsed, "row difference isolates gamma_7, zero logdet coefficient")
