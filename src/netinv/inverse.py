"""Log-linear inverse solver. compile_topology finds the admissible
boundary pairs, their {1,0,-1} rows in (log gamma_1..log gamma_m,
log det K(I,I)) and the rows' exact rank, all fixed by the topology
alone; the plan's apply takes the rhs log|det Lambda(P,Q)| from a DtN
map, solves and checks the round trip."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    AllRowsDegenerate,
    InconsistentDataWarning,
    NotSparseDifference,
    RankDeficient,
    RoundTripFailure,
)
from .forward import BoundaryPair, DtNMap, dtn, dtn_slogdet
from .network import Network
from .numerics import RowSpace
from .paths import AdmissibleRow, admissible_rows

#: Least-squares residual beyond this multiple of ||rhs|| flags the
#: input as not an exact DtN map of the topology.
INCONSISTENT_RTOL = 1e-6

#: Round-trip acceptance threshold, relative to maxabs of the given map.
ROUNDTRIP_RTOL = 1e-6


@dataclass(frozen=True)
class LogLinearSystem:
    """Integer-coefficient system over (log gamma_1..log gamma_m
    [, log det K(I,I)]) with rhs log|det Lambda(P,Q)|.

    The log-det column is present only when the network has interior
    vertices (det of the empty interior block is 1, so its log is 0 and
    the column is dropped).
    """

    coeffs: tuple[tuple[int, ...], ...]
    rhs: tuple[float, ...]
    provenance: tuple[BoundaryPair, ...]
    n_edges: int
    has_logdet_column: bool
    dropped: tuple[str, ...] = ()

    @property
    def n_unknowns(self) -> int:
        return _n_unknowns(self.n_edges, self.has_logdet_column)

    @property
    def n_rows(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class RecoveryReport:
    recovered_gammas: tuple[float, ...]
    logdet_interior: float
    residual_norm: float
    rank: int
    roundtrip_error: float


def _n_unknowns(n_edges: int, has_logdet: bool) -> int:
    return n_edges + (1 if has_logdet else 0)


def _is_full_rank(n_rows: int, rank: int, n_unknowns: int) -> bool:
    # no rows are never full rank: a network without edges has nothing
    # to recover and no equation to check a map against
    return n_rows > 0 and rank == n_unknowns


def _coefficient_row(row: AdmissibleRow, n_edges: int, has_logdet: bool) -> list[int]:
    coeffs = [0] * n_edges
    for eid in row.edge_ids:
        coeffs[eid - 1] = 1
    return coeffs + [-1] if has_logdet else coeffs


def build_system(
    rows: list[AdmissibleRow], lam: DtNMap, n_edges: int, n_interior: int
) -> LogLinearSystem:
    """Evaluate rhs values log|det Lambda(P,Q)| for admissible rows.

    Rows whose determinant is exactly singular, or whose observed sign
    contradicts the sign predicted by the path system (a near-zero
    determinant flipped by roundoff), are dropped with a warning
    record.
    """
    has_logdet = n_interior > 0
    coeffs: list[tuple[int, ...]] = []
    rhs: list[float] = []
    provenance: list[BoundaryPair] = []
    dropped: list[str] = []
    for row in rows:
        sign, logabs = dtn_slogdet(lam, row.pair)
        if sign == 0:
            dropped.append(f"pair {row.pair.p}->{row.pair.q}: zero determinant")
            continue
        if sign != row.sign:
            dropped.append(
                f"pair {row.pair.p}->{row.pair.q}: sign {'+' if sign > 0 else '-'} "
                f"contradicts predicted {'+' if row.sign > 0 else '-'}"
            )
            continue
        coeffs.append(tuple(_coefficient_row(row, n_edges, has_logdet)))
        rhs.append(logabs)
        provenance.append(row.pair)
    if rows and not coeffs:
        raise AllRowsDegenerate("; ".join(dropped))
    return LogLinearSystem(
        tuple(coeffs), tuple(rhs), tuple(provenance), n_edges, has_logdet, tuple(dropped)
    )


def _unresolved(space: RowSpace, n_edges: int, n_unknowns: int) -> tuple[int, ...]:
    # the row space is the orthogonal complement of the null space, so
    # e_j meets the null space exactly when it leaves the row space
    return tuple(
        j
        for j in range(1, n_edges + 1)
        if any(space.reduce([int(c == j) for c in range(1, n_unknowns + 1)]))
    )


def unresolved_edges(sys: LogLinearSystem) -> tuple[int, ...]:
    """Edge ids whose unit directions meet the coefficient null space:
    exactly the conductivities the system cannot pin down."""
    return _unresolved(RowSpace(sys.coeffs), sys.n_edges, sys.n_unknowns)


def solve_system(sys: LogLinearSystem) -> tuple[np.ndarray, float, float]:
    """Least-squares solve; returns (log gammas, log det K(I,I),
    residual norm). Raises RankDeficient with the unresolved edge ids
    when the exact rank is below the unknown count, or when there are
    no rows at all (a network without edges has no unknowns)."""
    space = RowSpace(sys.coeffs)
    if not _is_full_rank(sys.n_rows, space.rank, sys.n_unknowns):
        raise RankDeficient(space.rank, _unresolved(space, sys.n_edges, sys.n_unknowns))
    return _least_squares(sys)


def _least_squares(sys: LogLinearSystem) -> tuple[np.ndarray, float, float]:
    # the rows are certified full rank by the caller
    a = np.array(sys.coeffs, dtype=float)
    b = np.array(sys.rhs)
    x = np.linalg.lstsq(a, b, rcond=None)[0]
    residual_norm = float(np.linalg.norm(a @ x - b))
    rhs_norm = float(np.linalg.norm(b))
    if residual_norm > INCONSISTENT_RTOL * max(rhs_norm, 1.0):
        warnings.warn(
            f"least-squares residual {residual_norm:.3e} vs ||rhs|| {rhs_norm:.3e}: "
            "data is not an exact DtN map of this topology",
            InconsistentDataWarning,
            stacklevel=3,
        )
    loggammas = x[: sys.n_edges]
    logdet = float(x[sys.n_edges]) if sys.has_logdet_column else 0.0
    return loggammas, logdet, residual_norm


@dataclass(frozen=True)
class RecoveryPlan:
    """The topology-only half of recovery: the admissible rows in scan
    order, the exact rank of their coefficients, the unknown count m
    (+1 with interior vertices) and the edge ids the rows leave
    unresolved. The topology's gammas are never read."""

    topology: Network
    rows: tuple[AdmissibleRow, ...]
    rank: int
    n_unknowns: int
    unresolved_edges: tuple[int, ...]

    @property
    def full_rank(self) -> bool:
        """Whether the rows determine every unknown. No rows never do."""
        return _is_full_rank(len(self.rows), self.rank, self.n_unknowns)

    def apply(self, lam: DtNMap) -> RecoveryReport:
        """Solve the rows for the conductivities behind lam and check
        that they reproduce it (else RoundTripFailure). A topology short
        of full rank raises RankDeficient before any minor of lam is
        read; a full-rank one whose rows this map drops below full rank
        raises AllRowsDegenerate."""
        net = self.topology
        if lam.n_boundary != net.n_boundary:
            raise ValueError(
                f"DtN map is {lam.n_boundary}x{lam.n_boundary} but the topology has "
                f"{net.n_boundary} boundary vertices"
            )
        if not self.full_rank:
            raise RankDeficient(self.rank, self.unresolved_edges)
        sys = build_system(self.rows, lam, net.n_edges, net.n_interior)
        rank = RowSpace(sys.coeffs).rank if sys.dropped else self.rank
        if rank < self.n_unknowns:
            raise AllRowsDegenerate(
                f"rows kept by this map have rank {rank} of {self.n_unknowns}: "
                + "; ".join(sys.dropped)
            )
        loggammas, logdet, residual_norm = _least_squares(sys)
        gammas = tuple(math.exp(g) for g in loggammas)
        lam_back = dtn(net.with_gammas(gammas))
        roundtrip_error = float(np.max(np.abs(lam_back.entries - lam.entries)))
        threshold = ROUNDTRIP_RTOL * float(np.max(np.abs(lam.entries)))
        if roundtrip_error > threshold:
            raise RoundTripFailure(roundtrip_error, threshold)
        return RecoveryReport(gammas, logdet, residual_norm, self.n_unknowns, roundtrip_error)


def compile_topology(
    net: Network, max_pair_size: Optional[int] = None, stop_at_full_rank: bool = True
) -> RecoveryPlan:
    """Scan the pairs with |P| = |Q| <= max_pair_size (default: all) for
    admissibility, ranking their rows exactly as they come; with
    stop_at_full_rank the scan halts once the rows reach full rank."""
    size = net.n_boundary if max_pair_size is None else min(max_pair_size, net.n_boundary)
    has_logdet = net.n_interior > 0
    n_unknowns = _n_unknowns(net.n_edges, has_logdet)
    space = RowSpace()
    rows: list[AdmissibleRow] = []
    for row in admissible_rows(net, size):
        rows.append(row)
        space.add(_coefficient_row(row, net.n_edges, has_logdet))
        if stop_at_full_rank and space.rank == n_unknowns:
            break
    unresolved = _unresolved(space, net.n_edges, n_unknowns)
    return RecoveryPlan(net, tuple(rows), space.rank, n_unknowns, unresolved)


def recover(
    topology: Network,
    lam: DtNMap,
    max_pair_size: Optional[int] = None,
    stop_at_full_rank: bool = True,
) -> RecoveryReport:
    """Recover the conductivities behind lam: compile the topology (its
    gammas are ignored) and apply the plan. To recover many maps of one
    topology, compile it once with compile_topology and apply per map."""
    return compile_topology(topology, max_pair_size, stop_at_full_rank).apply(lam)


def difference_rows(sys: LogLinearSystem, i: int, j: int) -> tuple[tuple[int, ...], float]:
    """Coefficient-wise difference of rows i and j with rhs difference;
    the log-det columns cancel. Raises NotSparseDifference if any
    coefficient leaves {-1, 0, 1}."""
    row = tuple(a - b for a, b in zip(sys.coeffs[i], sys.coeffs[j]))
    if any(c not in (-1, 0, 1) for c in row):
        raise NotSparseDifference(f"difference of rows {i} and {j} leaves {{-1,0,1}}: {row}")
    return row, sys.rhs[i] - sys.rhs[j]
