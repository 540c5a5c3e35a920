"""Log-linear inverse solver: collect admissible boundary pairs, build
the {1,0,-1} system in (log gamma_1..log gamma_m, log det K(I,I)),
certify its exact rank, and recover conductivities from a DtN map.
"""

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
from .numerics import RowSpace, integer_rank
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
        return self.n_edges + (1 if self.has_logdet_column else 0)

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


def enumerate_admissible_pairs(
    net: Network,
    max_pair_size: Optional[int] = None,
    stop_at_full_rank: bool = False,
) -> list[AdmissibleRow]:
    """Scan boundary pairs for log-linear admissibility.

    Admissibility depends only on the topology, never on the gamma
    values. With stop_at_full_rank the scan halts as soon as the
    collected rows reach exact rank m (+1 with interior vertices).
    """
    if max_pair_size is None:
        max_pair_size = net.n_boundary
    max_pair_size = min(max_pair_size, net.n_boundary)
    has_logdet = net.n_interior > 0
    space = RowSpace()
    rows: list[AdmissibleRow] = []
    for row in admissible_rows(net, max_pair_size):
        rows.append(row)
        if stop_at_full_rank:
            space.add(_coefficient_row(row, net.n_edges, has_logdet))
            if space.rank == net.n_edges + (1 if has_logdet else 0):
                break
    return rows


def admissible_rank(net: Network, rows: list[AdmissibleRow]) -> tuple[int, int]:
    """Exact rank of the coefficient matrix of admissible rows on net,
    and the number of unknowns full rank means."""
    has_logdet = net.n_interior > 0
    rank = integer_rank(_coefficient_row(r, net.n_edges, has_logdet) for r in rows)
    return rank, net.n_edges + (1 if has_logdet else 0)


def is_full_rank(n_rows: int, rank: int, n_unknowns: int) -> bool:
    """Whether a system of n_rows rows and this exact rank determines all
    n_unknowns. No rows never do: a network without edges has nothing to
    recover and no equation to check a map against."""
    return n_rows > 0 and rank == n_unknowns


def _coefficient_row(row: AdmissibleRow, n_edges: int, has_logdet: bool) -> list[int]:
    coeffs = [0] * (n_edges + (1 if has_logdet else 0))
    for eid in row.edge_ids:
        coeffs[eid - 1] = 1
    if has_logdet:
        coeffs[-1] = -1
    return coeffs


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


def system_rank(sys: LogLinearSystem) -> int:
    """Exact rank of the coefficient matrix over the rationals."""
    return integer_rank(sys.coeffs)


def _unresolved(space: RowSpace, sys: LogLinearSystem) -> tuple[int, ...]:
    # the row space is the orthogonal complement of the null space, so
    # e_j meets the null space exactly when it leaves the row space
    return tuple(
        j
        for j in range(1, sys.n_edges + 1)
        if any(space.reduce([int(c == j) for c in range(1, sys.n_unknowns + 1)]))
    )


def unresolved_edges(sys: LogLinearSystem) -> tuple[int, ...]:
    """Edge ids whose unit directions meet the coefficient null space:
    exactly the conductivities the system cannot pin down."""
    return _unresolved(RowSpace(sys.coeffs), sys)


def solve_system(sys: LogLinearSystem) -> tuple[np.ndarray, float, float]:
    """Least-squares solve; returns (log gammas, log det K(I,I),
    residual norm). Raises RankDeficient with the unresolved edge ids
    when the exact rank is below the unknown count, or when there are
    no rows at all (a network without edges has no unknowns)."""
    space = RowSpace(sys.coeffs)
    if not is_full_rank(sys.n_rows, space.rank, sys.n_unknowns):
        raise RankDeficient(space.rank, _unresolved(space, sys))
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
            stacklevel=2,
        )
    loggammas = x[: sys.n_edges]
    logdet = float(x[sys.n_edges]) if sys.has_logdet_column else 0.0
    return loggammas, logdet, residual_norm


def recover(
    topology: Network,
    lam: DtNMap,
    max_pair_size: Optional[int] = None,
    stop_at_full_rank: bool = True,
) -> RecoveryReport:
    """Full pipeline: admissible pairs on the topology (placeholder
    gammas ignored), log-linear system from the given DtN map, solve,
    exponentiate, verify by recomputing the forward map."""
    if lam.n_boundary != topology.n_boundary:
        raise ValueError(
            f"DtN map is {lam.n_boundary}x{lam.n_boundary} but the topology has "
            f"{topology.n_boundary} boundary vertices"
        )
    rows = enumerate_admissible_pairs(topology, max_pair_size, stop_at_full_rank)
    sys = build_system(rows, lam, topology.n_edges, topology.n_interior)
    loggammas, logdet, residual_norm = solve_system(sys)
    gammas = tuple(math.exp(g) for g in loggammas)
    recovered = topology.with_gammas(gammas)
    lam_back = dtn(recovered)
    roundtrip_error = float(np.max(np.abs(lam_back.entries - lam.entries)))
    threshold = ROUNDTRIP_RTOL * float(np.max(np.abs(lam.entries)))
    if roundtrip_error > threshold:
        raise RoundTripFailure(roundtrip_error, threshold)
    return RecoveryReport(
        recovered_gammas=gammas,
        logdet_interior=logdet,
        residual_norm=residual_norm,
        rank=sys.n_unknowns,
        roundtrip_error=roundtrip_error,
    )


def difference_rows(sys: LogLinearSystem, i: int, j: int) -> tuple[tuple[int, ...], float]:
    """Coefficient-wise difference of rows i and j with rhs difference;
    the log-det columns cancel. Raises NotSparseDifference if any
    coefficient leaves {-1, 0, 1}."""
    row = tuple(a - b for a, b in zip(sys.coeffs[i], sys.coeffs[j]))
    if any(c not in (-1, 0, 1) for c in row):
        raise NotSparseDifference(f"difference of rows {i} and {j} leaves {{-1,0,1}}: {row}")
    return row, sys.rhs[i] - sys.rhs[j]
