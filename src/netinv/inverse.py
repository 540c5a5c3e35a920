"""Log-linear inverse solver. compile_topology finds the admissible
boundary pairs, their {1,0,-1} rows in (log gamma_1..log gamma_m,
log det K(I,I)) and the rows' exact rank, all fixed by the topology
alone; the plan's system takes the rhs log|det Lambda(P,Q)| from a DtN
map, and its apply solves that system and checks the round trip.
rank_topology certifies the same rows' count and rank without building
them."""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from itertools import groupby
from typing import Optional

import numpy as np

from .errors import (
    AllRowsDegenerate,
    InconsistentDataWarning,
    RankDeficient,
    RoundTripFailure,
    TooManySystems,
)
from .forward import BoundaryPair, DtNMap, dtn
from .network import Network
from .numerics import RowSpace
from .paths import MAX_ROWS, AdmissibleRow, admissible_rows, core_census

#: Least-squares residual beyond this multiple of ||rhs|| flags the
#: input as not an exact DtN map of the topology.
INCONSISTENT_RTOL = 1e-6

#: Round-trip acceptance threshold, relative to maxabs of the given map.
ROUNDTRIP_RTOL = 1e-6


@dataclass(frozen=True)
class LogLinearSystem:
    """One map's integer-coefficient system over (log gamma_1..log gamma_m
    [, log det K(I,I)]) with rhs log|det Lambda(P,Q)|: the plan rows
    whose minor has the predicted sign, and why each other row was
    dropped. RecoveryPlan.system builds it."""

    coeffs: tuple[tuple[int, ...], ...]
    rhs: tuple[float, ...]
    provenance: tuple[BoundaryPair, ...]
    dropped: tuple[str, ...] = ()


@dataclass(frozen=True)
class RecoveryReport:
    recovered_gammas: tuple[float, ...]
    logdet_interior: float
    residual_norm: float
    rank: int
    roundtrip_error: float


def _coefficient_row(row: AdmissibleRow, n_edges: int, has_logdet: bool) -> tuple[int, ...]:
    coeffs = [0] * n_edges
    for eid in row.edge_ids:
        coeffs[eid - 1] = 1
    return tuple(coeffs + [-1] if has_logdet else coeffs)


def _check_size(lam: DtNMap, net: Network) -> None:
    if lam.n_boundary != net.n_boundary:
        raise ValueError(
            f"DtN map is {lam.n_boundary}x{lam.n_boundary} but the topology has "
            f"{net.n_boundary} boundary vertices"
        )


def _check_near_dtn(lam: DtNMap, tol: float) -> None:
    """ValueError naming an entry of lam more than 2 tol from its mirror
    entry, or a row of its n summing beyond n tol in size: then no DtN
    map, being symmetric with zero row sums, lies within tol of lam."""
    with np.errstate(over="ignore"):
        gap = np.abs(lam.entries - lam.entries.T)
        sums = np.abs(lam.entries.sum(axis=1))
    i, j = np.unravel_index(np.argmax(gap), gap.shape)
    if gap[i, j] > 2 * tol:
        raise ValueError(
            f"map is not symmetric: |Lambda[{i + 1},{j + 1}] - Lambda[{j + 1},{i + 1}]| = "
            f"{gap[i, j]:.3e} exceeds 2 x {tol:.3e}"
        )
    i = np.argmax(sums > len(sums) * tol)  # the first row beyond, if any
    if sums[i] > len(sums) * tol:
        raise ValueError(
            f"map row {i + 1} does not sum to zero: |sum_j Lambda[{i + 1},j]| = "
            f"{sums[i]:.3e} exceeds {len(sums)} x {tol:.3e}"
        )


@dataclass(frozen=True)
class RecoveryPlan:
    """The topology-only half of recovery: the admissible rows in scan
    order, their coefficient rows over (log gamma_1..log gamma_m
    [, log det K(I,I)]; the log-det column only with interior vertices),
    the exact rank of those rows, the unknown count and the edge ids the
    rows leave unresolved. The topology's gammas are never read."""

    topology: Network
    rows: tuple[AdmissibleRow, ...]
    coeffs: tuple[tuple[int, ...], ...]
    rank: int
    n_unknowns: int
    unresolved_edges: tuple[int, ...]

    @property
    def full_rank(self) -> bool:
        """Whether the rows determine every unknown. No rows never do:
        a network without edges has nothing to recover and no equation
        to check a map against."""
        return bool(self.rows) and self.rank == self.n_unknowns

    def system(self, lam: DtNMap) -> LogLinearSystem:
        """The rows' system for lam, rhs log|det Lambda(P,Q)|: one stacked
        slogdet per pair size, so no minor passes through a float that can
        underflow or overflow. A row whose minor is exactly singular, or
        whose sign contradicts the path system's (a near-zero determinant
        flipped by roundoff), is dropped with its reason."""
        _check_size(lam, self.topology)
        coeffs: list[tuple[int, ...]] = []
        rhs: list[float] = []
        provenance: list[BoundaryPair] = []
        dropped: list[str] = []
        signs: list[float] = []
        logabs: list[float] = []
        for _, group in groupby(self.rows, key=lambda row: len(row.pair.p)):
            idx = np.array([(row.pair.p, row.pair.q) for row in group]) - 1
            sign, log = np.linalg.slogdet(lam.entries[idx[:, 0, :, None], idx[:, 1, None, :]])
            signs += sign.tolist()
            logabs += log.tolist()
        for row, row_coeffs, sign, log in zip(self.rows, self.coeffs, signs, logabs):
            if sign == 0:
                dropped.append(f"pair {row.pair.p}->{row.pair.q}: zero determinant")
            elif sign != row.sign:
                dropped.append(
                    f"pair {row.pair.p}->{row.pair.q}: sign {'+' if sign > 0 else '-'} "
                    f"contradicts predicted {'+' if row.sign > 0 else '-'}"
                )
            else:
                coeffs.append(row_coeffs)
                rhs.append(log)
                provenance.append(row.pair)
        return LogLinearSystem(tuple(coeffs), tuple(rhs), tuple(provenance), tuple(dropped))

    def apply(self, lam: DtNMap) -> RecoveryReport:
        """Solve the rows for the conductivities behind lam and check
        that they reproduce it (else RoundTripFailure). A topology short
        of full rank raises RankDeficient before any minor of lam is
        read; a full-rank one whose rows this map drops below full rank
        raises AllRowsDegenerate, and a recovered conductivity whose exp
        overflows or underflows to 0 raises ValueError. A map that fails
        any step of the solve or the round trip (the forward solve of the
        recovered network included) and lies beyond the round trip's
        threshold of every DtN map, by its symmetry or its row sums,
        raises ValueError for that instead."""
        net = self.topology
        _check_size(lam, net)
        if not self.full_rank:
            raise RankDeficient(self.rank, self.unresolved_edges)
        threshold = ROUNDTRIP_RTOL * float(np.max(np.abs(lam.entries)))
        try:
            sys = self.system(lam)
            rank = RowSpace(sys.coeffs).rank if sys.dropped else self.rank
            if rank < self.n_unknowns:
                raise AllRowsDegenerate(
                    f"rows kept by this map have rank {rank} of {self.n_unknowns}: "
                    + "; ".join(sys.dropped)
                )
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
            try:
                gammas = tuple(math.exp(g) for g in x[: net.n_edges])
                beyond = gammas.index(0.0) if 0.0 in gammas else None  # an underflow
            except OverflowError:
                beyond = int(np.argmax(x[: net.n_edges]))
            if beyond is not None:
                raise ValueError(
                    f"recovered conductivity of edge {beyond + 1}, exp({x[beyond]:.17g}), "
                    "is beyond the float range"
                )
            logdet = float(x[net.n_edges]) if net.n_interior else 0.0
            lam_back = dtn(net.with_gammas(gammas))
            roundtrip_error = float(np.max(np.abs(lam_back.entries - lam.entries)))
            if roundtrip_error > threshold:
                raise RoundTripFailure(roundtrip_error, threshold)
        except (AllRowsDegenerate, RoundTripFailure, ValueError):
            _check_near_dtn(lam, threshold)
            raise
        return RecoveryReport(gammas, logdet, residual_norm, self.n_unknowns, roundtrip_error)


def _pair_size(net: Network, max_pair_size: Optional[int]) -> int:
    """The largest |P| a scan with this max_pair_size reaches; ValueError
    for a max_pair_size other than None or an integer >= 1."""
    if max_pair_size is None:
        return net.n_boundary
    try:
        cap = operator.index(max_pair_size)
    except TypeError:
        cap = 0
    if cap < 1:
        raise ValueError(f"max_pair_size must be an integer >= 1, got {max_pair_size!r}")
    return min(cap, net.n_boundary)


def _unresolved(space: RowSpace, n_edges: int) -> tuple[int, ...]:
    """The edge ids whose column the rows in `space` leave unpinned."""
    pinned = space.pinned_columns()
    return tuple(j for j in range(1, n_edges + 1) if j - 1 not in pinned)


def compile_topology(
    net: Network, max_pair_size: Optional[int] = None, stop_at_full_rank: bool = True
) -> RecoveryPlan:
    """Scan the pairs with |P| = |Q| <= max_pair_size (default: all) for
    admissibility, ranking their rows exactly as they come; with
    stop_at_full_rank the scan halts once the rows reach full rank. A
    max_pair_size other than None or an integer >= 1 raises ValueError,
    and a plan that would store more than MAX_ROWS rows TooManySystems."""
    size = _pair_size(net, max_pair_size)
    has_logdet = net.n_interior > 0
    n_unknowns = net.n_edges + has_logdet
    space = RowSpace()
    rows: list[AdmissibleRow] = []
    coeffs: list[tuple[int, ...]] = []
    distinct: dict[tuple[int, ...], tuple[int, ...]] = {}  # coefficient row per edge set
    logdet = [(net.n_edges, -1)] if has_logdet else []
    for row in admissible_rows(net, size):
        if len(rows) == MAX_ROWS:
            raise TooManySystems(f"more than {MAX_ROWS} rows for one plan")
        row_coeffs = distinct.get(row.edge_ids)
        if row_coeffs is None:
            row_coeffs = distinct[row.edge_ids] = _coefficient_row(row, net.n_edges, has_logdet)
            space.add_sparse([(eid - 1, 1) for eid in row.edge_ids] + logdet)
        rows.append(row)
        coeffs.append(row_coeffs)
        if stop_at_full_rank and space.rank == n_unknowns:
            break
    unresolved = _unresolved(space, net.n_edges)
    return RecoveryPlan(net, tuple(rows), tuple(coeffs), space.rank, n_unknowns, unresolved)


@dataclass(frozen=True)
class RankCertificate:
    """What compile_topology(net, max_pair_size, stop_at_full_rank=False)
    finds of a topology's rows, without the rows: how many there are,
    their exact rank, the unknown count and the edge ids they leave
    unresolved."""

    rows: int
    rank: int
    n_unknowns: int
    unresolved_edges: tuple[int, ...]

    @property
    def full_rank(self) -> bool:
        """Whether the rows determine every unknown; no rows never do."""
        return self.rows > 0 and self.rank == self.n_unknowns


def rank_topology(net: Network, max_pair_size: Optional[int] = None) -> RankCertificate:
    """The rank certificate of the pairs with |P| = |Q| <= max_pair_size
    (default: all), read from the scan's orbits (paths.core_census): each
    orbit's rows are counted, not built, and only a few rows that span
    them are ranked: its walked family's row; once per topology, for each
    twin class its relabelings reach, the two-entry rows e_r - e_r0 (the
    unit rows of the edges of a twin r and of the class's lowest twin
    r0); and the unit row of each pendant edge a row can share. Those go
    to the RowSpace until it reaches full rank; the later orbits are only
    counted (the empty core's row, of a network without interior
    vertices, is zero and adds nothing). The memory is then set by the walked
    families, not by the rows. A max_pair_size other than None or an
    integer >= 1 raises ValueError."""
    size = _pair_size(net, max_pair_size)
    n_unknowns = net.n_edges + (net.n_interior > 0)
    logdet = [(net.n_edges, -1)] if net.n_interior else []
    space = RowSpace()
    rows = 0
    ranked = set()  # the twin classes whose differences went to the space
    for count, own, reached, extra in core_census(net, size):
        rows += count
        if space.rank == n_unknowns:
            continue
        spanning = [[(eid - 1, 1) for eid in own] + logdet]
        for twins in reached:
            if twins not in ranked:
                ranked.add(twins)
                spanning += [[(twins[0] - 1, -1), (eid - 1, 1)] for eid in twins[1:]]
        for row in spanning + [[(eid - 1, 1)] for eid in extra]:
            if space.rank == n_unknowns:
                break
            space.add_sparse(row)
    return RankCertificate(rows, space.rank, n_unknowns, _unresolved(space, net.n_edges))


def recover(
    topology: Network,
    lam: DtNMap,
    max_pair_size: Optional[int] = None,
    stop_at_full_rank: bool = True,
) -> RecoveryReport:
    """Recover the conductivities behind lam: compile the topology (its
    gammas are ignored) and apply the plan. To recover many maps of one
    topology, compile it once with compile_topology and apply per map."""
    _check_size(lam, topology)
    return compile_topology(topology, max_pair_size, stop_at_full_rank).apply(lam)


def difference_rows(sys: LogLinearSystem, i: int, j: int) -> tuple[tuple[int, ...], float]:
    """Coefficient-wise difference of rows i and j with rhs difference;
    the log-det columns cancel. Raises ValueError if an index is not an
    integer in 0..len - 1 or any coefficient leaves {-1, 0, 1}."""
    for k in (i, j):
        if not (isinstance(k, (int, np.integer)) and 0 <= k < len(sys.coeffs)):
            raise ValueError(f"row index {k!r} is not in 0..{len(sys.coeffs) - 1}")
    row = tuple(a - b for a, b in zip(sys.coeffs[i], sys.coeffs[j]))
    if any(c not in (-1, 0, 1) for c in row):
        raise ValueError(f"difference of rows {i} and {j} leaves {{-1,0,1}}: {row}")
    return row, sys.rhs[i] - sys.rhs[j]
