"""Reference checks for the test suite only: permutation-expansion
determinants, exhaustive path-system search, the expansion term sign of
a path system counted over cycles, the second-system search behind the
per-pair admissibility test, the Schur-identity check of the DtN map,
a plan's system read one minor at a time, and exact rank by echelon
form.

The brute-force references share no determinant or path-walking code
with the modules they check; independence is the point. Factorial cost
is fine, size caps are hard errors. term_sign counts the cycles of the
bijection a system induces, where the package counts its inversions.
The second-system search walks path systems with the package's
enumeration walk (itself checked against the exhaustive search), which
shares no code with the per-path search it checks, and the per-pair
test builds its row from the system with term_sign, not with the scan's
per-core signs. The Schur check sets two of the package's computations
against each other: a minor of Lambda and a minor of K. The echelon
row space eliminates rows against each other, where the package's
RowSpace tests each row against a basis of the rows' null space.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations, product
from typing import Optional

import networkx as nx
import numpy as np

from netinv.forward import (
    BoundaryPair,
    DtNMap,
    det_roundoff,
    dtn,
    dtn_subdet,
    kirchhoff_subdet,
    submatrix,
)
from netinv.inverse import LogLinearSystem, RecoveryPlan
from netinv.network import Network, kirchhoff
from netinv.paths import AdmissibleRow, PathSystem, _mask, _SearchGraph


def perm_det(m) -> float:
    """Determinant by summing over all n! permutations in lexicographic
    order. n <= 8 only."""
    rows = [list(map(float, row)) for row in m]
    n = len(rows)
    if n == 0:
        return 1.0
    if any(len(row) != n for row in rows):
        raise ValueError("perm_det needs a square matrix")
    if n > 8:
        raise ValueError(f"perm_det capped at 8x8, got {n}x{n}")
    total = 0.0
    for perm, sign in _signed_permutations(n):
        prod = sign
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += prod
    return total


@lru_cache(maxsize=None)
def _signed_permutations(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    return tuple((perm, _parity(perm)) for perm in permutations(range(n)))


def _parity(perm) -> int:
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def exhaustive_path_systems(net: Network, pair) -> list[PathSystem]:
    """All vertex-disjoint path systems for a pair, found by crossing
    per-endpoint simple-path lists (networkx) over every endpoint
    bijection and filtering for disjointness. Capped at 14 vertices."""
    if net.n_vertices > 14:
        raise ValueError(f"exhaustive search capped at 14 vertices, got {net.n_vertices}")
    pair.validate_for(net.n_boundary)
    p_set, q_set = set(pair.p), set(pair.q)
    sources = sorted(p_set - q_set)
    sinks = sorted(q_set - p_set)
    allowed = set(net.interior_vertices) | (p_set & q_set)
    if not sources:
        return [PathSystem((), tuple(sorted(allowed)))]
    g = nx.Graph()
    g.add_nodes_from(range(1, net.n_vertices + 1))
    g.add_edges_from((e.u, e.v) for e in net.edges)
    systems: list[PathSystem] = []
    for assignment in permutations(sinks):
        choices = []
        for s, t in zip(sources, assignment):
            sub = g.subgraph(allowed | {s, t})
            choices.append([tuple(p) for p in nx.all_simple_paths(sub, s, t)])
        for combo in product(*choices):
            seen: set[int] = set()
            ok = True
            for path in combo:
                if seen.intersection(path):
                    ok = False
                    break
                seen.update(path)
            if ok:
                residual = tuple(sorted(allowed - seen))
                systems.append(PathSystem(tuple(combo), residual))
    systems.sort(key=lambda s: s.paths)
    return systems


def _permutation_sign(perm: list[int]) -> int:
    """Sign of a permutation given as the image list (0-based)."""
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def term_sign(system: PathSystem, pair: BoundaryPair) -> int:
    """Sign of the expansion term for a path system.

    The system induces a bijection phi from rows R = P+I to columns
    C = Q+I: each path maps every vertex to its successor, and phi is
    the identity on the residual. The term sign is sign(phi), with R
    and C both ascending, times (-1)^(total edge count).
    """
    p_set, q_set = set(pair.p), set(pair.q)
    touched = {v for p in system.paths for v in p}
    interior = (set(system.residual) | touched) - p_set - q_set
    rows = sorted(p_set | interior)
    cols = sorted(q_set | interior)
    col_index = {v: i for i, v in enumerate(cols)}
    phi: dict[int, int] = {v: v for v in system.residual}
    n_edges = 0
    for path in system.paths:
        for a, b in zip(path, path[1:]):
            phi[a] = b
            n_edges += 1
    perm = [col_index[phi[r]] for r in rows]
    return _permutation_sign(perm) * (-1) ** n_edges


class _NoUniqueCoveringSystem(Exception):
    """Ends second_system_search's walk early."""


def second_system_search(graph: _SearchGraph, p_mask: int, q_mask: int) -> Optional[tuple]:
    """(paths, used) of the pair's path system when it is the only one
    and covers every interior vertex, else None. The search stops at the
    second system, or at the first that leaves an interior vertex out:
    either way the pair has no unique covering system."""
    interior = graph.interior
    found = []

    def visit(paths, used):
        found.append((paths, used))
        if len(found) > 1 or interior & ~used:
            raise _NoUniqueCoveringSystem

    try:
        graph.search(p_mask, q_mask, visit)
    except _NoUniqueCoveringSystem:
        return None
    return found[0] if found else None


def is_log_linear_admissible(net: Network, pair: BoundaryPair) -> Optional[AdmissibleRow]:
    """The row of the pair if it yields a log-linear equation, else None,
    decided for the pair alone: exactly one path system, whose residual
    holds no interior vertex and only pendant vertices whose neighbors lie
    outside it, so det K(residual, residual) is the product of the pendant
    conductivities. The row's edges and sign come from the system itself,
    its sign from term_sign."""
    pair.validate_for(net.n_boundary)
    system = second_system_search(_SearchGraph(net), _mask(pair.p), _mask(pair.q))
    if system is None:
        return None
    paths, used = system
    adj = net.adjacency()
    residual = [v for v in set(pair.p) & set(pair.q) if not used >> v & 1]
    if any(len(adj[r]) != 1 or adj[r][0] in residual for r in residual):
        return None
    edge_id = {e.pair: e.id for e in net.edges}
    edges = [tuple(sorted(e)) for path in paths for e in zip(path, path[1:])]
    edges += [tuple(sorted((r, adj[r][0]))) for r in residual]
    sign = term_sign(PathSystem(paths, tuple(sorted(residual))), pair)
    return AdmissibleRow(pair, tuple(sorted(edge_id[e] for e in edges)), sign)


def schur_identity_check(net: Network, pair: BoundaryPair) -> float:
    """Relative discrepancy of det Lambda(P,Q) * det K(I,I) against
    det K(P+I, Q+I). A reference that is zero up to det_roundoff reports
    0.0 when the test value is too, else 1.0."""
    k = kirchhoff(net)
    lam = dtn(net)
    interior = net.interior_vertices
    test = dtn_subdet(lam, pair) * kirchhoff_subdet(k, interior, interior)
    rows = sorted(set(pair.p) | set(interior))
    cols = sorted(set(pair.q) | set(interior))
    sub = submatrix(k, rows, cols)
    ref = float(np.linalg.det(sub))
    zero = det_roundoff(sub)
    if abs(ref) <= zero:
        return 0.0 if abs(test) <= zero else 1.0
    return abs(test - ref) / abs(ref)


def per_row_system(plan: RecoveryPlan, lam: DtNMap) -> LogLinearSystem:
    """RecoveryPlan.system read the way it once was: one slogdet per
    row, on that row's minor, with the same reasons for a dropped row."""
    coeffs, rhs, provenance, dropped = [], [], [], []
    for row, row_coeffs in zip(plan.rows, plan.coeffs):
        sign, logabs = np.linalg.slogdet(submatrix(lam.entries, row.pair.p, row.pair.q))
        if sign == 0:
            dropped.append(f"pair {row.pair.p}->{row.pair.q}: zero determinant")
        elif sign != row.sign:
            dropped.append(
                f"pair {row.pair.p}->{row.pair.q}: sign {'+' if sign > 0 else '-'} "
                f"contradicts predicted {'+' if row.sign > 0 else '-'}"
            )
        else:
            coeffs.append(row_coeffs)
            rhs.append(float(logabs))
            provenance.append(row.pair)
    return LogLinearSystem(tuple(coeffs), tuple(rhs), tuple(provenance), tuple(dropped))


class EchelonRowSpace:
    """Exact span over the rationals of integer rows, grown one row at
    a time, in fraction-free echelon form keyed by pivot column: each
    stored row is zero in the pivot columns of the rows stored before it,
    and every reduced row is divided by the gcd of its entries."""

    def __init__(self, rows=()):
        self._basis: dict[int, list[int]] = {}
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self._basis)

    def reduce(self, row) -> list[int]:
        """An integer multiple of the row minus a combination of basis
        rows, zero in every pivot column; all zeros exactly when the
        row lies in the span."""
        r = [int(x) for x in row]
        for col, b in self._basis.items():
            c = r[col]
            if c:
                p = b[col]
                r = [p * x - c * y for x, y in zip(r, b)]
        g = math.gcd(*r)
        return [x // g for x in r] if g > 1 else r

    def add(self, row) -> bool:
        """Add a row to the span; True when the rank rose."""
        r = self.reduce(row)
        col = next((j for j, x in enumerate(r) if x), None)
        if col is None:
            return False
        self._basis[col] = r
        return True
