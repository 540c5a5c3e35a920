"""Reference checks for the test suite only: permutation-expansion
determinants, exhaustive path-system search and the Schur-identity check
of the DtN map.

The brute-force references share no determinant or path-walking code
with the modules they check; independence is the point. Factorial cost
is fine, size caps are hard errors. The Schur check instead sets two of
the package's computations against each other: a minor of Lambda and a
minor of K.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product

import networkx as nx
import numpy as np

from netinv.forward import (
    BoundaryPair,
    det_roundoff,
    dtn,
    dtn_subdet,
    kirchhoff_subdet,
    submatrix,
)
from netinv.network import Network, kirchhoff
from netinv.paths import PathSystem


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
