"""Reference checks for the test suite only: permutation-expansion
determinants, exhaustive path-system search, the expansion term sign of
a path system counted over cycles, the second-system search behind the
per-pair admissibility test, the Schur-identity check of the DtN map,
a plan's system read one minor at a time, and exact rank by echelon
form.

The brute-force references share no determinant or path-walking code
with the modules they check; independence is the point. Factorial cost
is fine, size caps are hard errors. term_sign counts the cycles of the
bijection a system induces, where the package reads the sign from the
paths' endpoints.
The second-system search reads the package's enumerate_path_systems
(itself checked against the exhaustive search), which shares no code
with the per-path search and the covering walk it checks, and the per-pair
test builds its row from the system with term_sign, not with the scan's
per-core signs. The Schur check sets two of the package's computations
against each other: a minor of Lambda and a minor of K. The echelon
row space eliminates rows against each other, where the package's
RowSpace tests each row against a basis of the rows' null space; span
membership asks a copy of a RowSpace whether a row raises its rank.
The scan reference rebuilds admissible_rows' rows from the package's
cores (_sole_cores) with tuples: it sorts each size's candidates as
tuples, where the scan sorts integer keys, signs each row by term_sign
of its system and builds every pair through BoundaryPair's checks.
The walk keeps walked families and their cores only; covering_orbits
relabels each walked family into its whole orbit, by a vertex map of
its own rather than the scan's bit arithmetic, and covering_families
counts every core of every family of it, for the tests that check the
walk's one-family answers against the exhaustive search.
"""

from __future__ import annotations

import copy
import math
from functools import lru_cache
from itertools import combinations, permutations, product
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
from netinv.numerics import RowSpace
from netinv import paths
from netinv.paths import AdmissibleRow, PathSystem, enumerate_path_systems


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


def second_system_search(net: Network, pair: BoundaryPair) -> Optional[PathSystem]:
    """The pair's path system when it is the only one and covers every
    interior vertex, else None, read from the full enumeration."""
    systems = enumerate_path_systems(net, pair)
    if len(systems) != 1 or set(net.interior_vertices) & set(systems[0].residual):
        return None
    return systems[0]


def is_log_linear_admissible(net: Network, pair: BoundaryPair) -> Optional[AdmissibleRow]:
    """The row of the pair if it yields a log-linear equation, else None,
    decided for the pair alone: exactly one path system, whose residual
    holds no interior vertex and only pendant vertices whose neighbors lie
    outside it, so det K(residual, residual) is the product of the pendant
    conductivities. The row's edges and sign come from the system itself,
    its sign from term_sign."""
    system = second_system_search(net, pair)
    if system is None:
        return None
    adj = net.adjacency()
    residual = system.residual  # shared vertices alone, as the system covers I
    if any(len(adj[r]) != 1 or adj[r][0] in residual for r in residual):
        return None
    edge_id = {e.pair: e.id for e in net.edges}
    edges = [tuple(sorted(e)) for path in system.paths for e in zip(path, path[1:])]
    edges += [tuple(sorted((r, adj[r][0]))) for r in residual]
    sign = term_sign(system, pair)
    return AdmissibleRow(pair, tuple(sorted(edge_id[e] for e in edges)), sign)


def relabeled(walked: tuple, choice: tuple, cores) -> tuple[tuple, list]:
    """A relabeling of a walked family (per path, the entry of
    paths._SearchGraph.variants it takes) and the images of its cores,
    through the vertex map that takes each walked path's start and end to
    the relabeled path's, in walk order; each image with the family's
    lowest endpoint in P."""
    image = {}
    for path, (_, s_bit, t_bit) in zip(walked, choice):
        image[path[0]], image[path[-1]] = s_bit.bit_length() - 1, t_bit.bit_length() - 1
    family = tuple(sorted(path for path, _, _ in choice))
    images = []
    for core in cores:
        p, q = (sum(1 << image.get(v, v) for v in paths._vertices(mask)) for mask in core)
        images.append((p, q) if not family or p >> family[0][0] & 1 else (q, p))
    return family, images


def covering_orbits(net: Network, max_pair_size: int) -> list[list]:
    """paths._covering_orbits' orbits relabeled in full: per walked
    family, one (family, cores) pair per family of its orbit, the walked
    one first, with every core of each family, one-family or not."""
    graph = paths._SearchGraph(net)
    return [
        [relabeled(walked, choice, cores) for choice in product(*map(graph.variants, walked))]
        for walked, cores in paths._covering_orbits(graph, max_pair_size)[1]
    ]


def covering_families(net: Network, max_pair_size: int) -> dict:
    """The chordless covering family of each core with |P| <=
    max_pair_size, None for a core with more than one, counted over every
    family of every orbit (covering_orbits): keyed by the core's (P, Q)
    vertex bitmasks with the family's lowest endpoint in P; per path its
    vertices from its lower end, the paths ordered by their lower end."""
    families: dict = {}
    for orbit in covering_orbits(net, max_pair_size):
        for family, cores in orbit:
            for core in cores:
                families[core] = None if core in families else family
    return families


def scan_reference(net: Network, max_pair_size: int) -> list[AdmissibleRow]:
    """admissible_rows' rows, built the plain way: per size, every core
    of _sole_cores with |P| up to it, extended by each set of shared
    pendant vertices not joined to each other to fill the size, as
    ascending tuples; the candidates sorted as tuples of tuples. A row's
    edge ids add the pendants' edges to the core's, and its sign is
    term_sign of its system: the core's family run from P, with the
    added pendants as its residual."""
    adj = net.adjacency()
    pendants = [r for r in range(1, net.n_boundary + 1) if len(adj[r]) == 1]
    edge_id = {e.pair: e.id for e in net.edges}
    cores = [
        (k, p_mask, q_mask, family, edge_ids)
        for k, walked, kept, relabelings in paths._sole_cores(paths._SearchGraph(net), max_pair_size)
        for choice, edge_ids in relabelings
        for family, images in [relabeled(walked, choice, kept)]
        for p_mask, q_mask in images
    ]
    rows = []
    for size in range(1, max_pair_size + 1):
        candidates = []
        for k, p_mask, q_mask, family, edge_ids in cores:
            if k > size:
                continue
            p = [v for v in range(1, net.n_boundary + 1) if p_mask >> v & 1]
            q = [v for v in range(1, net.n_boundary + 1) if q_mask >> v & 1]
            run = tuple(sorted(path if path[0] in p else path[::-1] for path in family))
            for extra in combinations([r for r in pendants if r not in p + q], size - k):
                if any(adj[r][0] in extra for r in extra):
                    continue
                row_p, row_q = tuple(sorted(p + list(extra))), tuple(sorted(q + list(extra)))
                edges = edge_ids + tuple(edge_id[min(r, adj[r][0]), max(r, adj[r][0])] for r in extra)
                sign = term_sign(PathSystem(run, extra), BoundaryPair(row_p, row_q))
                candidates.append((row_p, row_q, tuple(sorted(edges)), sign))
        candidates.sort()
        rows += [AdmissibleRow(BoundaryPair(p, q), edges, sign) for p, q, edges, sign in candidates]
    return rows


def in_span(space: RowSpace, row) -> bool:
    """Whether the dense integer row lies in the span of space's rows:
    added to a copy of the space, it leaves the rank as it was."""
    return not copy.deepcopy(space).add(row)


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
