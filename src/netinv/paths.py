"""Vertex-disjoint path systems between boundary subsets, expansion
term signs, residual determinants, and the determinant expansion of
det K(P+I, Q+I) they induce.

A path system pairs the vertices of P\\Q (sources, ascending) with the
vertices of Q\\P (sinks) via simple paths whose intermediate vertices
lie in I + (P&Q); distinct paths share no vertex at all. Each system
contributes sign * prod(gamma on paths) * det K(residual, residual)
to det K(P+I, Q+I).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ExpansionMismatch, TooManySystems
from .forward import BoundaryPair, det_roundoff, kirchhoff_subdet, submatrix
from .network import Network, kirchhoff

#: Default cap on systems enumerated per pair; exceeded means the pair
#: is beyond desk scale and the caller gets an explicit error.
DEFAULT_MAX_SYSTEMS = 10**6

#: Internal assertion tolerance for the expansion-vs-determinant identity.
EXPANSION_RTOL = 1e-9


@dataclass(frozen=True)
class PathSystem:
    """A family of pairwise vertex-disjoint simple paths, canonical form:
    paths ordered by ascending start vertex, each stored start-to-end.
    `residual` is the untouched part of I + (P&Q), ascending."""

    paths: tuple[tuple[int, ...], ...]
    residual: tuple[int, ...]

    @property
    def endpoint_map(self) -> dict[int, int]:
        return {p[0]: p[-1] for p in self.paths}

    @property
    def path_vertices(self) -> frozenset[int]:
        return frozenset(v for p in self.paths for v in p)


@dataclass(frozen=True)
class PathTerm:
    """One expansion term: sign * prod(gamma over monomial edges)
    * residual_det."""

    system: PathSystem
    sign: int
    monomial: tuple[int, ...]  # edge ids on the paths, ascending
    residual_det: float

    def value(self, net: Network) -> float:
        gamma = {e.id: e.gamma for e in net.edges}
        prod = 1.0
        for eid in self.monomial:
            prod *= gamma[eid]
        return self.sign * prod * self.residual_det


def _pair_sets(net: Network, pair: BoundaryPair):
    pair.validate_for(net.n_boundary)
    p_set, q_set = set(pair.p), set(pair.q)
    sources = sorted(p_set - q_set)
    sinks = sorted(q_set - p_set)
    allowed = set(net.interior_vertices) | (p_set & q_set)
    return sources, sinks, allowed


def enumerate_path_systems(
    net: Network, pair: BoundaryPair, max_systems: int = DEFAULT_MAX_SYSTEMS
) -> list[PathSystem]:
    """All vertex-disjoint path systems connecting P\\Q to Q\\P through
    I + (P&Q), by DFS in ascending-neighbor order with dead-end pruning.

    When P = Q the single empty system (everything residual) is
    returned.
    """
    sources, sinks, allowed = _pair_sets(net, pair)
    if not sources:
        return [PathSystem((), tuple(sorted(allowed)))]
    adj = net.adjacency()
    systems: list[PathSystem] = []
    used: set[int] = set()
    used_sinks: set[int] = set()
    paths: list[tuple[int, ...]] = []
    sink_set = set(sinks)

    def reachable_ok() -> bool:
        # every remaining source must still reach an unused sink
        remaining = sources[len(paths):]
        for s in remaining:
            stack = [s]
            seen = {s}
            found = False
            while stack and not found:
                v = stack.pop()
                for w in adj[v]:
                    if w in seen or w in used:
                        continue
                    if w in sink_set and w not in used_sinks:
                        found = True
                        break
                    if w in allowed:
                        seen.add(w)
                        stack.append(w)
            if not found:
                return False
        return True

    def extend(source_idx: int, path: list[int]):
        if len(systems) >= max_systems:
            raise TooManySystems(
                f"more than {max_systems} path systems for pair {pair.p}->{pair.q}"
            )
        v = path[-1]
        for w in adj[v]:
            if w in used:
                continue
            if w in sink_set and w not in used_sinks:
                path.append(w)
                used.add(w)
                used_sinks.add(w)
                paths.append(tuple(path))
                next_system(source_idx + 1)
                paths.pop()
                used_sinks.discard(w)
                used.discard(w)
                path.pop()
            if w in allowed:
                path.append(w)
                used.add(w)
                extend(source_idx, path)
                used.discard(w)
                path.pop()

    def next_system(source_idx: int):
        if source_idx == len(sources):
            residual = tuple(sorted(allowed - used))
            systems.append(PathSystem(tuple(paths), residual))
            return
        if not reachable_ok():
            return
        s = sources[source_idx]
        used.add(s)
        extend(source_idx, [s])
        used.discard(s)

    next_system(0)
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
    shared = p_set & q_set
    touched = system.path_vertices
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


def expand_det(
    net: Network, pair: BoundaryPair, max_systems: int = DEFAULT_MAX_SYSTEMS
) -> tuple[list[PathTerm], float]:
    """Evaluate the disjoint-path expansion of det K(P+I, Q+I).

    Returns the term list and its total; internally asserts the total
    against the determinant of K(P+I, Q+I) and raises
    ExpansionMismatch on disagreement.
    """
    k = kirchhoff(net)
    edge_by_pair = net.edge_lookup()
    systems = enumerate_path_systems(net, pair, max_systems)
    terms: list[PathTerm] = []
    total = 0.0
    mag = 0.0
    for system in systems:
        sign = term_sign(system, pair)
        edge_ids = []
        for path in system.paths:
            for a, b in zip(path, path[1:]):
                edge_ids.append(edge_by_pair[(a, b) if a < b else (b, a)].id)
        residual_det = kirchhoff_subdet(k, system.residual, system.residual)
        term = PathTerm(system, sign, tuple(sorted(edge_ids)), residual_det)
        value = term.value(net)
        total += value
        mag += abs(value)
        terms.append(term)
    interior = set(net.interior_vertices)
    rows = sorted(set(pair.p) | interior)
    cols = sorted(set(pair.q) | interior)
    ref = kirchhoff_subdet(k, rows, cols)
    sub = submatrix(k.entries, rows, cols)
    tol = EXPANSION_RTOL * max(abs(ref), abs(total), mag) + det_roundoff(sub)
    if abs(total - ref) > tol:
        raise ExpansionMismatch(
            f"pair {pair.p}->{pair.q}: expansion total {total!r} vs determinant {ref!r}"
        )
    return terms, total


@dataclass(frozen=True)
class AdmissibleRow:
    """A log-linear equation source: a pair whose unique path system
    covers all interior vertices and leaves only pendant shared
    vertices, so |det Lambda(P,Q)| is a single gamma monomial over
    det K(I,I)."""

    pair: BoundaryPair
    edge_ids: tuple[int, ...]
    sign: int


def is_log_linear_admissible(net: Network, pair: BoundaryPair) -> Optional[AdmissibleRow]:
    """Return the row description if the pair yields a log-linear
    equation, else None.

    Requires: exactly one path system; its residual covers no interior
    vertex; every residual vertex is pendant (degree 1) with its
    neighbor outside the residual, so det K(residual, residual) is the
    product of the pendant conductivities.
    """
    try:  # only uniqueness matters: stop at the second system
        systems = enumerate_path_systems(net, pair, max_systems=2)
    except TooManySystems:
        return None
    if len(systems) != 1:
        return None
    system = systems[0]
    interior = set(net.interior_vertices)
    if interior & set(system.residual):
        return None
    adj = net.adjacency()
    edge_by_pair = net.edge_lookup()
    residual_set = set(system.residual)
    edge_ids = []
    for path in system.paths:
        for a, b in zip(path, path[1:]):
            edge_ids.append(edge_by_pair[(a, b) if a < b else (b, a)].id)
    for r in system.residual:
        neighbors = adj[r]
        if len(neighbors) != 1 or neighbors[0] in residual_set:
            return None
        a, b = (r, neighbors[0]) if r < neighbors[0] else (neighbors[0], r)
        edge_ids.append(edge_by_pair[(a, b)].id)
    return AdmissibleRow(pair, tuple(sorted(edge_ids)), term_sign(system, pair))
