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
from itertools import combinations
from typing import Iterator, Mapping, Optional

import numpy as np

from .errors import ExpansionMismatch, TooManySystems
from .forward import BoundaryPair, det_roundoff, kirchhoff_subdet, submatrix
from .network import Network, kirchhoff

#: Cap on the systems enumerated per pair; exceeded means the pair is
#: beyond desk scale and the caller gets TooManySystems.
MAX_SYSTEMS = 10**6

#: The search recurses once per path vertex; past the recursion limit it
#: has run out of budget too.
_TOO_DEEP = "path search deeper than the recursion limit"

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

    def value(self, gamma: Mapping[int, float]) -> float:
        """The term's value, given the conductivity gamma[id] of each
        edge id."""
        prod = 1.0
        for eid in self.monomial:
            prod *= gamma[eid]
        return self.sign * prod * self.residual_det


def _mask(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _vertices(mask: int) -> tuple[int, ...]:
    """The vertices of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class _SearchGraph:
    """The topology data the path search reads, built once per network:
    per vertex its ascending (neighbor, bit) steps and its neighbor
    bitmask, plus the boundary, interior and degree-1 vertex bitmasks and
    the edge ids. Vertex sets are int bitmasks (bit v is vertex v)."""

    __slots__ = ("steps", "masks", "boundary", "interior", "pendants", "edge_id")

    def __init__(self, net: Network):
        adj = net.adjacency()
        vertices = range(1, net.n_vertices + 1)
        self.steps = [()] + [tuple((w, 1 << w) for w in adj[v]) for v in vertices]
        self.masks = [0] + [_mask(adj[v]) for v in vertices]
        self.boundary = _mask(range(1, net.n_boundary + 1))
        self.interior = _mask(net.interior_vertices)
        self.pendants = _mask(v for v in vertices if len(adj[v]) == 1)
        self.edge_id = {e.pair: e.id for e in net.edges}

    def search(self, p_mask: int, q_mask: int, visit) -> bool:
        """Walk the path systems of the pair with vertex masks (p_mask,
        q_mask), from the sources P\\Q (ascending) to the sinks Q\\P
        through I + (P&Q), depth first in ascending-neighbor order with
        dead-end pruning, and call visit(paths, used) on each; `used` is
        the bitmask of the vertices on the paths. Returns True as soon as
        visit does (the walk stops), else False."""
        steps, masks = self.steps, self.masks
        sources = _vertices(p_mask & ~q_mask)
        sinks = q_mask & ~p_mask
        allowed = self.interior | (p_mask & q_mask)
        paths: list[tuple[int, ...]] = []

        def reaches(s: int, used: int) -> bool:
            # flood fill from s through unused allowed vertices
            targets, open_ = sinks & ~used, allowed & ~used
            seen = frontier = 1 << s
            while frontier:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    reach |= masks[low.bit_length() - 1]
                    frontier ^= low
                if reach & targets:
                    return True
                frontier = reach & open_ & ~seen
                seen |= frontier
            return False

        def next_system(i: int, used: int) -> bool:
            if i == len(sources):
                return visit(tuple(paths), used)
            # every remaining source must still reach an unused sink
            for s in sources[i:]:
                if not reaches(s, used):
                    return False
            s = sources[i]
            return extend(i, [s], used | 1 << s)

        def extend(i: int, path: list[int], used: int) -> bool:
            for w, bit in steps[path[-1]]:
                if used & bit:
                    continue
                if sinks & bit:
                    paths.append((*path, w))
                    stop = next_system(i + 1, used | bit)
                    paths.pop()
                elif allowed & bit:
                    path.append(w)
                    stop = extend(i, path, used | bit)
                    path.pop()
                else:
                    continue
                if stop:
                    return True
            return False

        try:
            return next_system(0, 0)
        except RecursionError:
            raise TooManySystems(_TOO_DEEP) from None

    def unique_system(self, p_mask: int, q_mask: int) -> Optional[tuple]:
        """(paths, used) of the pair's path system when it is the only
        one and covers every interior vertex, else None. The search stops
        at the second system, or at the first that leaves an interior
        vertex out: either way the pair has no unique covering system."""
        interior = self.interior
        found = []

        def visit(paths, used):
            found.append((paths, used))
            return len(found) > 1 or bool(interior & ~used)

        if self.search(p_mask, q_mask, visit):
            return None
        return found[0] if found else None

    def row(self, p, q, system) -> Optional[AdmissibleRow]:
        """The row of pair (p, q) whose unique covering system is
        `system`, or None when a residual vertex is not pendant or its
        neighbor is residual too."""
        paths, used = system
        residual = _mask(p) & _mask(q) & ~used  # the system covers I
        edge_id = self.edge_id
        edge_ids = [
            edge_id[(a, b) if a < b else (b, a)] for path in paths for a, b in zip(path, path[1:])
        ]
        for r in _vertices(residual):
            if len(self.steps[r]) != 1:
                return None
            ((w, bit),) = self.steps[r]
            if residual & bit:
                return None
            edge_ids.append(edge_id[(r, w) if r < w else (w, r)])
        pair = BoundaryPair(p, q)
        sign = term_sign(PathSystem(paths, _vertices(residual)), pair)
        return AdmissibleRow(pair, tuple(sorted(edge_ids)), sign)


def enumerate_path_systems(net: Network, pair: BoundaryPair) -> list[PathSystem]:
    """All vertex-disjoint path systems connecting P\\Q to Q\\P through
    I + (P&Q), by DFS in ascending-neighbor order with dead-end pruning.

    When P = Q the single empty system (everything residual) is
    returned. More than MAX_SYSTEMS systems raise TooManySystems.
    """
    pair.validate_for(net.n_boundary)
    graph = _SearchGraph(net)
    p_mask, q_mask = _mask(pair.p), _mask(pair.q)
    allowed = graph.interior | (p_mask & q_mask)
    systems: list[PathSystem] = []

    def visit(paths, used):
        if len(systems) == MAX_SYSTEMS:
            raise TooManySystems(
                f"more than {MAX_SYSTEMS} path systems for pair {pair.p}->{pair.q}"
            )
        systems.append(PathSystem(paths, _vertices(allowed & ~used)))
        return False

    graph.search(p_mask, q_mask, visit)
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


def expand_det(net: Network, pair: BoundaryPair) -> tuple[list[PathTerm], float, float]:
    """Evaluate the disjoint-path expansion of det K(P+I, Q+I).

    Returns the term list, its total and the reference determinant of
    K(P+I, Q+I) computed directly; raises ExpansionMismatch when the
    total and the reference disagree.
    """
    k = kirchhoff(net)
    edge_by_pair = net.edge_lookup()
    gamma = {e.id: e.gamma for e in net.edges}
    systems = enumerate_path_systems(net, pair)
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
        value = term.value(gamma)
        total += value
        mag += abs(value)
        terms.append(term)
    interior = set(net.interior_vertices)
    rows = sorted(set(pair.p) | interior)
    cols = sorted(set(pair.q) | interior)
    sub = submatrix(k, rows, cols)
    ref = float(np.linalg.det(sub))
    tol = EXPANSION_RTOL * max(abs(ref), abs(total), mag) + det_roundoff(sub)
    if abs(total - ref) > tol:
        raise ExpansionMismatch(
            f"pair {pair.p}->{pair.q}: expansion total {total!r} vs determinant {ref!r}"
        )
    return terms, total, ref


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
    pair.validate_for(net.n_boundary)
    graph = _SearchGraph(net)
    system = graph.unique_system(_mask(pair.p), _mask(pair.q))
    return None if system is None else graph.row(pair.p, pair.q, system)


def covering_family_counts(net: Network, max_pair_size: int) -> dict[tuple[int, int], int]:
    """Count, per endpoint core, the chordless path families that cover I.

    A family is a set of vertex-disjoint paths, each joining two boundary
    vertices through interior vertices and non-pendant boundary vertices,
    that together cover every interior vertex; with no interior vertices
    the empty family counts too. Its paths plus the boundary vertices
    inside them number at most max_pair_size. Oriented from P to Q, a
    family is a covering path system of its core (P, Q): P holds the path
    starts, Q the path ends, and both hold the boundary vertices inside
    the paths.

    A family is left out when one of its paths has a chord, an edge
    between two of its vertices that are not consecutive on it: the
    shortcut along the chord is a second system of the same core, so that
    core has no unique system. Returns the number of chordless families
    of each core that has one, keyed by the core's (P, Q) vertex bitmasks
    (bit v is vertex v), with P before Q lexicographically: the mirror
    (Q, P) has the same systems reversed.

    The walk builds each family once, its paths ordered by their lower
    end and each starting there, and gives up a branch as soon as an
    uncovered interior vertex has fewer than two neighbors left that a
    path can still pass through.
    """
    graph = _SearchGraph(net)
    steps, masks, interior, boundary = graph.steps, graph.masks, graph.interior, graph.boundary
    inner = boundary & ~graph.pendants  # degree 2 or more: no step reaches degree 0
    counts: dict[tuple[int, int], int] = {}
    ends: list[tuple[int, int]] = []  # (lower end, upper end) of each finished path

    def record(shared: int) -> None:
        # the first path runs from the lowest endpoint, which puts it in
        # P and so P before Q; every other path runs either way
        cores = [(shared, shared)]
        for i, (s, t) in enumerate(ends):
            s_bit, t_bit = 1 << s, 1 << t
            cores = [(p | s_bit, q | t_bit) for p, q in cores] + (
                [(p | t_bit, q | s_bit) for p, q in cores] if i else []
            )
        for core in cores:
            counts[core] = counts.get(core, 0) + 1

    def next_path(first: int, used: int, cost: int, shared: int) -> None:
        if not interior & ~used:
            record(shared)
        if cost < max_pair_size:
            for s in _vertices(boundary & ~used & ~((2 << first) - 1)):
                extend(s, s, 1 << s, used | 1 << s, cost + 1, shared)

    def extend(s: int, u: int, path: int, used: int, cost: int, shared: int) -> None:
        # a later path end lies above s, so a lower unused boundary
        # vertex can only lie inside a path
        usable = (interior | inner | boundary & ~((2 << s) - 1)) & ~used | 1 << u
        uncovered = interior & ~used
        while uncovered:
            low = uncovered & -uncovered
            if (masks[low.bit_length() - 1] & usable).bit_count() < 2:
                return
            uncovered ^= low
        behind = path & ~(1 << u)  # a step next to these would leave a chord
        for w, bit in steps[u]:
            if used & bit or masks[w] & behind:
                continue
            if not boundary & bit:
                extend(s, w, path | bit, used | bit, cost, shared)
                continue
            if w > s:
                ends.append((s, w))
                next_path(s, used | bit, cost, shared)
                ends.pop()
            if inner & bit and cost < max_pair_size:
                extend(s, w, path | bit, used | bit, cost + 1, shared | bit)

    try:
        next_path(0, 0, 0, 0)
    except RecursionError:
        raise TooManySystems(_TOO_DEEP) from None
    return counts


def admissible_rows(net: Network, max_pair_size: int) -> Iterator[AdmissibleRow]:
    """The rows of the admissible pairs with |P| = |Q| <= max_pair_size,
    lazily, in candidate order: increasing |P|, then lexicographic, with
    (Q,P) skipped after (P,Q) (Lambda is symmetric, so both give the
    same determinant).

    A shared vertex of degree 1 never lies inside a path, so a pair has
    the path systems of its core (the pair without its shared pendant
    vertices), those vertices added to the residual. An admissible pair's
    unique system covers I, passes through every other shared vertex and
    has no chord, so its core has exactly one chordless covering family
    (covering_family_counts). Only those cores are searched, by the full
    search, which also sees the systems that leave a vertex out. Each
    core found to have a unique covering system gives the candidates of
    a size by adding shared pendant vertices; candidates are built one
    size at a time, so the sizes a caller never reaches cost nothing
    beyond the walk.
    """
    graph = _SearchGraph(net)
    pendants = graph.boundary & graph.pendants
    counts = covering_family_counts(net, max_pair_size)
    # searched smallest first, as the sizes are reached
    cores = sorted((core for core, n in counts.items() if n == 1), key=lambda c: -c[0].bit_count())
    unique: list[tuple[int, int, tuple]] = []  # (p_mask, q_mask, system) per core found unique
    for size in range(1, max_pair_size + 1):
        while cores and cores[-1][0].bit_count() <= size:
            p_mask, q_mask = cores.pop()
            system = graph.unique_system(p_mask, q_mask)
            if system is not None:
                unique.append((p_mask, q_mask, system))
        candidates = []
        for p_mask, q_mask, system in unique:
            free = _vertices(pendants & ~(p_mask | q_mask))
            for extra in combinations(free, size - p_mask.bit_count()):
                shared = _mask(extra)
                candidates.append((_vertices(p_mask | shared), _vertices(q_mask | shared), system))
        candidates.sort()
        for p, q, system in candidates:
            row = graph.row(p, q, system)
            if row is not None:
                yield row
