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
    bitmask, plus the interior and degree-1 vertex bitmasks and the edge
    ids. Vertex sets are int bitmasks (bit v is vertex v)."""

    __slots__ = ("steps", "masks", "interior", "pendants", "edge_id")

    def __init__(self, net: Network):
        adj = net.adjacency()
        vertices = range(1, net.n_vertices + 1)
        self.steps = [()] + [tuple((w, 1 << w) for w in adj[v]) for v in vertices]
        self.masks = [0] + [_mask(adj[v]) for v in vertices]
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

        return next_system(0, 0)

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


def enumerate_path_systems(
    net: Network, pair: BoundaryPair, max_systems: int = DEFAULT_MAX_SYSTEMS
) -> list[PathSystem]:
    """All vertex-disjoint path systems connecting P\\Q to Q\\P through
    I + (P&Q), by DFS in ascending-neighbor order with dead-end pruning.

    When P = Q the single empty system (everything residual) is
    returned. More than max_systems systems raise TooManySystems.
    """
    pair.validate_for(net.n_boundary)
    graph = _SearchGraph(net)
    p_mask, q_mask = _mask(pair.p), _mask(pair.q)
    allowed = graph.interior | (p_mask & q_mask)
    systems: list[PathSystem] = []

    def visit(paths, used):
        if len(systems) == max_systems:
            raise TooManySystems(
                f"more than {max_systems} path systems for pair {pair.p}->{pair.q}"
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
    ref = kirchhoff_subdet(k, rows, cols)
    sub = submatrix(k.entries, rows, cols)
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


def admissible_rows(net: Network, max_pair_size: int) -> Iterator[AdmissibleRow]:
    """The rows of the admissible pairs with |P| = |Q| <= max_pair_size,
    lazily, in candidate order: increasing |P|, then lexicographic, with
    (Q,P) skipped after (P,Q) (Lambda is symmetric, so both give the
    same determinant).

    One search graph serves the whole scan. A shared vertex of degree 1
    never lies inside a path, so a pair has the path systems of its core
    (the pair without its shared pendant vertices), those vertices added
    to the residual. A core's search result is kept for reuse only when
    the core is smaller than max_pair_size: a pair's core is never larger
    than the pair, and a core of the largest size is never met again.
    """
    graph = _SearchGraph(net)
    cores: dict[tuple[int, int], Optional[tuple]] = {}
    indices = range(1, net.n_boundary + 1)
    for size in range(1, max_pair_size + 1):
        subsets = [(s, _mask(s)) for s in combinations(indices, size)]
        for i, (p, p_mask) in enumerate(subsets):
            for q, q_mask in subsets[i:]:
                shared_pendants = p_mask & q_mask & graph.pendants
                core = (p_mask ^ shared_pendants, q_mask ^ shared_pendants)
                if core in cores:
                    system = cores[core]
                else:
                    system = graph.unique_system(*core)
                    if size - shared_pendants.bit_count() < max_pair_size:
                        cores[core] = system
                if system is not None:
                    row = graph.row(p, q, system)
                    if row is not None:
                        yield row
