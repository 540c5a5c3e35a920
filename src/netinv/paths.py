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

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional

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


@dataclass(frozen=True)
class PathTerm:
    """One expansion term: sign * prod(gamma over monomial edges)
    * residual_det."""

    system: PathSystem
    sign: int
    monomial: tuple[int, ...]  # edge ids on the paths, ascending
    residual_det: float


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
    the edge id of each ordered vertex pair. Vertex sets are int bitmasks
    (bit v is vertex v)."""

    __slots__ = ("steps", "masks", "boundary", "interior", "pendants", "edge_id")

    def __init__(self, net: Network):
        adj = net.adjacency()
        vertices = range(1, net.n_vertices + 1)
        self.steps = [()] + [tuple((w, 1 << w) for w in adj[v]) for v in vertices]
        self.masks = [0] + [_mask(adj[v]) for v in vertices]
        self.boundary = _mask(range(1, net.n_boundary + 1))
        self.interior = _mask(net.interior_vertices)
        self.pendants = _mask(v for v in vertices if len(adj[v]) == 1)
        self.edge_id = {pair: e.id for e in net.edges for pair in (e.pair, e.pair[::-1])}

    def search(self, p_mask: int, q_mask: int, visit) -> None:
        """Walk the path systems of the pair with vertex masks (p_mask,
        q_mask), from the sources P\\Q (ascending) to the sinks Q\\P
        through I + (P&Q), depth first in ascending-neighbor order with
        dead-end pruning, and call visit(paths, used) on each; `used` is
        the bitmask of the vertices on the paths. A visit that wants the
        walk to stop raises, and the exception propagates."""
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

        def next_system(i: int, used: int) -> None:
            if i == len(sources):
                visit(tuple(paths), used)
            # every remaining source must still reach an unused sink
            elif all(reaches(s, used) for s in sources[i:]):
                extend(i, [sources[i]], used | 1 << sources[i])

        def extend(i: int, path: list[int], used: int) -> None:
            for w, bit in steps[path[-1]]:
                if used & bit:
                    continue
                if sinks & bit:
                    paths.append((*path, w))
                    next_system(i + 1, used | bit)
                    paths.pop()
                elif allowed & bit:
                    path.append(w)
                    extend(i, path, used | bit)
                    path.pop()

        try:
            next_system(0, 0)
        except RecursionError:
            raise TooManySystems(_TOO_DEEP) from None

    def sole_system(self, p_mask: int, q_mask: int, family) -> Optional[tuple]:
        """The paths of the core (p_mask, q_mask), each from P to Q and
        ordered by source, when `family`, its one chordless covering family
        (per path, its vertices from its lower end), is its only path
        system, else None. Any other system leaves a vertex of
        A = I + (P&Q) out, or has a chord whose shortcut does; so, by
        Menger's theorem, there is one iff some path s = v_0, ..., v_m, t
        has an augmenting path from s to t around one of v_1..v_m in the
        split-vertex residual graph of the other paths, where entering a
        used vertex (a sink too) leads back to the out-side of every vertex
        before it on its path, its source included. With no chord, such a
        route leaves the path at some v_l and comes back past v_(l+1): so
        launch l = 0..m-1 adds v_l to one growing search that never walks
        along the path, and touching a v_i with i >= l + 2 finds one."""
        masks = self.masks
        paths = sorted(path if p_mask >> path[0] & 1 else path[::-1] for path in family)
        before = {}  # before[u]: the vertices preceding u on its path
        for path in paths:
            prefix = 0
            for u in path:
                before[u] = prefix
                prefix |= 1 << u
        used = p_mask | q_mask | self.interior  # the family covers I and passes P and Q
        for path in paths:
            far = before[path[-1]] ^ 1 << path[0] | 1 << path[-1]  # the path past v_(l+1)
            others, reached = used & ~far & ~(1 << path[0]), 0
            for l in range(len(path) - 2):
                far ^= 1 << path[l + 1]
                frontier = 1 << path[l]
                while frontier:
                    step = 0
                    while frontier:
                        low = frontier & -frontier
                        step |= masks[low.bit_length() - 1]
                        frontier ^= low
                    if step & far:
                        return None
                    hit = step & others
                    while hit:
                        low = hit & -hit
                        frontier |= before[low.bit_length() - 1]
                        hit ^= low
                    frontier &= ~reached
                    reached |= frontier
        return tuple(paths)


def enumerate_path_systems(net: Network, pair: BoundaryPair) -> list[PathSystem]:
    """All vertex-disjoint path systems connecting P\\Q to Q\\P through
    I + (P&Q), by DFS in ascending-neighbor order with dead-end pruning.

    When P = Q the single empty system (everything residual) is
    returned. More than MAX_SYSTEMS systems raise TooManySystems.
    """
    pair.validate_for(net.n_boundary)
    return _path_systems(_SearchGraph(net), pair)


def _path_systems(graph: _SearchGraph, pair: BoundaryPair) -> list[PathSystem]:
    """enumerate_path_systems on a built search graph and a valid pair."""
    p_mask, q_mask = _mask(pair.p), _mask(pair.q)
    allowed = graph.interior | (p_mask & q_mask)
    systems: list[PathSystem] = []

    def visit(paths, used):
        if len(systems) == MAX_SYSTEMS:
            raise TooManySystems(
                f"more than {MAX_SYSTEMS} path systems for pair {pair.p}->{pair.q}"
            )
        systems.append(PathSystem(paths, _vertices(allowed & ~used)))

    graph.search(p_mask, q_mask, visit)
    return systems


def expand_det(net: Network, pair: BoundaryPair) -> tuple[list[PathTerm], float, float]:
    """Evaluate the disjoint-path expansion of det K(P+I, Q+I).

    Returns the term list, its total and the reference determinant of
    K(P+I, Q+I) computed directly; raises ExpansionMismatch when the
    total and the reference disagree.
    """
    k = kirchhoff(net)
    pair.validate_for(net.n_boundary)
    graph = _SearchGraph(net)
    gamma = {e.id: e.gamma for e in net.edges}
    terms: list[PathTerm] = []
    total = 0.0
    mag = 0.0
    for system in _path_systems(graph, pair):
        edge_ids, sign = _system_row(system.paths, graph.edge_id, system.residual)
        residual_det = kirchhoff_subdet(k, system.residual, system.residual)
        monomial = tuple(sorted(edge_ids))
        value = sign * math.prod((gamma[eid] for eid in monomial), start=1.0) * residual_det
        total += value
        mag += abs(value)
        terms.append(PathTerm(system, sign, monomial, residual_det))
    interior = set(net.interior_vertices)
    sub = submatrix(k, set(pair.p) | interior, set(pair.q) | interior)
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


def covering_families(graph: _SearchGraph, max_pair_size: int) -> dict[tuple, Optional[tuple]]:
    """The chordless path families that cover I, per endpoint core.

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
    core has no unique system. Returns, for each core that has a
    chordless family, keyed by the core's (P, Q) vertex bitmasks (bit v
    is vertex v) with P before Q lexicographically (the mirror (Q, P) has
    the same systems reversed): its family when it has only one, per path
    its vertices in walk order, from its lower end; else None.

    The walk builds each family once, its paths ordered by their lower
    end and each starting there, and gives up a branch as soon as an
    uncovered interior vertex has fewer than two neighbors left that a
    path can still pass through. Once a path brings the cost to
    max_pair_size it is the last: no path can start and no inner boundary
    vertex be passed after it, so every uncovered interior vertex lies on
    its rest. Each step then goes to the tip's one uncovered neighbor (a
    second would be a chord later), in a loop, and a path that would be
    the last starts only when the uncovered vertices induce a path,
    from a boundary vertex next to one of its ends.
    """
    steps, masks, interior, boundary = graph.steps, graph.masks, graph.interior, graph.boundary
    inner = boundary & ~graph.pendants  # degree 2 or more: no step reaches degree 0
    families: dict[tuple[int, int], Optional[tuple]] = {}
    ends: list[tuple[int, ...]] = []  # the finished paths, each from its lower end

    def record(shared: int) -> None:
        # the first path runs from the lowest endpoint, which puts it in
        # P and so P before Q; every other path runs either way
        cores = [(shared, shared)]
        for i, path in enumerate(ends):
            s_bit, t_bit = 1 << path[0], 1 << path[-1]
            cores = [(p | s_bit, q | t_bit) for p, q in cores] + (
                [(p | t_bit, q | s_bit) for p, q in cores] if i else []
            )
        family = tuple(ends)
        for core in cores:
            families[core] = None if core in families else family

    def next_path(first: int, used: int, cost: int, shared: int) -> None:
        uncovered = interior & ~used
        if not uncovered:
            record(shared)
        if cost < max_pair_size:
            starts = boundary & ~used & ~((2 << first) - 1)
            if uncovered and cost + 1 == max_pair_size:
                starts &= path_ends(uncovered)
            for s in _vertices(starts):
                extend([s], 1 << s, used | 1 << s, cost + 1, shared, uncovered)

    def path_ends(vertices: int) -> int:
        # the neighbors of the ends of G[vertices] when it can be a path:
        # no vertex with three neighbors in it, one edge fewer than vertices
        ends = degrees = 0
        for v in _vertices(vertices):
            degree = (masks[v] & vertices).bit_count()
            if degree > 2:
                return 0
            degrees += degree
            if degree < 2:
                ends |= masks[v]
        return ends if degrees == 2 * vertices.bit_count() - 2 else 0

    def last_path(walk: list, path: int, used: int, shared: int) -> None:
        # the uncovered interior lies on the rest of this path, in order
        s, u = walk[0], walk[-1]
        rest = []
        left = interior & ~used
        while left:
            step = masks[u] & left
            if not step or step & (step - 1):
                return  # no uncovered neighbor, or a second one left for a chord
            w = step.bit_length() - 1
            if masks[w] & path & ~(1 << u):
                return  # a chord
            rest.append(w)
            path |= step
            left ^= step
            u = w
        behind = path & ~(1 << u)
        for t in _vertices(masks[u] & boundary & ~used & ~((2 << s) - 1)):
            if not masks[t] & behind:
                ends.append((*walk, *rest, t))
                record(shared)
                ends.pop()

    def extend(walk: list, path: int, used: int, cost: int, shared: int, check: int) -> None:
        # walk: the path's vertices from its start s, path: their bitmask.
        # A later path end lies above s, so a lower unused boundary vertex
        # can only lie inside a path
        if cost == max_pair_size:
            return last_path(walk, path, used, shared)
        s, u = walk[0], walk[-1]
        usable = (interior | inner | boundary & ~((2 << s) - 1)) & ~used | 1 << u
        while check:
            low = check & -check
            if (masks[low.bit_length() - 1] & usable).bit_count() < 2:
                return
            check ^= low
        # a step leaves u: only u's uncovered neighbors lose a usable neighbor
        left = masks[u] & interior & ~used
        behind = path & ~(1 << u)  # a step next to these would leave a chord
        for w, bit in steps[u]:
            if used & bit or masks[w] & behind:
                continue
            walk.append(w)
            if not boundary & bit:
                extend(walk, path | bit, used | bit, cost, shared, left & ~bit)
            else:
                if w > s:
                    ends.append(tuple(walk))
                    next_path(s, used | bit, cost, shared)
                    ends.pop()
                if inner & bit:
                    extend(walk, path | bit, used | bit, cost + 1, shared | bit, left)
            walk.pop()

    try:
        next_path(0, 0, 0, 0)
    except RecursionError:
        raise TooManySystems(_TOO_DEEP) from None
    return families


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
    (covering_families). Each of those cores is checked once for a
    second system, by one growing search per path
    (_SearchGraph.sole_system). Each core whose family is its only system
    gives its edge ids and sign once, and the candidates of a size by
    adding shared pendant vertices that are not joined to each other;
    candidates are built one size at a time, so the sizes a caller never
    reaches cost nothing beyond the walk and the checks.
    """
    graph = _SearchGraph(net)
    masks, edge_id, pendants = graph.masks, graph.edge_id, graph.boundary & graph.pendants
    pendant_edge = {r: edge_id[r, w] for r in _vertices(pendants) for w, _ in graph.steps[r]}
    cores = []  # per core found unique: |P|, P, Q, free pendants, odd ones, edge ids, sign
    for (p_mask, q_mask), family in covering_families(graph, max_pair_size).items():
        paths = None if family is None else graph.sole_system(p_mask, q_mask, family)
        if paths is not None:
            free = _vertices(pendants & ~(p_mask | q_mask))
            # adding r flips the sign by (-1)^(r's row + column position), I lying above r
            odd = _mask(r for r in free if ((p_mask ^ q_mask) & ((1 << r) - 1)).bit_count() & 1)
            p, q = _vertices(p_mask), _vertices(q_mask)
            cores.append((len(p), p, q, free, odd, *_system_row(paths, edge_id, ())))
    for size in range(1, max_pair_size + 1):
        candidates = []
        for k, p, q, free, odd, edge_ids, sign in cores:
            if k > size:
                continue
            for extra in combinations(free, size - k):
                shared = _mask(extra)
                if not any(masks[r] & shared for r in extra):
                    row_p, row_q = tuple(sorted(p + extra)), tuple(sorted(q + extra))
                    candidates.append((row_p, row_q, extra, odd & shared, edge_ids, sign))
        candidates.sort()
        for p, q, extra, flips, edge_ids, sign in candidates:
            edges = tuple(sorted(edge_ids + [pendant_edge[r] for r in extra]))
            yield AdmissibleRow(BoundaryPair(p, q), edges, -sign if flips.bit_count() & 1 else sign)


def _system_row(paths, edge_id, residual) -> tuple[list[int], int]:
    """The edge ids on a path system's paths, each from P to Q, and its
    expansion term sign. The system induces a bijection phi from the rows
    P + I to the columns Q + I, both ascending: each path maps every
    vertex to its successor, and phi is the identity on the residual.
    The sign is sign(phi), from its inversions, times (-1)^(edge count)."""
    phi, edge_ids = {r: r for r in residual}, []
    for path in paths:
        for a, b in zip(path, path[1:]):
            phi[a] = b
            edge_ids.append(edge_id[a, b])
    placed = inversions = 0  # the columns phi has hit so far
    for r in sorted(phi):
        inversions += (placed >> phi[r]).bit_count()
        placed |= 1 << phi[r]
    return edge_ids, -1 if (inversions + len(edge_ids)) & 1 else 1
