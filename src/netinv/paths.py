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
from itertools import combinations, product
from typing import Iterator, Optional

import numpy as np

from .errors import ExpansionMismatch, TooManySystems
from .forward import BoundaryPair, det_roundoff, kirchhoff_subdet, submatrix
from .network import Network, kirchhoff

#: Cap on the systems enumerated per pair; exceeded means the pair is
#: beyond desk scale and the caller gets TooManySystems.
MAX_SYSTEMS = 10**6

#: Cap on the rows compile_topology stores in one plan, each about 1 KB
#: with its pair and edge ids, until the scan streams; exceeded means the
#: plan is beyond desk scale and the caller gets TooManySystems.
MAX_ROWS = 10**6

#: Both walks, enumerate_path_systems and _covering_orbits, recurse once
#: per path vertex; past the recursion limit they have run out of budget.
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
    """The topology data the admissibility scan reads, built once per
    network: per vertex its ascending (neighbor, bit) steps, its neighbor
    bitmask and its twin class, the pendant boundary vertices hung on it,
    ascending; plus the boundary, interior and degree-1 vertex bitmasks and
    the edge id of each ordered vertex pair. Vertex sets are int bitmasks
    (bit v is vertex v). Two vertices of one twin class swap by an
    automorphism of the network that fixes every other vertex."""

    __slots__ = ("steps", "masks", "twins", "boundary", "interior", "pendants", "edge_id")

    def __init__(self, net: Network):
        adj = net.adjacency()
        vertices = range(1, net.n_vertices + 1)
        self.steps = [()] + [tuple((w, 1 << w) for w in adj[v]) for v in vertices]
        self.masks = [0] + [_mask(adj[v]) for v in vertices]
        self.boundary = _mask(range(1, net.n_boundary + 1))
        self.interior = _mask(net.interior_vertices)
        self.pendants = _mask(v for v in vertices if len(adj[v]) == 1)
        hung = self.boundary & self.pendants
        self.twins = [()] + [tuple(w for w in adj[v] if hung >> w & 1) for v in vertices]
        self.edge_id = {pair: e.id for e in net.edges for pair in (e.pair, e.pair[::-1])}

    def twin_ends(self, path: tuple) -> tuple[tuple, tuple]:
        """The vertices that the start and the end of a walked family's
        path (_covering_orbits) take over the families of its orbit: an
        end at the lowest twin of a class takes any twin of it, any other
        end only itself. On a-v-b between the two lowest twins of v, the
        one path with both ends in one class, both are that class, and
        the ends take any two of it; for every other path the two
        differ."""
        hung = self.twins[path[1]]
        if len(hung) > 1 and hung[0] == path[0]:
            if len(path) == 3 and path[2] == hung[1]:
                return hung, hung
            starts = hung
        else:
            starts = path[:1]
        hung = self.twins[path[-2]]
        return starts, hung if len(hung) > 1 and hung[0] == path[-1] else path[-1:]

    def variants(self, path: tuple) -> list:
        """A walked family's path in each family of its orbit, the walked
        one first (twin_ends): from its lower end, with the bits of its
        ends in walk order."""
        starts, ends = self.twin_ends(path)
        if starts == ends:
            return [((a, path[1], b), 1 << a, 1 << b) for a, b in combinations(starts, 2)]
        middle, back = path[1:-1], path[-2:0:-1]
        return [((s, *middle, t) if s < t else (t, *back, s), 1 << s, 1 << t) for s in starts for t in ends]

    def sole_system(self, p_mask: int, q_mask: int, family) -> bool:
        """Whether `family`, the one chordless covering family of the core
        (p_mask, q_mask) (per path, its vertices from its lower end), is
        its only path system. Any other system leaves a vertex of
        A = I + (P&Q) out, or has a chord whose shortcut does; so, by
        Menger's theorem, there is one iff some path s = v_0, ..., v_m, t,
        run from P to Q, has an augmenting path from s to t around one of
        v_1..v_m in the split-vertex residual graph of the other paths,
        where entering a used vertex (a sink too) leads back to the
        out-side of every vertex before it on its path, its source
        included. With no chord, such a route leaves the path at some v_l
        and comes back past v_(l+1): so launch l = 0..m-1 adds v_l to one
        growing search that never walks along the path, and touching a v_i
        with i >= l + 2 finds one."""
        paths = [path if p_mask >> path[0] & 1 else path[::-1] for path in family]
        masks = self.masks
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
                        return False
                    hit = step & others
                    while hit:
                        low = hit & -hit
                        frontier |= before[low.bit_length() - 1]
                        hit ^= low
                    frontier &= ~reached
                    reached |= frontier
        return True


def enumerate_path_systems(net: Network, pair: BoundaryPair) -> list[PathSystem]:
    """All vertex-disjoint path systems connecting P\\Q to Q\\P through
    I + (P&Q), by DFS in ascending-neighbor order, sources ascending.

    When P = Q the single empty system (everything residual) is
    returned. When two sources, or two sinks, are pendant vertices hung on
    one vertex, both paths would need that vertex, so no system is
    returned at once. More than MAX_SYSTEMS systems, or a path deeper than
    the recursion limit allows, raise TooManySystems.
    """
    pair.validate_for(net.n_boundary)
    adj = net.adjacency()
    steps = {v: tuple((w, 1 << w) for w in ws) for v, ws in adj.items()}
    p_mask, q_mask = _mask(pair.p), _mask(pair.q)
    sources = _vertices(p_mask & ~q_mask)
    sinks = q_mask & ~p_mask
    for ends in (sources, _vertices(sinks)):
        hubs = [adj[v][0] for v in ends if len(adj[v]) == 1]
        if len(set(hubs)) < len(hubs):
            return []
    allowed = _mask(net.interior_vertices) | (p_mask & q_mask)
    systems: list[PathSystem] = []
    paths: list[tuple[int, ...]] = []

    def next_system(i: int, used: int) -> None:
        if i < len(sources):
            return extend(i, [sources[i]], used | 1 << sources[i])
        if len(systems) == MAX_SYSTEMS:
            raise TooManySystems(
                f"more than {MAX_SYSTEMS} path systems for pair {pair.p}->{pair.q}"
            )
        systems.append(PathSystem(tuple(paths), _vertices(allowed & ~used)))

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
    finally:
        del next_system, extend  # as in _covering_orbits: break the closures' cycles
    return systems


def _term_sign(p_mask: int, q_mask: int, ends) -> int:
    """The sign of an expansion term of the pair with vertex masks
    (p_mask, q_mask) whose paths join the (source, sink) pairs `ends`:
    (-1)^(number of paths), times the sign of the sinks in source order,
    times (-1)^|{u in P^Q : u < v}| per shared vertex v in P&Q. This holds
    because every interior vertex is numbered above every boundary
    vertex: the rows P + I and the columns Q + I both end in I, and moving
    each shared vertex behind the sources and the sinks gives its factor.
    Then, with each sink standing in for the source of its rank, a cycle
    of the sinks' permutation is one cycle of the term's bijection, and
    K's -gamma on each of its edges leaves -1. A path's route and length
    drop out, and so does whether a shared vertex lies on a path."""
    odd, placed = len(ends), 0
    for _, t in sorted(ends):
        odd += (placed >> t).bit_count()  # the sinks above t placed before it
        placed |= 1 << t
    shared = p_mask & q_mask
    if shared:
        moved = p_mask ^ q_mask
        odd += sum((moved & ((1 << v) - 1)).bit_count() for v in _vertices(shared))
    return -1 if odd & 1 else 1


def expand_det(net: Network, pair: BoundaryPair) -> tuple[list[PathTerm], float, float]:
    """Evaluate the disjoint-path expansion of det K(P+I, Q+I).

    Returns the term list, its total and the reference determinant of
    K(P+I, Q+I) computed directly; raises ExpansionMismatch when the
    total and the reference disagree.
    """
    k = kirchhoff(net)
    p_mask, q_mask = _mask(pair.p), _mask(pair.q)
    gamma = {e.id: e.gamma for e in net.edges}
    edge_id = {e.pair: e.id for e in net.edges}
    terms: list[PathTerm] = []
    total = mag = 0.0
    for system in enumerate_path_systems(net, pair):
        sign = _term_sign(p_mask, q_mask, [(path[0], path[-1]) for path in system.paths])
        residual_det = kirchhoff_subdet(k, system.residual, system.residual)
        steps = (tuple(sorted(e)) for path in system.paths for e in zip(path, path[1:]))
        monomial = tuple(sorted(edge_id[e] for e in steps))
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


def _covering_orbits(graph: _SearchGraph, max_pair_size: int) -> tuple[dict, list]:
    """The chordless path families that cover I, one per orbit of twin
    swaps, with their endpoint cores, and which cores have one family.

    A family is a set of vertex-disjoint paths, each joining two boundary
    vertices through interior vertices and non-pendant boundary vertices,
    that together cover every interior vertex; with no interior vertices
    the empty family counts too. Its paths plus the boundary vertices
    inside them number at most max_pair_size. Oriented from P to Q, a
    family is a covering path system of its core (P, Q): P holds the path
    starts, Q the path ends, and both hold the boundary vertices inside
    the paths. A family with a chord on a path, an edge between two of
    its vertices not consecutive on it, is left out: the shortcut is a
    second system of the same core.

    Two pendant boundary vertices hung on one vertex v, twins, swap by an
    automorphism of the network. So the walk builds one family per orbit
    of such swaps: only the lowest twin of v ends a path, except on the
    path a-v-b between its two lowest twins; callers relabel the rest
    (_SearchGraph.variants). The orbits are one (family, cores) pair per
    walked family. Its cores run its first path from its lower end, which
    puts the lowest endpoint in P and so P before Q (the mirror (Q, P)
    has the same systems reversed), and the others either way.

    The dict holds the walked cores only, keyed by their (P, Q) vertex
    bitmasks (bit v is vertex v): the walked family when it is the core's
    only one, else None. The walk's labels make that answer whole: a
    walked core's twins are the lowest of their class, or the two lowest
    on a-v-b, so every family of the core has the same twin ends, was
    walked, and has the core among its cores. A swap maps the families
    of a core one to one onto those of its image, so every image of a
    walked core has one family exactly when the core has.

    The walk builds each walked family once, its paths ordered by their
    lower end and each starting there, and gives up a branch as soon as
    an uncovered interior vertex has fewer than two neighbors left that a
    path can still pass through or end at. Once a path brings the cost to
    max_pair_size it is the last: no path can start and no inner boundary
    vertex be passed after it, so every uncovered interior vertex lies on
    its rest. Each step then goes to the tip's one uncovered neighbor (a
    second would be a chord later), in a loop, and a path that would be
    the last starts only when the uncovered vertices induce a path,
    from a boundary vertex next to one of its ends.
    """
    steps, masks, twins = graph.steps, graph.masks, graph.twins
    interior, boundary = graph.interior, graph.boundary
    inner = boundary & ~graph.pendants  # degree 2 or more: no step reaches degree 0
    # the twins no path starts or ends at, other than the second end of a-v-b
    spare = _mask(w for hung in twins for w in hung[1:])
    hub = {hung[0]: v for v, hung in enumerate(twins) if len(hung) > 1}  # lowest twin: v
    families: dict[tuple[int, int], Optional[tuple]] = {}
    orbits: list[tuple] = []
    ends: list[tuple[int, ...]] = []  # the finished paths, each from its lower end

    def record(shared: int) -> None:
        # the walked family's cores: the first path runs from the lowest
        # endpoint, which puts it in P and so P before Q; every other path
        # runs either way
        family = tuple(ends)
        cores = [(shared, shared)]
        for i, path in enumerate(family):
            s_bit, t_bit = 1 << path[0], 1 << path[-1]
            cores = [(p | s_bit, q | t_bit) for p, q in cores] + (
                [(p | t_bit, q | s_bit) for p, q in cores] if i else []
            )
        for core in cores:
            families[core] = None if core in families else family
        orbits.append((family, cores))

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
                v = hub.get(s)  # the path a-v-b from s, when s is a lowest twin
                if v and not used >> v & 1:
                    bit = boundary & 1 << v
                    total = cost + 1 + (bit > 0)  # a boundary v inside it costs one more
                    if total <= max_pair_size:
                        ends.append((s, v, twins[v][1]))
                        next_path(s, used | 1 << s | 1 << v, total, shared | bit)
                        ends.pop()

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
        # can only lie inside a path; a spare twin above s counts as usable,
        # as the second end of a-v-b
        if cost == max_pair_size:
            return last_path(walk, path, used, shared)
        s, u = walk[0], walk[-1]
        usable = (interior | inner | boundary & ~((2 << s) - 1)) & (~used | spare) | 1 << u
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
        next_path(0, spare, 0, 0)
    except RecursionError:
        raise TooManySystems(_TOO_DEEP) from None
    finally:
        # next_path and extend call themselves and each other through their
        # closures; emptying both breaks those cycles, so the walk's data is
        # freed when the caller drops it, not at the next full collection
        del next_path, extend
    return families, orbits


def _sole_cores(graph: _SearchGraph, max_pair_size: int) -> Iterator[tuple]:
    """The cores with |P| <= max_pair_size whose one chordless covering
    family is their only path system, by orbit (_covering_orbits): per
    walked family with such a core, its |P|, the family and each such
    core's (P mask, Q mask). The orbit's families are the product of its
    paths' variants (_SearchGraph.variants). A family's cores differ only
    in which way its paths run, so they share |P| and P + Q; a relabeled
    family's are the images of the walked one's, and take their verdicts,
    one family and one system, so only walked cores are tested."""
    families, orbits = _covering_orbits(graph, max_pair_size)
    for walked, cores in orbits:
        kept = [core for core in cores if families[core] is walked and graph.sole_system(*core, walked)]
        if kept:
            yield kept[0][0].bit_count(), walked, kept


def _order_key(mask: int, n: int) -> int:
    """The sum of 2^(n + 1 - v) over the vertices v of `mask`, a subset
    of 1..n: of two sets of one size, the one with the larger key is the
    lexicographically smaller ascending tuple."""
    return int(bin(mask)[:1:-1], 2) << n + 2 - mask.bit_length()  # the bits reversed


def _pendant_edges(graph: _SearchGraph) -> dict[int, int]:
    """Per pendant boundary vertex, the id of its one edge."""
    pendants = _vertices(graph.boundary & graph.pendants)
    return {r: graph.edge_id[r, w] for r in pendants for w, _ in graph.steps[r]}


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
    (_covering_orbits). Both tests run on walked cores only, the second
    by the growing search of _SearchGraph.sole_system (_sole_cores), and
    only the orbits that keep a core are relabeled into their families
    (_SearchGraph.variants), each variant with its edge ids.

    A core whose family is its only system gives the candidates of a
    size by adding shared pendant vertices not joined to each other.
    Candidates are built one size at a time, as integers: with b boundary
    vertices, a pair (P, Q) is keyed as the one set of P and Q's vertices
    moved up by b + 1, whose _order_key is _order_key(P) * 2^(b+1) +
    _order_key(Q). By key, descending, the candidates come in scan order,
    and no two tie, as a pair fixes its core. A candidate's tuples, edge
    ids and sign (_term_sign of its pair) are built only when it is
    yielded, so the sizes and rows a caller never reaches cost nothing
    beyond the walk and the checks.
    """
    graph = _SearchGraph(net)
    shift = net.n_boundary + 1
    n = 2 * shift - 1  # a pair's key is that of a subset of 1..n
    pendants = graph.boundary & graph.pendants
    pendant_edge = _pendant_edges(graph)
    # per pendant r: its bit, the key it adds when shared (in P and in Q), its neighbor
    shares = {r: (1 << r, _order_key(1 << r | 1 << r + shift, n), graph.masks[r]) for r in pendant_edge}
    edge_id = graph.edge_id
    cores = []
    for k, walked, kept in _sole_cores(graph, max_pair_size):
        variants = [
            [(*variant, [edge_id[e] for e in zip(variant[0], variant[0][1:])]) for variant in options]
            for options in map(graph.variants, walked)
        ]
        for choice in product(*variants):
            # each kept core's image, turned to put the lowest endpoint in P
            family = tuple(sorted(path for path, _, _, _ in choice))
            edge_ids = tuple(sorted(eid for *_, ids in choice for eid in ids))
            for p, q in kept:
                p_mask = q_mask = p & q
                for path, (_, s_bit, t_bit, _) in zip(walked, choice):
                    s_bit, t_bit = (s_bit, t_bit) if p >> path[0] & 1 else (t_bit, s_bit)
                    p_mask, q_mask = p_mask | s_bit, q_mask | t_bit
                if family and not p_mask >> family[0][0] & 1:
                    p_mask, q_mask = q_mask, p_mask
                cores.append((k, p_mask, q_mask, family, edge_ids))
    keys = [0] * len(cores)
    free: dict[int, list] = {}  # per core: its free pendants' shares
    for size in range(1, max_pair_size + 1):
        candidates = []
        for i, (k, p_mask, q_mask, _, _) in enumerate(cores):
            if k == size:
                keys[i] = _order_key(p_mask | q_mask << shift, n)
                candidates.append((keys[i], i, 0))
            elif k < size:
                if i not in free:
                    free[i] = [shares[r] for r in _vertices(pendants & ~(p_mask | q_mask))]
                for extra in combinations(free[i], size - k):
                    key, shared, around = keys[i], 0, 0
                    for bit, r_key, neighbor in extra:
                        key += r_key
                        shared |= bit
                        around |= neighbor
                    if not around & shared:
                        candidates.append((key, i, shared))
        candidates.sort(reverse=True)
        for _, i, shared in candidates:
            _, p_mask, q_mask, family, edge_ids = cores[i]
            if shared:
                p_mask, q_mask = p_mask | shared, q_mask | shared
                edge_ids = tuple(sorted(edge_ids + tuple(map(pendant_edge.get, _vertices(shared)))))
            ends = [(s, t) if p_mask >> s & 1 else (t, s) for s, t in ((p[0], p[-1]) for p in family)]
            yield AdmissibleRow(
                BoundaryPair._sorted(_vertices(p_mask), _vertices(q_mask)),
                edge_ids,
                _term_sign(p_mask, q_mask, ends),
            )


def core_census(net: Network, max_pair_size: int) -> Iterator[tuple[int, list, list, tuple]]:
    """admissible_rows' rows, read for a rank certificate with none
    built, one kept orbit at a time (_sole_cores): how many rows its
    cores give with |P| <= max_pair_size, the edge ids of the walked
    family's row, the twin classes it reaches, each as the edge ids of
    its pendants (the lowest twin's first), and the edge ids of the
    pendants free in the walked family, or () when no row has room to
    share one. An end of the walked family at the lowest twin r0 of a
    class reaches that class when it has more than one variant
    (_SearchGraph.twin_ends). With e_r the unit row of pendant r's edge,
    the orbits' walked rows c_W, the differences e_r - e_r0 of the
    classes they reach and the free pendants' e_r span the rows and lie
    in their span:

    - A relabeled family's row is c_W plus, per end it moves from r0 to
      a twin r, e_r - e_r0; on a-v-b, the pair {a, b} in place of the two
      lowest twins is a sum of such differences too.
    - Each difference is itself a row minus c_W: moving an end r0 that
      is not on a-v-b to r gives e_r - e_r0. On a-v-b with three or more
      twins r0 < r1 < ..., the pairs {r1, r} and {r0, r} give e_r - e_r0
      and e_r - e_r1, so every difference follows. With exactly two
      twins, a-v-b has one variant and reaches no class.
    - A row that shares pendants is its core's row plus their unit rows,
      and each unit row is the difference of two rows, its core's with
      and without that one pendant shared. A twin r that a relabeling
      frees is an end of the walked family, in a class it reaches, and
      the walked family leaves the twin r' it moves to free:
      e_r = e_r' - (e_r' - e_r0) + (e_r - e_r0).

    A core of size k gives at size k + m the m-sets of its free pendant
    boundary vertices (those outside P + Q) with no two joined. A pendant
    can be joined only to another pendant, as an isolated edge, so they
    number the coefficient of x^m in (1 + x)^singles (1 + 2x)^couples,
    where couples counts the free pendants joined in twos and singles the
    rest. A twin swap is an automorphism and no twin is joined, so every
    family of an orbit has the walked one's singles and couples; the
    orbit's families number the product of its paths' variant counts. The
    empty core of a network without interior vertices is no row itself:
    its rows start at m = 1.
    """
    graph = _SearchGraph(net)
    edge_id = graph.edge_id
    pendants = graph.boundary & graph.pendants
    pendant_edge = _pendant_edges(graph)
    joined = _mask(r for r in pendant_edge if graph.masks[r] & pendants)
    classes = {hung: tuple(map(pendant_edge.get, hung)) for hung in graph.twins if len(hung) > 1}
    for k, walked, kept in _sole_cores(graph, max_pair_size):
        free = pendants & ~(kept[0][0] | kept[0][1])
        couples = (free & joined).bit_count() // 2
        singles = free.bit_count() - 2 * couples
        count = len(kept) * sum(
            math.comb(couples, j) * 2**j * math.comb(singles, m - j)
            for m in range(k == 0, max_pair_size - k + 1)
            for j in range(min(m, couples) + 1)
        )
        reached = []
        for path in walked:
            starts, ends = graph.twin_ends(path)
            if starts == ends:  # a-v-b: any two of the class, one variant for two
                count *= math.comb(len(starts), 2)
                reached += [classes[starts]] if len(starts) > 2 else []
            else:
                count *= len(starts) * len(ends)
                reached += [classes[hung] for hung in (starts, ends) if len(hung) > 1]
        own = [edge_id[e] for path in walked for e in zip(path, path[1:])]
        extra = tuple(pendant_edge[r] for r in _vertices(free)) if k < max_pair_size else ()
        yield count, own, reached, extra
