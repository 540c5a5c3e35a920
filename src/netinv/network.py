"""Resistor network data model, Kirchhoff matrix assembly, the 8+4
lattice and n x n grid fixtures, seeded random networks, and the
line-based text format.

Vertices are 1-based: boundary vertices are 1..n_boundary, interior
vertices follow. Edge identity is the input ordering (edge_id 1..m), so
recovered conductivities align positionally with the input.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import InteriorNotGrounded, NetworkError, NetworkFormatError


@dataclass(frozen=True)
class Edge:
    id: int
    u: int
    v: int
    gamma: float

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


@dataclass(frozen=True)
class Network:
    """Vertex-partitioned weighted graph with positive conductivities.

    Immutable after construction; all invariants are enforced here so
    downstream operations never re-validate.
    """

    n_boundary: int
    n_interior: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        n = self.n_boundary + self.n_interior
        if self.n_boundary < 0 or self.n_interior < 0:
            raise NetworkError("vertex counts must be non-negative")
        seen_pairs = set()
        for k, e in enumerate(self.edges, start=1):
            if e.id != k:
                raise NetworkError(f"edge ids must be 1..m consecutive, got {e.id} at position {k}")
            fault = _edge_fault(e.u, e.v, e.gamma, n, seen_pairs)
            if fault:
                raise NetworkError(f"edge {e.id}: {fault}")
        grounded = _reach(self.adjacency(), range(1, self.n_boundary + 1))
        for v in self.interior_vertices:
            if v not in grounded:
                raise InteriorNotGrounded(
                    f"interior vertex {v} lies in a component with no boundary vertex"
                )

    @property
    def n_vertices(self) -> int:
        return self.n_boundary + self.n_interior

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def interior_vertices(self) -> tuple[int, ...]:
        return tuple(range(self.n_boundary + 1, self.n_vertices + 1))

    def adjacency(self) -> dict[int, list[int]]:
        """Neighbor lists keyed by vertex, neighbors ascending."""
        adj: dict[int, list[int]] = {v: [] for v in range(1, self.n_vertices + 1)}
        for e in self.edges:
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
        for v in adj:
            adj[v].sort()
        return adj

    def with_gammas(self, gammas) -> "Network":
        """Same topology with replaced conductivities (by edge id order)."""
        if len(gammas) != self.n_edges:
            raise NetworkError(f"expected {self.n_edges} conductivities, got {len(gammas)}")
        new_edges = tuple(
            Edge(e.id, e.u, e.v, float(g)) for e, g in zip(self.edges, gammas)
        )
        return Network(self.n_boundary, self.n_interior, new_edges)


def _edge_fault(u: int, v: int, gamma: float, n: int, seen_pairs: set) -> str | None:
    """The per-edge rule that edge (u, v, gamma) breaks in a graph of n
    vertices whose earlier edges cover `seen_pairs`, or None; a valid
    edge's vertex pair is added to `seen_pairs`."""
    if not (1 <= u <= n and 1 <= v <= n):
        return f"vertex out of range 1..{n}"
    if u == v:
        return f"self-loop at vertex {u}"
    if not (math.isfinite(gamma) and gamma > 0):
        return f"conductivity must be finite and positive, got {gamma}"
    pair = (u, v) if u < v else (v, u)
    if pair in seen_pairs:
        return f"parallel edge on vertex pair {pair}"
    seen_pairs.add(pair)
    return None


def kirchhoff(net: Network) -> np.ndarray:
    """The read-only Kirchhoff matrix (weighted graph Laplacian) of a
    network: off-diagonal (i, j) is -gamma_ij when edge {i, j} exists,
    and the diagonal makes every row sum exactly zero. Its blocks split
    at net.n_boundary: A = k[:b, :b], B = k[:b, b:], C = k[b:, b:].
    ValueError if a vertex's conductivities sum beyond the float range."""
    n = net.n_vertices
    k = np.zeros((n, n))
    with np.errstate(over="ignore"):
        for e in net.edges:
            i, j = e.u - 1, e.v - 1
            k[i, j] -= e.gamma
            k[j, i] -= e.gamma
            k[i, i] += e.gamma
            k[j, j] += e.gamma
    overflowed = np.flatnonzero(~np.isfinite(k.diagonal()))
    if overflowed.size:
        raise ValueError(
            f"conductivities at vertex {overflowed[0] + 1} sum beyond the float range"
        )
    k.flags.writeable = False
    return k


# Lattice with 8 boundary and 4 interior vertices; edge order matches
# the conductivity numbering gamma_1..gamma_12.
LATTICE_EDGE_PAIRS: tuple[tuple[int, int], ...] = (
    (1, 9),
    (9, 12),
    (6, 12),
    (2, 10),
    (10, 11),
    (5, 11),
    (8, 9),
    (9, 10),
    (3, 10),
    (7, 12),
    (11, 12),
    (4, 11),
)


def lattice_fixture(gammas) -> Network:
    """The 8-boundary / 4-interior / 12-edge lattice used throughout
    the test fixtures. `gammas` supplies gamma_1..gamma_12 in order."""
    return _fixture("lattice", 8, 4, LATTICE_EDGE_PAIRS, gammas)


def grid_fixture(n: int, gammas) -> Network:
    """The n x n square grid: n^2 interior cells (row r, column c is
    vertex 4n + 1 + r*n + c) and 4n pendant boundary vertices, one on
    each side cell, numbered clockwise: the top side left to right, the
    right side top to bottom, the bottom side right to left, the left
    side bottom to top. Edge ids run over the pendant edges in boundary
    order, then the horizontal, then the vertical grid edges, 2n^2 + 2n
    in all; `gammas` supplies their conductivities in that order."""
    if n < 1:
        raise NetworkError(f"grid side must be at least 1, got {n}")

    def cell(r: int, c: int) -> int:
        return 4 * n + 1 + r * n + c

    sides = (
        [cell(0, c) for c in range(n)]
        + [cell(r, n - 1) for r in range(n)]
        + [cell(n - 1, c) for c in reversed(range(n))]
        + [cell(r, 0) for r in reversed(range(n))]
    )
    pairs = list(enumerate(sides, start=1))
    pairs += [(cell(r, c), cell(r, c + 1)) for r in range(n) for c in range(n - 1)]
    pairs += [(cell(r, c), cell(r + 1, c)) for r in range(n - 1) for c in range(n)]
    return _fixture(f"{n}x{n} grid", 4 * n, n * n, pairs, gammas)


def _fixture(name: str, n_boundary: int, n_interior: int, pairs, gammas) -> Network:
    """The network whose edge i joins pairs[i - 1] with conductivity
    gammas[i - 1]."""
    gammas = [float(g) for g in gammas]
    if len(gammas) != len(pairs):
        raise NetworkError(f"{name} fixture needs {len(pairs)} conductivities, got {len(gammas)}")
    edges = tuple(Edge(i, u, v, g) for i, ((u, v), g) in enumerate(zip(pairs, gammas), start=1))
    return Network(n_boundary, n_interior, edges)


def parse_network(text: str) -> Network:
    """Parse the line-based network format.

    Format: optional `# comment` and blank lines anywhere; `boundary <n>`
    then `interior <n>` (each exactly once, in that order); then one
    `edge <u> <v> <gamma>` per edge.
    """
    n_boundary = None
    n_interior = None
    edges: list[Edge] = []
    seen_pairs: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        keyword = fields[0]
        if keyword == "boundary":
            if n_boundary is not None:
                raise NetworkFormatError("duplicate 'boundary' line", line_no)
            n_boundary = _parse_count(fields, line_no)
        elif keyword == "interior":
            if n_boundary is None:
                raise NetworkFormatError("'interior' before 'boundary'", line_no)
            if n_interior is not None:
                raise NetworkFormatError("duplicate 'interior' line", line_no)
            n_interior = _parse_count(fields, line_no)
        elif keyword == "edge":
            if n_boundary is None or n_interior is None:
                raise NetworkFormatError("'edge' before 'boundary'/'interior' header", line_no)
            if len(fields) != 4:
                raise NetworkFormatError("expected 'edge <u> <v> <gamma>'", line_no)
            try:
                u, v = int(fields[1]), int(fields[2])
                gamma = float(fields[3])
            except ValueError:
                raise NetworkFormatError(f"cannot parse edge fields {fields[1:]!r}", line_no) from None
            fault = _edge_fault(u, v, gamma, n_boundary + n_interior, seen_pairs)
            if fault:
                raise NetworkFormatError(fault, line_no)
            edges.append(Edge(len(edges) + 1, u, v, gamma))
        else:
            raise NetworkFormatError(f"unknown keyword {keyword!r}", line_no)
    if n_boundary is None or n_interior is None:
        raise NetworkFormatError("missing 'boundary'/'interior' header")
    return Network(n_boundary, n_interior, tuple(edges))


def _parse_count(fields, line_no):
    if len(fields) != 2:
        raise NetworkFormatError(f"expected '{fields[0]} <n>'", line_no)
    try:
        n = int(fields[1])
    except ValueError:
        raise NetworkFormatError(f"cannot parse count {fields[1]!r}", line_no) from None
    if n < 0:
        raise NetworkFormatError("count must be non-negative", line_no)
    return n


def serialize_network(net: Network) -> str:
    """Render a network in the text format; parse(serialize(net)) == net."""
    lines = [f"boundary {net.n_boundary}", f"interior {net.n_interior}"]
    for e in net.edges:
        lines.append(f"edge {e.u} {e.v} {e.gamma:.17g}")
    return "\n".join(lines) + "\n"


MAX_RETRIES = 1000


def random_network(n_boundary=(3, 6), n_interior=(1, 4), edge_prob=0.5, seed=0) -> Network:
    """Deterministic-for-seed random network satisfying all Network
    invariants (resampled on violation, bounded retries): vertex counts
    drawn from the inclusive ranges n_boundary and n_interior, each edge
    present with probability edge_prob, and gamma log-uniform in
    [0.1, 10] so conditioning varies across trials."""
    rng = random.Random(seed)
    log_lo, log_hi = math.log(0.1), math.log(10.0)
    for _ in range(MAX_RETRIES):
        nb = rng.randint(*n_boundary)
        ni = rng.randint(*n_interior)
        n = nb + ni
        edges = []
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < edge_prob:
                    gamma = math.exp(rng.uniform(log_lo, log_hi))
                    edges.append(Edge(len(edges) + 1, u, v, gamma))
        try:
            return Network(nb, ni, tuple(edges))
        except NetworkError:
            pass
    raise NetworkError(
        f"no valid network after {MAX_RETRIES} draws: "
        f"{n_boundary=} {n_interior=} {edge_prob=} {seed=}"
    )


def _reach(adj: dict[int, list[int]], starts) -> set[int]:
    """The vertices that a path in adj joins to one of `starts`, the
    starts included."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen
