"""Square-grid resistor networks and seeded relabelings, built only from
the public `Network`/`Edge` constructors.

The n x n grid has n^2 interior vertices (row r, column c) and 4n
pendant boundary vertices, one hanging off each side cell, numbered
1..4n clockwise: the top side left to right, the right side top to
bottom, the bottom side right to left, the left side bottom to top.
Interior vertex (r, c) is 4n + 1 + r*n + c. Edge order: the 4n pendant
edges in boundary order, then horizontal, then vertical grid edges, so
there are 4n + 2n(n-1) = 2n^2 + 2n edges.
"""

from __future__ import annotations

import random

from netinv.network import Edge, Network


def grid_edge_pairs(n: int) -> list[tuple[int, int]]:
    """Vertex pairs (u, v) of the n x n grid in edge-id order."""
    if n < 1:
        raise ValueError(f"grid side must be >= 1, got {n}")

    def cell(r: int, c: int) -> int:
        return 4 * n + 1 + r * n + c

    sides = (
        [cell(0, c) for c in range(n)]
        + [cell(r, n - 1) for r in range(n)]
        + [cell(n - 1, c) for c in reversed(range(n))]
        + [cell(r, 0) for r in reversed(range(n))]
    )
    pairs = [(b, v) for b, v in enumerate(sides, start=1)]
    pairs += [(cell(r, c), cell(r, c + 1)) for r in range(n) for c in range(n - 1)]
    pairs += [(cell(r, c), cell(r + 1, c)) for r in range(n - 1) for c in range(n)]
    return pairs


def grid_network(n: int, gammas) -> Network:
    """The n x n grid with conductivities `gammas` in edge-id order."""
    pairs = grid_edge_pairs(n)
    gammas = list(gammas)
    if len(gammas) != len(pairs):
        raise ValueError(f"{n}x{n} grid needs {len(pairs)} conductivities, got {len(gammas)}")
    edges = tuple(Edge(i, u, v, float(g)) for i, ((u, v), g) in enumerate(zip(pairs, gammas), start=1))
    return Network(4 * n, n * n, edges)


#: Range of drawn conductivities, as in acceptance criterion 8.
GAMMA_LO, GAMMA_HI = 0.1, 10.0


def log_uniform(rng: random.Random, count: int) -> list[float]:
    """`count` conductivities drawn log-uniformly from [GAMMA_LO, GAMMA_HI]."""
    return [GAMMA_LO * (GAMMA_HI / GAMMA_LO) ** rng.random() for _ in range(count)]


def relabel(net: Network, rng: random.Random) -> tuple[Network, list[int]]:
    """Shuffle boundary labels, interior labels and edge order.

    Returns the relabeled network and `perm`, where old vertex v is new
    vertex perm[v] (perm[0] unused). Boundary vertices stay 1..n_boundary.
    """
    b, n = net.n_boundary, net.n_vertices
    boundary = list(range(1, b + 1))
    interior = list(range(b + 1, n + 1))
    rng.shuffle(boundary)
    rng.shuffle(interior)
    perm = [0] + boundary + interior
    order = list(net.edges)
    rng.shuffle(order)
    edges = tuple(
        Edge(i, perm[e.u], perm[e.v], e.gamma) for i, e in enumerate(order, start=1)
    )
    return Network(net.n_boundary, net.n_interior, edges), perm


def cim_sign(k: int) -> int:
    """Sign of det Lambda(P, Q), rows and columns ascending, for a
    circular pair of size k whose arcs are contiguous, unwrapped and
    P-before-Q: (-1)^k det > 0 with Q in reverse circular order
    (Curtis-Ingerman-Morrow), and reversing Q's k columns adds
    (-1)^(k(k-1)/2)."""
    return -1 if (k * (k + 1) // 2) % 2 else 1


def circular_pairs(n: int, max_size: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Circular pairs (P, Q) of the n x n grid, P and Q on disjoint arcs,
    for each size k = 1..max_size: top-centre to the bottom cells below
    it (opposite sides), the right end of the top side to the top of the
    right side (across a corner), and, while 2k <= n, two neighbouring
    arcs of the top side. Every pair is joined by k vertex-disjoint paths,
    so each minor is nonzero with sign cim_sign(k). (Same-side arcs that
    reach past the corner would need two paths through the corner cell,
    which carries two boundary vertices.)"""
    if not 1 <= max_size <= n:
        raise ValueError(f"pair size must be 1..{n}, got {max_size}")
    pairs = []
    for k in range(1, max_size + 1):
        cols = range((n - k) // 2, (n - k) // 2 + k)
        pairs.append((tuple(c + 1 for c in cols), tuple(sorted(3 * n - c for c in cols))))
        pairs.append((tuple(range(n - k + 1, n + 1)), tuple(range(n + 1, n + k + 1))))
        if 2 * k <= n:
            pairs.append((tuple(range(1, k + 1)), tuple(range(k + 1, 2 * k + 1))))
    return pairs
