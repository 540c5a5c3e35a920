#!/usr/bin/env python3
"""Survey the exact rank of the admissible log-linear system over a
family of random network topologies: how often is the inverse problem
solvable from unique-disjoint-path determinants alone?"""

import argparse
from collections import Counter

from netinv import enumerate_admissible_pairs
from netinv.inverse import _coefficient_row
from netinv.network import RandomNetSpec, random_network
from netinv.numerics import integer_rank


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--boundary", type=int, nargs=2, default=(3, 6))
    ap.add_argument("--interior", type=int, nargs=2, default=(1, 4))
    ap.add_argument("--edge-prob", type=float, default=0.5)
    args = ap.parse_args()

    verdicts = Counter()
    for trial in range(args.trials):
        spec = RandomNetSpec(
            n_boundary=tuple(args.boundary),
            n_interior=tuple(args.interior),
            edge_prob=args.edge_prob,
            seed=args.seed + trial,
        )
        net = random_network(spec)
        rows = enumerate_admissible_pairs(net)
        unknowns = net.n_edges + (1 if net.n_interior else 0)
        if rows:
            coeffs = [_coefficient_row(r, net.n_edges, net.n_interior > 0) for r in rows]
            rank = integer_rank(coeffs)
        else:
            rank = 0
        verdict = "full" if rank == unknowns else "deficient"
        verdicts[verdict] += 1
        print(
            f"trial {trial}: vertices {net.n_vertices} edges {net.n_edges} "
            f"rows {len(rows)} rank {rank}/{unknowns} {verdict}"
        )
    print(f"\nsummary: {dict(verdicts)}")


if __name__ == "__main__":
    main()
