#!/usr/bin/env python3
"""Survey the exact rank of the admissible log-linear system over a
family of random network topologies: how often is the inverse problem
solvable from unique-disjoint-path determinants alone?"""

import argparse
from collections import Counter

from netinv import admissible_rank, enumerate_admissible_pairs
from netinv.network import RandomNetSpec, random_network


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
        rank, unknowns = admissible_rank(net, rows)
        verdict = "full" if rank == unknowns else "deficient"
        verdicts[verdict] += 1
        print(
            f"trial {trial}: vertices {net.n_vertices} edges {net.n_edges} "
            f"rows {len(rows)} rank {rank}/{unknowns} {verdict}"
        )
    print(f"\nsummary: {dict(verdicts)}")


if __name__ == "__main__":
    main()
