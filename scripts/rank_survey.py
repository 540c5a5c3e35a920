#!/usr/bin/env python3
"""Survey the exact rank of the admissible log-linear system over a
family of random network topologies: how often is the inverse problem
solvable from unique-disjoint-path determinants alone?"""

import argparse
from collections import Counter

from netinv import compile_topology
from netinv.network import random_network


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
        net = random_network(args.boundary, args.interior, args.edge_prob, args.seed + trial)
        plan = compile_topology(net, stop_at_full_rank=False)
        verdict = "full" if plan.full_rank else "deficient"
        verdicts[verdict] += 1
        print(
            f"trial {trial}: vertices {net.n_vertices} edges {net.n_edges} "
            f"rows {len(plan.rows)} rank {plan.rank}/{plan.n_unknowns} {verdict}"
        )
    print(f"\nsummary: {dict(verdicts)}")


if __name__ == "__main__":
    main()
