#!/usr/bin/env python3
"""Walk the whole pipeline on the 8+4 lattice: subdeterminant
identities, path systems, admissible rows, rank certification, and a
recovery from the exact DtN map."""

import math

from netinv import (
    BoundaryPair,
    compile_topology,
    difference_rows,
    dtn,
    dtn_subdet,
    enumerate_path_systems,
    kirchhoff_subdet,
    lattice_fixture,
)
from netinv.network import kirchhoff

INTERIOR = (9, 10, 11, 12)


def main():
    net = lattice_fixture(range(1, 13))
    lam = dtn(net)
    k = kirchhoff(net)
    det_kii = kirchhoff_subdet(k, INTERIOR, INTERIOR)
    print(f"det K(I,I) = {det_kii:.17g}")

    print("\nsubdeterminant identities (value * det K(I,I)):")
    for p, q in [((1, 2), (5, 6)), ((1, 2, 8), (5, 6, 8)), ((1,), (5,)), ((1, 5), (2, 6))]:
        value = dtn_subdet(lam, BoundaryPair(p, q)) * det_kii
        print(f"  det L{p};{q} * det K(I,I) = {value:.17g}")

    print("\npath systems for (1;5):")
    for s in enumerate_path_systems(net, BoundaryPair((1,), (5,))):
        print(f"  {' | '.join('-'.join(map(str, p)) for p in s.paths)}  residual {s.residual}")

    plan = compile_topology(net)
    print(f"\nadmissible rows collected: {len(plan.rows)}, exact rank: {plan.rank}")

    sys3 = compile_topology(net, max_pair_size=3, stop_at_full_rank=False).system(lam)
    at = {(pair.p, pair.q): i for i, pair in enumerate(sys3.provenance)}
    diff, rhs = difference_rows(sys3, at[((1, 2, 8), (5, 6, 8))], at[((1, 2), (5, 6))])
    print(f"(1,2,8;5,6,8) row minus (1,2;5,6) row = {diff}")
    print(f"  rhs = {rhs:.17g} (= ln 7 = {math.log(7):.17g})")

    report = plan.apply(lam)
    print("\nrecovered conductivities:")
    for eid, g in enumerate(report.recovered_gammas, start=1):
        print(f"  gamma {eid} = {g:.12g}")
    print(f"roundtrip error = {report.roundtrip_error:.3e}")


if __name__ == "__main__":
    main()
