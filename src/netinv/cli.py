"""Command-line front end.

Exit codes are a stable contract: 0 ok, 2 bad input (or a path search
beyond its budget, a recovered conductivity outside the float range,
conductivities that sum beyond it at a vertex or whose interior solve
leaves it, or a map too far from symmetric or from zero row sums for
any DtN map to match), 3 model error (an ungrounded interior, or an
interior block left numerically singular by conductivities spanning
more than float precision), 4 expansion mismatch, 5 rank deficient, 6
round-trip failure. EXIT_CODES is the one place that maps a fault to its
code: the commands let faults rise and main reports them. stdout carries
machine-readable results only; diagnostics go to stderr: one `error:`
line when a command fails, else a `warning:` line for each warning it
met.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import warnings

from .errors import (
    AllRowsDegenerate,
    ExpansionMismatch,
    InteriorNotGrounded,
    RankDeficient,
    RoundTripFailure,
    TooManySystems,
)
from .forward import BoundaryPair, DtNMap, dtn
from .inverse import compile_topology, recover
from .network import Network, parse_network
from .numerics import format_matrix_text, parse_matrix_text
from .paths import expand_det

EXIT_OK = 0

#: The exit code of each fault a command can meet. A fault takes the
#: code of its most specific type here: InteriorNotGrounded is a
#: NetworkError, hence a ValueError, but exits 3.
EXIT_CODES: dict[type, int] = {
    OSError: 2,
    ValueError: 2,
    TooManySystems: 2,
    InteriorNotGrounded: 3,
    ExpansionMismatch: 4,
    RankDeficient: 5,
    AllRowsDegenerate: 5,
    RoundTripFailure: 6,
}
_FAULTS = tuple(EXIT_CODES)

#: roundtrip's bound on the worst relative error of a recovered gamma.
GAMMA_RTOL = 1e-8


def _report(exc: BaseException, context: str = "") -> int:
    """Print the fault on stderr and return its exit code."""
    print(f"error: {context}{exc}", file=sys.stderr)
    return next(EXIT_CODES[kind] for kind in type(exc).__mro__ if kind in EXIT_CODES)


def _load_network(path: str) -> Network:
    with open(path, encoding="utf-8") as f:
        return parse_network(f.read())


def cmd_forward(args) -> int:
    lam = dtn(_load_network(args.net_file))
    sys.stdout.write(format_matrix_text(lam.entries))
    return EXIT_OK


def _parse_indices(text: str):
    try:
        return tuple(sorted(int(t) for t in text.split(",")))
    except ValueError:
        raise ValueError(f"cannot parse index list {text!r}") from None


def cmd_paths(args) -> int:
    net = _load_network(args.net_file)
    pair = BoundaryPair(_parse_indices(args.from_), _parse_indices(args.to))
    terms, total, ref = expand_det(net, pair)
    for term in terms:
        vertices = " | ".join("-".join(str(v) for v in p) for p in term.system.paths)
        residual = ",".join(str(v) for v in term.system.residual) or "-"
        monomial = "*".join(f"g{e}" for e in term.monomial) or "1"
        print(
            f"{vertices or '-'}  residual: {residual}  sign: {term.sign:+d}  "
            f"monomial: {monomial}"
        )
    denom = max(abs(ref), abs(total), 1e-300)
    discrepancy = abs(total - ref) / denom
    print(f"total = {total:.17g}")
    print(f"reference = {ref:.17g}")
    print(f"discrepancy = {discrepancy:.17g}")
    return EXIT_OK


def cmd_rank(args) -> int:
    net = _load_network(args.net_file)
    plan = compile_topology(net, args.max_pair_size, stop_at_full_rank=False)
    verdict = "full" if plan.full_rank else "deficient"
    print(f"rows={len(plan.rows)} rank={plan.rank} unknowns={plan.n_unknowns} verdict={verdict}")
    return EXIT_OK if plan.full_rank else EXIT_CODES[RankDeficient]


def cmd_invert(args) -> int:
    net = _load_network(args.topology_file)
    with open(args.dtn_file, encoding="utf-8") as f:
        lam = DtNMap(parse_matrix_text(f.read()))
    report = recover(net, lam, args.max_pair_size, not args.no_stop_at_full_rank)
    for eid, gamma in enumerate(report.recovered_gammas, start=1):
        print(f"gamma {eid} = {gamma:.17g}")
    print(f"rank = {report.rank}")
    print(f"residual = {report.residual_norm:.17g}")
    print(f"roundtrip_error = {report.roundtrip_error:.17g}")
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    net = _load_network(args.net_file)
    plan = compile_topology(net, args.max_pair_size)
    rng = random.Random(args.seed)
    worst = 0.0
    for trial in range(1, args.trials + 1):
        gammas = [
            math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
            for _ in range(net.n_edges)
        ]
        try:
            report = plan.apply(dtn(net.with_gammas(gammas)))
        except _FAULTS as exc:
            return _report(exc, f"trial {trial}: ")
        max_rel = max(
            abs(r - g) / g for r, g in zip(report.recovered_gammas, gammas)
        )
        worst = max(worst, max_rel)
        print(f"trial {trial} max_rel_error = {max_rel:.17g}")
    if worst <= GAMMA_RTOL:
        return EXIT_OK
    print(f"error: worst max_rel_error {worst:.3e} exceeds {GAMMA_RTOL:g}", file=sys.stderr)
    return EXIT_CODES[RoundTripFailure]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netinv",
        description="Resistor-network DtN maps and log-linear conductivity recovery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", help="compute the DtN map of a network file")
    p.add_argument("net_file")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("paths", help="enumerate disjoint path systems for a boundary pair")
    p.add_argument("net_file")
    p.add_argument("--from", dest="from_", required=True, metavar="P1,P2,...")
    p.add_argument("--to", required=True, metavar="Q1,Q2,...")
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("rank", help="rank of the admissible log-linear system")
    p.add_argument("net_file")
    p.add_argument("--max-pair-size", type=int, default=None)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("invert", help="recover conductivities from a DtN matrix file")
    p.add_argument("topology_file")
    p.add_argument("dtn_file")
    p.add_argument("--max-pair-size", type=int, default=None)
    p.add_argument("--no-stop-at-full-rank", action="store_true")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("roundtrip", help="randomized forward/inverse round-trip trials")
    p.add_argument("net_file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--max-pair-size", type=int, default=None)
    p.set_defaults(func=cmd_roundtrip)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            code = args.func(args)
    except _FAULTS as exc:
        return _report(exc)
    if code == EXIT_OK:
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
