"""Command-line front end.

Exit codes are a stable contract: 0 ok, 2 bad input, 3 model error
(ungrounded interior), 4 expansion mismatch, 5 rank deficient,
6 round-trip failure. stdout carries machine-readable results only;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import math
import random
import sys

from .errors import (
    AllRowsDegenerate,
    ExpansionMismatch,
    InteriorNotGrounded,
    NetworkError,
    RankDeficient,
    RoundTripFailure,
)
from .forward import BoundaryPair, DtNMap, dtn, kirchhoff_subdet
from .inverse import admissible_rank, enumerate_admissible_pairs, recover
from .network import Network, kirchhoff, parse_network
from .numerics import format_matrix_text, parse_matrix_text
from .paths import expand_det

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MODEL = 3
EXIT_EXPANSION = 4
EXIT_RANK = 5
EXIT_ROUNDTRIP = 6


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _load_network(path: str) -> Network:
    with open(path, encoding="utf-8") as f:
        return parse_network(f.read())


def cmd_forward(args) -> int:
    try:
        net = _load_network(args.net_file)
    except (OSError, NetworkError) as exc:
        return _fail(EXIT_INPUT, f"error: {exc}")
    try:
        lam = dtn(net)
    except InteriorNotGrounded as exc:
        return _fail(EXIT_MODEL, f"error: {exc}")
    sys.stdout.write(format_matrix_text(lam.entries))
    return EXIT_OK


def _parse_indices(text: str):
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse index list {text!r}") from None


def cmd_paths(args) -> int:
    try:
        net = _load_network(args.net_file)
        p = _parse_indices(args.from_)
        q = _parse_indices(args.to)
        pair = BoundaryPair(tuple(sorted(p)), tuple(sorted(q)))
        pair.validate_for(net.n_boundary)
        if len(set(p)) != len(p) or len(set(q)) != len(q):
            raise ValueError("index lists must be duplicate-free")
    except (OSError, NetworkError, ValueError) as exc:
        return _fail(EXIT_INPUT, f"error: {exc}")
    try:
        terms, total = expand_det(net, pair)
    except ExpansionMismatch as exc:
        return _fail(EXIT_EXPANSION, f"error: {exc}")
    except InteriorNotGrounded as exc:
        return _fail(EXIT_MODEL, f"error: {exc}")
    for term in terms:
        vertices = " | ".join("-".join(str(v) for v in p) for p in term.system.paths)
        residual = ",".join(str(v) for v in term.system.residual) or "-"
        monomial = "*".join(f"g{e}" for e in term.monomial) or "1"
        print(
            f"{vertices or '-'}  residual: {residual}  sign: {term.sign:+d}  "
            f"monomial: {monomial}"
        )
    k = kirchhoff(net)
    interior = net.interior_vertices
    rows = sorted(set(pair.p) | set(interior))
    cols = sorted(set(pair.q) | set(interior))
    ref = kirchhoff_subdet(k, rows, cols)
    denom = max(abs(ref), abs(total), 1e-300)
    discrepancy = abs(total - ref) / denom
    print(f"total = {total:.17g}")
    print(f"reference = {ref:.17g}")
    print(f"discrepancy = {discrepancy:.17g}")
    return EXIT_OK


def cmd_rank(args) -> int:
    try:
        net = _load_network(args.net_file)
    except (OSError, NetworkError) as exc:
        return _fail(EXIT_INPUT, f"error: {exc}")
    rows = enumerate_admissible_pairs(net, args.max_pair_size, stop_at_full_rank=False)
    rank, n_unknowns = admissible_rank(net, rows)
    verdict = "full" if rank == n_unknowns else "deficient"
    print(f"rows={len(rows)} rank={rank} unknowns={n_unknowns} verdict={verdict}")
    return EXIT_OK if verdict == "full" else EXIT_RANK


def cmd_invert(args) -> int:
    try:
        net = _load_network(args.topology_file)
        with open(args.dtn_file, encoding="utf-8") as f:
            entries = parse_matrix_text(f.read())
        if entries.shape != (net.n_boundary, net.n_boundary):
            raise ValueError(
                f"DtN matrix is {entries.shape[0]}x{entries.shape[1]} but the "
                f"topology has {net.n_boundary} boundary vertices"
            )
        lam = DtNMap(entries)
    except (OSError, NetworkError, ValueError) as exc:
        return _fail(EXIT_INPUT, f"error: {exc}")
    try:
        report = recover(net, lam, args.max_pair_size, not args.no_stop_at_full_rank)
    except (RankDeficient, AllRowsDegenerate) as exc:
        return _fail(EXIT_RANK, f"error: {exc}")
    except RoundTripFailure as exc:
        return _fail(EXIT_ROUNDTRIP, f"error: {exc}")
    except InteriorNotGrounded as exc:
        return _fail(EXIT_MODEL, f"error: {exc}")
    for eid, gamma in enumerate(report.recovered_gammas, start=1):
        print(f"gamma {eid} = {gamma:.17g}")
    print(f"rank = {report.rank}")
    print(f"residual = {report.residual_norm:.17g}")
    print(f"roundtrip_error = {report.roundtrip_error:.17g}")
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    try:
        net = _load_network(args.net_file)
    except (OSError, NetworkError) as exc:
        return _fail(EXIT_INPUT, f"error: {exc}")
    rng = random.Random(args.seed)
    worst = 0.0
    for trial in range(1, args.trials + 1):
        gammas = [
            math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
            for _ in range(net.n_edges)
        ]
        sample = net.with_gammas(gammas)
        lam = dtn(sample)
        try:
            report = recover(net, lam, args.max_pair_size)
        except (RankDeficient, AllRowsDegenerate) as exc:
            return _fail(EXIT_RANK, f"error: trial {trial}: {exc}")
        except RoundTripFailure as exc:
            return _fail(EXIT_ROUNDTRIP, f"error: trial {trial}: {exc}")
        max_rel = max(
            abs(r - g) / g for r, g in zip(report.recovered_gammas, gammas)
        )
        worst = max(worst, max_rel)
        print(f"trial {trial} max_rel_error = {max_rel:.17g}")
    return EXIT_OK if worst <= 1e-8 else EXIT_ROUNDTRIP


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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
