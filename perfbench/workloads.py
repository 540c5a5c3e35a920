"""The three benchmark workloads. Each builds its inputs from a seed in
its constructor (set-up): `inputs` for the timed ops and `warmup`, an
extra input for the warm-up op, or None where no cache could matter.
`op` runs one input through a documented netinv surface and `check`
returns (passed, circular-minor sign mismatches).

Calls go through `netinv` module attributes at call time, so the
tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import numpy as np

import netinv
import netinv.cli

from .grid import circular_pairs, cim_sign, grid_edge_pairs, grid_network, log_uniform, relabel

#: Distinct inputs per run; ops cycle through them in order.
POOL = 256

#: Criterion 8: largest relative error of recovered over drawn gammas.
RECOVERY_RTOL = 1e-8

#: Criterion 9: DtN invariants, relative to max |Lambda|.
DTN_RTOL = 1e-12

#: Largest circular-minor size whose sign is checked; larger sizes are
#: evaluated and their sign mismatches counted, not failed.
CHECKED_MINOR_SIZE = 3


class LatticeRecover:
    """recover(template, lam) on the 8+4 lattice, one drawn map per op."""

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.template = netinv.lattice_fixture([1.0] * 12)
        self.inputs = []
        for _ in range(POOL + 1):
            gammas = log_uniform(rng, 12)
            self.inputs.append((gammas, netinv.dtn(netinv.lattice_fixture(gammas))))
        self.warmup = self.inputs.pop()

    def op(self, inp):
        return netinv.recover(self.template, inp[1])

    def check(self, inp, report) -> tuple[bool, int]:
        err = max(abs(r - g) / g for r, g in zip(report.recovered_gammas, inp[0]))
        return err <= RECOVERY_RTOL, 0


class GridRank:
    """`netinv rank <file> --max-pair-size 3` on a fresh relabeling of the
    3x3 grid per op, run in-process through netinv.cli.main."""

    side = 3
    expected = (5, "rows=352 rank=12 unknowns=25 verdict=deficient\n")
    warmup = None

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        base = grid_network(self.side, log_uniform(rng, len(grid_edge_pairs(self.side))))
        workdir.mkdir(parents=True, exist_ok=True)
        self.inputs = []
        for i in range(POOL):
            path = workdir / f"grid{self.side}-{i}.txt"
            path.write_text(netinv.serialize_network(relabel(base, rng)[0]), encoding="utf-8")
            self.inputs.append(str(path))

    def op(self, path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = netinv.cli.main(["rank", path, "--max-pair-size", "3"])
        return code, out.getvalue()

    def check(self, path, result) -> tuple[bool, int]:
        return result == self.expected, 0


class GridForward:
    """Build a seeded 10x10 grid, take its DtN map and evaluate the
    circular minors of sizes 1..6, one draw per op."""

    side = 10
    max_minor = 6

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.pairs_uv = grid_edge_pairs(self.side)
        self.minors = circular_pairs(self.side, self.max_minor)
        self.inputs = [log_uniform(rng, len(self.pairs_uv)) for _ in range(POOL)]
        self.warmup = log_uniform(rng, len(self.pairs_uv))

    def op(self, gammas):
        edges = tuple(
            netinv.Edge(i, u, v, g) for i, ((u, v), g) in enumerate(zip(self.pairs_uv, gammas), start=1)
        )
        lam = netinv.dtn(netinv.Network(4 * self.side, self.side**2, edges))
        return lam, [netinv.dtn_subdet(lam, netinv.BoundaryPair(p, q)) for p, q in self.minors]

    def check(self, gammas, result) -> tuple[bool, int]:
        lam, dets = result
        m = lam.entries
        tol = DTN_RTOL * np.max(np.abs(m))
        ok = (
            np.max(np.abs(m - m.T)) <= tol
            and np.max(np.abs(m.sum(axis=1))) <= tol
            and np.max(m - np.diag(np.diag(m))) <= tol
        )
        mismatches = 0
        for (p, _), det in zip(self.minors, dets):
            if det * cim_sign(len(p)) <= 0:
                mismatches += 1
                ok = ok and len(p) > CHECKED_MINOR_SIZE
        return bool(ok), mismatches


WORKLOADS = {
    "lattice_recover": LatticeRecover,
    "grid_rank": GridRank,
    "grid_forward": GridForward,
}
