"""netinv benchmark: one closed-loop workload, one caller, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; netinv is imported from its
`src/`. The workload's inputs come from --seed; ops run back to back
for --seconds and every result is checked. Human-readable lines go
first; the last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics. --trace 1 spends the first
half of the time untraced and the second half with the outside-in
tracer installed, and reports per-layer metrics as per-op averages over
the traced ops; spans are written to .perfbench_out/spans-<workload>.npz.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("lattice_recover", "grid_rank", "grid_forward")

#: Seed used while writing a change; claims are checked again on the
#: held-out seed 7919 (see README.md).
DEFAULT_SEED = 1

#: Set-ups per run: this process, plus fresh processes that only set up.
SETUP_SAMPLES = 7

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Per-layer metrics: (name, unit, span, statistic). Span statistics are
#: "calls" and "self_ms"; the other rows are computed in per_layer().
PER_LAYER = [
    ("numerics.integer_rank.calls", "count", "numerics.integer_rank", "calls"),
    ("numerics.integer_rank.self_ms", "ms", "numerics.integer_rank", "self_ms"),
    ("numerics.lu_det.calls", "count", "numerics.lu_det", "calls"),
    ("numerics.lu_det.self_ms", "ms", "numerics.lu_det", "self_ms"),
    ("numerics.cholesky.self_ms", "ms", "numerics.cholesky", "self_ms"),
    ("numerics.solve_spd.self_ms", "ms", "numerics.solve_spd", "self_ms"),
    ("numerics.lstsq.self_ms", "ms", "numerics.lstsq", "self_ms"),
    ("forward.dtn.self_ms", "ms", "forward.dtn", "self_ms"),
    ("forward.dtn_subdet.calls", "count", "forward.dtn_subdet", "calls"),
    ("forward.dtn_subdet.self_ms", "ms", "forward.dtn_subdet", "self_ms"),
    ("network.kirchhoff.self_ms", "ms", "network.kirchhoff", "self_ms"),
    ("network.Network.__post_init__.self_ms", "ms", "network.Network.__post_init__", "self_ms"),
    ("network.adjacency.calls", "count", "network.Network.adjacency", "calls"),
    ("network.adjacency.self_ms", "ms", "network.Network.adjacency", "self_ms"),
    ("network.parse_network.self_ms", "ms", "network.parse_network", "self_ms"),
    ("paths.enumerate_path_systems.calls", "count", "paths.enumerate_path_systems", "calls"),
    ("paths.enumerate_path_systems.self_ms", "ms", "paths.enumerate_path_systems", "self_ms"),
    ("paths.systems_found", "count", "paths.enumerate_path_systems", "counter"),
    ("paths.is_log_linear_admissible.calls", "count", "paths.is_log_linear_admissible", "calls"),
    ("paths.admitted", "count", "paths.is_log_linear_admissible", "counter"),
    ("paths.admit_ratio", "ratio", "paths.is_log_linear_admissible", "admit_ratio"),
    ("inverse.enumerate_admissible_pairs.self_ms", "ms", "inverse.enumerate_admissible_pairs", "self_ms"),
    ("inverse.rows_collected", "count", "inverse.enumerate_admissible_pairs", "counter"),
    ("inverse.build_system.self_ms", "ms", "inverse.build_system", "self_ms"),
    ("inverse.rows_dropped", "count", "inverse.build_system", "counter"),
    ("inverse.solve_system.self_ms", "ms", "inverse.solve_system", "self_ms"),
    ("inverse.recover.self_ms", "ms", "inverse.recover", "self_ms"),
    ("cli.cmd_rank.self_ms", "ms", "cli.cmd_rank", "self_ms"),
] + [(f"layer.{m}.self_ms", "ms", m, "layer_self_ms") for m in ("network", "numerics", "forward", "paths", "inverse", "cli")] + [
    ("forward.minor_sign_mismatch", "count", None, "mismatches"),
    ("trace.overhead_ms", "ms", None, "overhead"),
]

def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the cores this process may use, before
    numpy loads. Returns that core count."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 0 < int(value) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def import_workloads():
    """Import netinv from this checkout's src/ and the workloads module.
    Exits non-zero when the checkout has no netinv sources."""
    src = ROOT / "src"
    if not (src / "netinv" / "__init__.py").is_file():
        raise SystemExit(f"error: no netinv sources at {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import netinv

    if Path(netinv.__file__).resolve().parent != (src / "netinv").resolve():
        raise SystemExit(f"error: imported netinv from {netinv.__file__}, not {src}")
    from perfbench import workloads

    return workloads


def attempt(wl, inp) -> tuple[float, float, bool, int]:
    """Run and check one op: (start, end, passed, minor sign mismatches).
    A raised exception or a failed check is a failed op, never raised."""
    start = time.perf_counter()
    try:
        out = wl.op(inp)
        end = time.perf_counter()
        ok, mismatches = wl.check(inp, out)
    except Exception:
        end = time.perf_counter()
        traceback.print_exc(file=sys.stderr)
        return start, end, False, 0
    return start, end, ok, mismatches


def set_up(name: str, seed: int, workdir: Path):
    """Import netinv, build the workload's inputs and run its warm-up op.
    Returns (workload, elapsed seconds)."""
    t0 = time.perf_counter()
    wl = import_workloads().WORKLOADS[name](seed, workdir)
    if wl.warmup is not None:
        attempt(wl, wl.warmup)
    return wl, time.perf_counter() - t0


def probe_setup(args) -> float:
    """Set-up time of a fresh process that only sets up."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-probe",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Loop:
    """Closed loop over the input pool for a fixed wall-clock time."""

    def __init__(self, wl, seconds: float, first: int = 0, tracer=None):
        self.spans: list[tuple[float, float]] = []
        self.failed = 0
        self.mismatches = 0
        i = first
        deadline = time.perf_counter() + seconds
        while True:
            if tracer is not None:
                tracer.op_id = i
            start, end, ok, mismatches = attempt(wl, wl.inputs[i % len(wl.inputs)])
            self.spans.append((start, end))
            self.failed += not ok
            self.mismatches += mismatches
            i += 1
            if end >= deadline:
                break
        self.next = i

    @property
    def durations(self) -> list[float]:
        return [end - start for start, end in self.spans]

    @property
    def p50_ms(self) -> float:
        return statistics.median(self.durations) * 1e3


def per_layer(tracer, traced: Loop, untraced: Loop) -> tuple[dict, list[str]]:
    """Per-layer metrics, averaged per traced op, and the names of
    metrics whose function no longer exists."""
    spans = tracer.summary()
    ops = len(traced.durations)
    metrics, absent = {}, []
    for name, unit, span, stat in PER_LAYER:
        present = span is None or span in spans
        if stat == "layer_self_ms":
            layer = [s["self_ms"] for n, s in spans.items() if n.startswith(span + ".")]
            present = bool(layer)
            value = sum(layer) / ops
        elif stat == "mismatches":
            value = traced.mismatches / ops
        elif stat == "overhead":
            value = traced.p50_ms - untraced.p50_ms
        elif stat == "admit_ratio":
            tested = spans.get(span, {}).get("calls", 0)
            value = tracer.counters.get("paths.admitted", 0) / tested if tested else 0.0
        elif stat == "counter":
            value = tracer.counters.get(name, 0) / ops
        else:
            value = spans.get(span, {}).get(stat, 0) / ops
        if not present:
            absent.append(name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent


def environment(nproc: int) -> str:
    import numpy

    blas = " ".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS)
    return f"python={platform.python_version()} numpy={numpy.__version__} nproc={nproc} {blas}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    nproc = cap_blas_threads()
    workdir = OUT / f"work-{os.getpid()}"
    try:
        wl, setup_s = set_up(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print(f"env {environment(nproc)}")
        if args.trace == 0:
            from perfbench.speed import SpeedProbe

            with SpeedProbe() as probe:
                loop = Loop(wl, args.seconds)
            loops = [loop]
            setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
            n = len(loop.durations)
            metrics = {
                "op_cost.quiet_p50": {"value": probe.quiet_median(loop.spans), "unit": "ref"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            }
            print(f"op_ms.p50 = {loop.p50_ms:.4f} ms (n={n}, wall clock)")
            if n >= 100:
                p90 = statistics.quantiles(loop.durations, n=10)[-1] * 1e3
                print(f"op_ms.p90 = {p90:.4f} ms (n={n}, wall clock)")
            else:
                print(f"op_ms.p90 not reported: n={n} < 100 ops")
            kernel = statistics.median(probe.seconds) * 1e3
            print(f"reference kernel = {kernel:.4f} ms median of {len(probe.seconds)} samples")
            print(f"ops_per_s = {n / sum(loop.durations):.4f} 1/s (ops over time inside ops)")
            print("setup_s samples = " + " ".join(f"{s:.4f}" for s in setups))
        else:
            from perfbench.tracer import Tracer

            untraced = Loop(wl, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = Loop(wl, args.seconds / 2, first=untraced.next, tracer=tracer)
            finally:
                tracer.uninstall()
            loops = [untraced, traced]
            metrics, absent = per_layer(tracer, traced, untraced)
            tracer.write(OUT / f"spans-{args.workload}.npz")
            print(f"traced ops={len(traced.durations)} untraced ops={len(untraced.durations)}")
            if absent:
                print("absent (function not found): " + " ".join(absent))
        attempted = sum(len(lp.durations) for lp in loops)
        failed = sum(lp.failed for lp in loops)
        print(f"error_rate = {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
