import random

import netinv
import netinv.cli
from perfbench.grid import log_uniform
from perfbench.tracer import Tracer


def test_traced_recover_counts_and_restore():
    original = netinv.recover
    lam = netinv.dtn(netinv.lattice_fixture(log_uniform(random.Random(1), 12)))
    template = netinv.lattice_fixture([1.0] * 12)
    tracer = Tracer()
    tracer.install()
    try:
        assert netinv.recover is not original
        assert netinv.cli.recover is netinv.recover is netinv.inverse.recover
        tracer.op_id = 0
        netinv.recover(template, lam)
    finally:
        tracer.uninstall()
    assert netinv.recover is original and netinv.cli.recover is original
    spans = tracer.summary()
    assert spans["numerics.integer_rank"]["calls"] == 112
    assert spans["numerics.lu_det"]["calls"] == 110
    assert spans["inverse.recover"]["calls"] == 1
    assert tracer.counters["inverse.rows_collected"] == 110
    assert tracer.counters["paths.admitted"] == 110
    # self times are non-negative and add up to the root span
    total = sum(s["self_ms"] for s in spans.values())
    root = (tracer.end[0] - tracer.start[0]) / 1e6
    assert all(s["self_ms"] >= 0 for s in spans.values())
    assert abs(total - root) < 1e-6 * max(root, 1.0)
