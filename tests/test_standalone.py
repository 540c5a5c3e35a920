"""The package, its CLI and its scripts run without the test
dependencies: the references that need them live in tests/oracle.py."""

import os
import subprocess
import sys
from pathlib import Path

from netinv import lattice_fixture, serialize_network

ROOT = Path(__file__).resolve().parent.parent

# Setting a module to None in sys.modules makes importing it fail.
PROGRAM = """\
import runpy
import sys

net_file, demo = sys.argv[1:]
for name in ("networkx", "hypothesis", "pytest"):
    sys.modules[name] = None
import netinv
from netinv.cli import main

assert main(["forward", net_file]) == 0
assert main(["paths", net_file, "--from", "1,2", "--to", "5,6"]) == 0
sys.argv = [demo]
runpy.run_path(demo, run_name="__main__")
"""


def test_runs_without_test_dependencies(tmp_path):
    net_file = tmp_path / "lattice.net"
    net_file.write_text(serialize_network(lattice_fixture(range(1, 13))))
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", PROGRAM, str(net_file), str(ROOT / "scripts" / "lattice_demo.py")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    out = result.stdout
    assert "sign: -1  monomial: g1*g2*g3*g4*g5*g6" in out
    assert out.rstrip().splitlines()[-1].startswith("roundtrip error = ")
