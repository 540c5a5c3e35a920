"""The exit-code contract as properties: whatever the input, `netinv`
returns a documented exit code and never raises."""

import contextlib
import io
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netinv import dtn, lattice_fixture, serialize_network
from netinv.cli import main
from netinv.numerics import format_matrix_text

LATTICE_MAP = dtn(lattice_fixture(range(1, 13))).entries


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("contract")
    (directory / "lattice.net").write_text(serialize_network(lattice_fixture(range(1, 13))))
    return directory


def run_quietly(argv) -> int:
    """main(argv) with its output and warnings swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return main(argv)


def invert_code(workdir, lam) -> int:
    lam_file = workdir / "lam.txt"
    lam_file.write_text(format_matrix_text(lam))
    return run_quietly(["invert", str(workdir / "lattice.net"), str(lam_file)])


@given(st.floats(-300, 308))
@example(307.3)  # recovers gamma_12 = exp(710.0...), beyond the float range
@settings(max_examples=50, deadline=None)
def test_invert_scaled_lattice_map(workdir, s):
    with np.errstate(over="ignore"):  # near s = 308 the entries overflow to inf
        lam = LATTICE_MAP * 10.0**s
    assert invert_code(workdir, lam) in {0, 2, 3, 4, 5, 6}


@given(st.lists(st.floats(-1e300, 1e300), min_size=36, max_size=36))
@settings(max_examples=50, deadline=None)
def test_invert_random_symmetric_map(workdir, upper):
    lam = np.zeros((8, 8))
    lam[np.triu_indices(8)] = upper
    lam = np.triu(lam) + np.triu(lam, 1).T
    assert invert_code(workdir, lam) in {0, 2, 3, 4, 5, 6}


JUNK_LINES = [
    "",
    "# note",
    "edge",
    "edge 1 2",
    "edge 1 2 3 4",
    "edge a 2 1",
    "boundary 3",
    "boundary -1",
    "interior x",
    "wire 1 2 1",
]
BAD_GAMMAS = ["0", "-1", "nan", "inf", "g"]


@st.composite
def network_text(draw):
    """Network text from a small grammar: header counts 0-6, so at most
    12 vertices, and up to 12 edges between distinct vertex pairs with
    gammas from 1e-300 to 1e308. Half the draws also get one bad line: a
    junk line, or an edge on vertex ids -1..9 whose gamma may be 0, -1,
    nan or inf."""
    b, i = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    pairs = list(combinations(range(1, b + i + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    gammas = st.sampled_from(["1", "2.5", "0.1", "7", "1e308", "1e-300"])
    lines = [f"boundary {b}", f"interior {i}"]
    lines += [f"edge {u} {v} {draw(gammas)}" for u, v in edges]
    if draw(st.booleans()):
        vertex = st.integers(-1, 9)
        bad_edge = st.builds(
            "edge {} {} {}".format, vertex, vertex, st.sampled_from(BAD_GAMMAS) | gammas
        )
        bad = draw(st.sampled_from(JUNK_LINES) | bad_edge)
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command, codes", [("rank", {0, 2, 3, 5}), ("forward", {0, 2, 3})])
@given(text=network_text())
@settings(max_examples=50, deadline=None)
def test_network_text(workdir, command, codes, text):
    net_file = workdir / "drawn.net"
    net_file.write_text(text)
    assert run_quietly([command, str(net_file)]) in codes
