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

import netinv
from netinv import dtn, lattice_fixture, serialize_network
from netinv.cli import EXIT_CODES, main
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


def test_every_exported_exception_has_an_exit_code():
    # main reports a fault through the first class of its MRO that
    # EXIT_CODES names; a fault with none would escape as a traceback
    exported = [getattr(netinv, name) for name in netinv.__all__]
    faults = [
        kind for kind in exported
        if isinstance(kind, type) and issubclass(kind, Exception) and not issubclass(kind, Warning)
    ]
    assert netinv.RoundTripFailure in faults and netinv.InteriorNotGrounded in faults
    assert [kind.__name__ for kind in faults if not set(kind.__mro__) & EXIT_CODES.keys()] == []


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


@given(
    text=network_text(),
    seed=st.integers(0, 2**32),
    trials=st.integers(-1, 3),
    size=st.sampled_from([[], ["--max-pair-size", "-1"], ["--max-pair-size", "2"]]),
)
@settings(max_examples=50, deadline=None)
def test_roundtrip_network_text(workdir, text, seed, trials, size):
    net_file = workdir / "drawn.net"
    net_file.write_text(text)
    argv = ["roundtrip", str(net_file), "--seed", str(seed), "--trials", str(trials), *size]
    assert run_quietly(argv) in {0, 2, 3, 5, 6}


COUNTS = list(range(-1, 10)) + [10**20]
MATRIX_TOKENS = ["nan", "inf", "-inf", "1e999", "0x10", "1,5", "junk", "0", "-1e-300"]


@st.composite
def matrix_text(draw):
    """Matrix text from a small grammar: a header of two counts, 8 8
    in half the draws and else each from -1..9 or 10^20, then the
    lattice map's values (repeated) cut to its 64 or to 0..80 tokens,
    up to three of them replaced by MATRIX_TOKENS: nan, inf, 1e999,
    0x10, junk, or a zero."""
    header = draw(st.just((8, 8)) | st.tuples(st.sampled_from(COUNTS), st.sampled_from(COUNTS)))
    values = [repr(float(v)) for v in LATTICE_MAP.ravel()] * 2
    values = values[: draw(st.just(64) | st.integers(0, 80))]
    for _ in range(draw(st.integers(0, 3))):
        if values:
            values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(MATRIX_TOKENS))
    lines = [" ".join(values[i : i + 8]) for i in range(0, len(values), 8)]
    return "\n".join([f"{header[0]} {header[1]}"] + lines) + "\n"


@given(text=matrix_text())
@example(text=f"{10**20} 0\n")
@example(text="-1 -1\n1\n")
@settings(max_examples=50, deadline=None)
def test_invert_matrix_text(workdir, text):
    lam_file = workdir / "drawn.txt"
    lam_file.write_text(text)
    argv = ["invert", str(workdir / "lattice.net"), str(lam_file)]
    assert run_quietly(argv) in {0, 2, 3, 4, 5, 6}


INDEX_TOKENS = [str(i) for i in range(-1, 11)] + ["", "x", "1.5", " 2", "0x1"]


@given(
    p=st.lists(st.sampled_from(INDEX_TOKENS), max_size=5),
    q=st.lists(st.sampled_from(INDEX_TOKENS), max_size=5),
)
@settings(max_examples=50, deadline=None)
def test_paths_index_lists(workdir, p, q):
    argv = ["paths", str(workdir / "lattice.net"), f"--from={','.join(p)}", f"--to={','.join(q)}"]
    assert run_quietly(argv) in {0, 2, 4}
