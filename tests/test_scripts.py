import re
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# Random networks with mostly non-pendant boundary vertices, so the
# covering walk runs paths through boundary vertices.
RANK_SURVEY_5 = """\
trial 0: vertices 10 edges 26 rows 0 rank 0/27 deficient
trial 1: vertices 5 edges 6 rows 3 rank 2/7 deficient
trial 2: vertices 8 edges 14 rows 0 rank 0/15 deficient
trial 3: vertices 6 edges 7 rows 0 rank 0/8 deficient
trial 4: vertices 7 edges 9 rows 0 rank 0/10 deficient

summary: {'deficient': 5}
"""


LATTICE_DEMO = """\
det K(I,I) = 291355.99999999994

subdeterminant identities (value * det K(I,I)):
  det L(1, 2);(5, 6) * det K(I,I) = -719.99999999999955
  det L(1, 2, 8);(5, 6, 8) * det K(I,I) = -5040.0000000000018
  det L(1,);(5,) * det K(I,I) = -9672.0000000000018
  det L(1, 5);(2, 6) * det K(I,I) = 5616.0000000000018

path systems for (1;5):
  1-9-10-11-5  residual (12,)
  1-9-12-11-5  residual (10,)

admissible rows collected: 110, exact rank: 13
(1,2,8;5,6,8) row minus (1,2;5,6) row = (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)
  rhs = 1.9459101490553143 (= ln 7 = 1.9459101490553132)

recovered conductivities:
  gamma 1 = 1
  gamma 2 = 2
  gamma 3 = 3
  gamma 4 = 4
  gamma 5 = 5
  gamma 6 = 6
  gamma 7 = 7
  gamma 8 = 8
  gamma 9 = 9
  gamma 10 = 10
  gamma 11 = 11
  gamma 12 = 12
roundtrip error = 2.665e-14
"""

#: A decimal number; the digits a platform's LAPACK may move.
DECIMAL = re.compile(r"-?\d+\.\d+(?:e[-+]\d+)?")


def test_rank_survey_five_trials(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["rank_survey.py", "--trials", "5"])
    runpy.run_path(str(SCRIPTS / "rank_survey.py"), run_name="__main__")
    assert capsys.readouterr().out == RANK_SURVEY_5


def test_lattice_demo_output(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["lattice_demo.py"])
    runpy.run_path(str(SCRIPTS / "lattice_demo.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert DECIMAL.sub("#", out) == DECIMAL.sub("#", LATTICE_DEMO)
    got = [float(x) for x in DECIMAL.findall(out)]
    want = [float(x) for x in DECIMAL.findall(LATTICE_DEMO)]
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
