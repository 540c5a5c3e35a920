import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# Random networks with mostly non-pendant boundary vertices, so the scan
# runs with little pendant-core reuse.
RANK_SURVEY_5 = """\
trial 0: vertices 10 edges 26 rows 0 rank 0/27 deficient
trial 1: vertices 5 edges 6 rows 3 rank 2/7 deficient
trial 2: vertices 8 edges 14 rows 0 rank 0/15 deficient
trial 3: vertices 6 edges 7 rows 0 rank 0/8 deficient
trial 4: vertices 7 edges 9 rows 0 rank 0/10 deficient

summary: {'deficient': 5}
"""


def test_rank_survey_five_trials(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["rank_survey.py", "--trials", "5"])
    runpy.run_path(str(SCRIPTS / "rank_survey.py"), run_name="__main__")
    assert capsys.readouterr().out == RANK_SURVEY_5
