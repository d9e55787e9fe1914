"""Demo scripts run end to end as a user would run them."""

import os
import subprocess
import sys
from pathlib import Path

import affdims

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_join_class_survey_demo_runs():
    src = str(Path(affdims.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, str(DEMOS / "join_class_survey.py")],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert sum("24 classes" in line for line in lines) == 2
    assert "  -> 20/24 hold" in lines
    assert "  -> 24/24 hold" in lines
