"""Demo scripts run end to end as a user would run them."""

import os
import subprocess
import sys
from pathlib import Path

import affdims

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name, cwd=None):
    src = str(Path(affdims.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True, text=True, timeout=300, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_join_class_survey_demo_runs():
    lines = run_demo("join_class_survey.py")
    assert sum("24 classes" in line for line in lines) == 2
    assert "  -> 20/24 hold" in lines
    assert "  -> 24/24 hold" in lines


def test_multienergy_convergence_demo_runs():
    lines = run_demo("multienergy_convergence.py")
    assert sum(line.endswith("-> settling") for line in lines) == 1
    assert sum(line.endswith("-> growing") for line in lines) == 1
    assert "exact truncated at D=6:  5.24196" in lines


def test_solve_worked_example_demo_runs(tmp_path):
    lines = run_demo("solve_worked_example.py", cwd=tmp_path)
    assert "affinity dimension (q = 0 moment sums): 0.999970" in lines


def test_phase_transition_demo_runs(tmp_path):
    lines = run_demo("phase_transition.py", cwd=tmp_path)
    assert "flagged kinks: [2.4]" in lines


def test_sample_attractor_demo_runs(tmp_path):
    # The demo writes attractor_cloud.txt into its working directory.
    lines = run_demo("sample_attractor.py", cwd=tmp_path)
    assert "first point rebuilt from its word: max diff 0.0e+00" in lines


def test_transversality_check_demo_runs(tmp_path):
    lines = run_demo("transversality_check.py", cwd=tmp_path)
    assert any(line.startswith("ratio spread max/min = 1.70")
               for line in lines)
