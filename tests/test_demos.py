"""Demo scripts run end to end as a user would run them."""

import os
import subprocess
import sys
from pathlib import Path

import affdims

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name, cwd=None, env=()):
    src = str(Path(affdims.__file__).resolve().parent.parent)
    shell = sys.executable if name.endswith(".py") else "bash"
    done = subprocess.run(
        [shell, str(DEMOS / name)],
        capture_output=True, text=True, timeout=300, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=src, **dict(env)),
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


def test_estimate_from_cloud_demo_runs(tmp_path):
    lines = run_demo("estimate_from_cloud.py", cwd=tmp_path)
    assert "theoretical d_2 = 1.16934 (target for the estimate: " \
        "min(d_q, N) = 1.16934)" in lines
    assert "discrepancy from target: -0.0582" in lines
    assert any(line.startswith("correlation-sum reading on a 40k "
                               "subsample: 1.1199") for line in lines)


def test_cli_walkthrough_demo_runs(tmp_path):
    # The walkthrough calls the `affdims` console script; a shim on PATH
    # stands in for it when the package is not installed.  Unbuffered
    # stdout makes its `| head -30` close the pipe while solve still
    # writes, which must not fail the run.
    shim = tmp_path / "bin" / "affdims"
    shim.parent.mkdir()
    shim.write_text(
        f'#!/bin/sh\nexec "{sys.executable}" -m affdims.cli "$@"\n')
    shim.chmod(0o755)
    lines = run_demo("cli_walkthrough.sh", cwd=tmp_path, env={
        "PATH": f"{shim.parent}{os.pathsep}{os.environ.get('PATH', '')}",
        "PYTHONUNBUFFERED": "1",
    })
    digest = "10ea2b08435b639f9a290f5f24015cf963d369656181c5cc406247c10bd39d70"
    assert f'    "cloud_sha256": "{digest}",' in lines
    # The estimate run records its reused cloud, so its resolved config
    # alone reruns it to the same ladder.
    assert "rerun ladder identical: ladder_mesh_q2.csv" in lines
    assert "== verify: theory vs estimate in one shot ==" in lines
    assert lines[-7:] == [
        "cloud.txt", "ladder_mesh_q2.csv", "plot_ladder.py",
        "resolved_config.json", "sample_result.json", "solve_result.json",
        "verify_result.json",
    ]
