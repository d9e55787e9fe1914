"""Tests of the benchmark itself: tracer accounting, compare verdicts, smoke run.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _span(name, sid, parent, start, end, tid=1, extra=None):
    return [name, tid, parent, start, end, extra, sid]


def test_covered_is_union_of_intervals():
    assert tracer._covered([]) == 0.0
    assert tracer._covered([(0, 2), (1, 3), (5, 6)]) == 4.0


def test_self_time_subtracts_union_of_children_across_threads():
    spans = [
        _span(tracer.ROOT, 0, None, 0.0, 10.0),
        _span("sampler.sample_cloud", 1, 0, 1.0, 9.0, extra={"points": 5}),
        # Two worker threads overlapping in time: 6 s covered, not 8 s.
        _span("sampler._cloud_chunk", 2, 1, 2.0, 6.0, tid=2),
        _span("sampler._cloud_chunk", 3, 1, 4.0, 8.0, tid=3),
        _span("counterrng.advance", 4, 2, 2.0, 3.0, tid=2),
        _span("cli.resolve_config", 5, 0, 0.0, 0.5),
    ]
    got = tracer.layer_metrics(spans)
    assert got["sampler.sample_cloud.busy_s"] == 8.0
    assert got["sampler._cloud_chunk.calls"] == 2
    assert got["sampler.points"] == 5
    # sample_cloud 8 - 6 covered, chunks 4 - 1 and 4.
    assert got["sampler.self_s"] == 2.0 + 3.0 + 4.0
    assert got["cli.self_s"] == (10.0 - 8.5) + 0.5
    assert got["trace.top_level_s"] == 8.0
    assert got["multienergy.self_s"] == 0.0


def test_unusable_rung_time_follows_ladder_usability():
    spans = [_span("estimator.build_ladder", 0, None, 0.0, 10.0,
                   extra={"usable": (False, True)})]
    sid = 1
    for start in (0.0, 5.0):
        spans.append(_span("estimator.occupied_cubes", sid, 0, start,
                           start + 1.0))
        spans.append(_span("estimator.mesh_moment_sum", sid + 1, 0,
                           start + 1.0, start + 3.0))
        sid += 2
    got = tracer.layer_metrics(spans)
    assert got["estimator.rungs"] == 2
    assert got["estimator.rungs_usable"] == 1
    assert got["estimator.rung_useful_ratio"] == 0.5
    assert got["estimator.unusable_rung_s"] == 3.0


def test_tracer_rebinds_imported_names_and_restores_them(tmp_path, capsys):
    import affdims.cli as cli
    import affdims.counterrng as crng
    import affdims.dimsolver as dimsolver

    original = dimsolver.log_phi_stack
    config = tmp_path / "run.ini"
    config.write_text(
        "[ifs]\ndim = 2\nmap1 = 0.5 0 / 0 0.3\nmap2 = 0.4 0 / 0 0.35\n"
        "[measure]\ntype = bernoulli\nprobs = 0.6 0.4\n"
        "[sample]\nn = 70000\ndepth = 4\n")
    t = tracer.Tracer()
    t.install()
    try:
        assert dimsolver.log_phi_stack is not original
        for argv in (["solve"], ["sample", "--threads", "2"]):
            code = t.span(tracer.ROOT, cli.main, argv + [
                "--config", str(config), "--out", str(tmp_path / "out")])
            assert code == 0
    finally:
        t.uninstall()
    capsys.readouterr()
    assert dimsolver.log_phi_stack is original
    assert crng.advance.__module__ == "affdims.counterrng"
    got = tracer.layer_metrics(t.spans)
    assert got["linalg.log_phi_stack.calls"] > 0
    assert got["counterrng.advance.calls"] == 2 * 4
    assert got["sampler.points"] == 70000
    assert got["sampler.write_cloud.mb"] > 0
    ids = {rec[6]: rec for rec in t.spans}
    main_tid = threading.get_ident()
    chunks = [r for r in t.spans if r[0] == "sampler._cloud_chunk"]
    assert len(chunks) == 2
    for rec in chunks:
        parent = ids[rec[2]]
        assert parent[0] == "sampler.sample_cloud"
        assert parent[1] == main_tid
    for rec in t.spans:
        assert rec[4] >= rec[3]


def test_verdicts():
    base = [10.0 + 0.1 * i for i in range(10)]
    faster = [v - 2.0 for v in base]
    assert compare.verdict(base, faster, "lower", 0.1,
                           list(zip(base, faster))) == "improved"
    slower = [v * 1.02 for v in base]
    assert compare.verdict(base, slower, "lower", 0.1,
                           list(zip(base, slower))) == "no worse"
    much_slower = [v * 1.5 for v in base]
    assert compare.verdict(base, much_slower, "lower", 0.1,
                           list(zip(base, much_slower))) == "worse"
    noisy = [1.0, 5.0, 10.0, 20.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1,
                           list(zip(noisy, noisy))) == "unresolved"
    fewer_pairs = faster[:5]
    assert compare.verdict(base[:5], fewer_pairs, "lower", 0.1,
                           list(zip(base, fewer_pairs))) == "no worse"


def test_reference_seconds_cancel_host_speed():
    # The same calls on a host twice as slow: twice the time, twice the
    # slowness, the same reference seconds.
    fast = run.reference_seconds([2.0, 3.0], [1.0, 1.0])
    slow = run.reference_seconds([4.0, 6.0], [2.0, 2.0])
    assert fast == slow == 2.5
    assert run.reference_seconds([], []) == 0.0


def test_counts_charge_worker_failures_and_failed_repetitions():
    reps = [{"ok": True}, {"ok": False}, {"ok": True}]
    attempted, failed = run.counts(
        {"processes": 3, "reps": reps, "failures": ["warm-up exited 1"]})
    assert (attempted, failed) == (6, 2)


def test_benchmark_json_names_the_workloads():
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]


def test_smoke_run_passes_every_check():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"], cwd=REPO,
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"smoke_failures": 0}
