"""Config-driven command line runs, exercised in process."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import affdims
from affdims import (
    BernoulliModel,
    affinity_dimension,
    d_q_minus,
    phase_transition_scan,
)
from affdims.cli import _build_parser, config_hash, main, resolve_config
from affdims.dimsolver import _Levels

from checks import diag_ifs

BASE_INI = """\
[run]
seed = 77

[ifs]
dim = 2
map1 = 0.5 0 / 0 0.3
map2 = 0.4 0 / 0 0.35

[measure]
type = bernoulli
probs = 0.6 0.4
"""


def write_ini(tmp_path, extra="", name="run.ini"):
    path = tmp_path / name
    path.write_text(BASE_INI + extra)
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_roundtrip(tmp_path, capsys):
    cfg = write_ini(tmp_path, "[solve]\nq = 2 3\n")
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, "solve", "--config", str(cfg), "--out", str(out))
    assert code == 0
    record = json.loads(stdout)
    assert record["command"] == "solve"
    rows = record["payload"]["dimensions"]
    assert [r["q"] for r in rows] == [2.0, 3.0]

    ifs = diag_ifs([0.5, 0.3], [0.4, 0.35])
    model = BernoulliModel(probs=(0.6, 0.4))
    direct = d_q_minus(ifs, model, 2.0).value
    assert rows[0]["d_q"] == pytest.approx(direct, abs=1e-6)
    assert rows[0]["min_d_q_N"] == pytest.approx(min(direct, 2.0))

    # the run leaves its resolved config and result record behind
    assert (out / "resolved_config.json").exists()
    saved = json.loads((out / "solve_result.json").read_text())
    assert saved["config_hash"] == record["config_hash"]
    assert saved["payload"]["affinity_dimension"] > rows[0]["d_q"] - 1e-6


def test_resolved_config_fills_defaults(tmp_path):
    cfg = resolve_config(write_ini(tmp_path))
    expected = {
        "run": {"seed": 77, "out": "affdims-out"},
        "ifs": {"dim": 2, "maps": [[[0.5, 0.0], [0.0, 0.3]],
                                   [[0.4, 0.0], [0.0, 0.35]]],
                "region_radius": 1.0},
        "measure": {"type": "bernoulli", "probs": [0.6, 0.4]},
        "solve": {"q": [2.0], "tol": 1e-4, "k_max": 0, "scan": False,
                  "q_grid_start": 1.5, "q_grid_stop": 4.0,
                  "q_grid_step": 0.05},
        "sample": {"n": 100_000, "depth": 0},
        "estimate": {"q": [2.0], "rho": 0.5, "rungs": 12, "form": "mesh",
                     "r0": 0.0, "min_occupied": 5, "min_per_cube": 10.0,
                     "cloud": ""},
        "multienergy": {"s": 0.55, "n": 2, "q": 2.5, "samples": 320,
                        "inner": 64, "depth": 6, "mode": "collapse",
                        "survey_depth": 4, "decay_k_max": 10},
    }
    # Compared as JSON so an int default that turns float (or back) fails.
    assert json.dumps(cfg, sort_keys=True) == json.dumps(expected,
                                                         sort_keys=True)


def test_archived_config_reruns_to_same_hash(tmp_path, capsys):
    markov = BASE_INI.replace("type = bernoulli", "type = markov").replace(
        "probs = 0.6 0.4", "potential = -0.7 -1.6 / -1.05 -0.8")
    for name, text in (("bernoulli", BASE_INI), ("markov", markov)):
        path = tmp_path / f"{name}.ini"
        path.write_text(text + "[solve]\nq = 2 3\nk_max = 4\n"
                        "[estimate]\nform = both\n")
        out = tmp_path / name
        code, stdout, _ = run_cli(capsys, "solve", "--config", str(path),
                                  "--out", str(out), "--seed", "9")
        assert code == 0
        archived = resolve_config(out / "resolved_config.json")
        assert config_hash(archived) == json.loads(stdout)["config_hash"]
        assert archived == resolve_config(path, seed=9, out=str(out))


def test_seed_and_out_overrides(tmp_path):
    path = write_ini(tmp_path)
    cfg = resolve_config(path, seed=123, out="elsewhere")
    assert cfg["run"]["seed"] == 123
    assert cfg["run"]["out"] == "elsewhere"


def test_json_config_equivalent_to_ini(tmp_path):
    ini = resolve_config(write_ini(tmp_path))
    jpath = tmp_path / "run.json"
    jpath.write_text(json.dumps({
        "run": {"seed": 77},
        "ifs": {"dim": 2, "maps": [[[0.5, 0], [0, 0.3]], [[0.4, 0], [0, 0.35]]]},
        "measure": {"type": "bernoulli", "probs": [0.6, 0.4]},
    }))
    assert config_hash(resolve_config(jpath)) == config_hash(ini)


def test_scan_writes_csv(tmp_path, capsys):
    cfg = write_ini(
        tmp_path,
        "[solve]\nq = 2\nscan = true\nq_grid_start = 1.5\n"
        "q_grid_stop = 2.0\nq_grid_step = 0.25\n",
    )
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, "solve", "--config", str(cfg), "--out", str(out))
    assert code == 0
    scan = json.loads(stdout)["payload"]["scan"]
    assert len(scan["q"]) == 3
    lines = (out / "scan.csv").read_text().strip().splitlines()
    assert lines[0] == "q,d_q"
    assert len(lines) == 4


def test_sample_then_estimate_reuse(tmp_path, capsys):
    cfg = write_ini(tmp_path, "[sample]\nn = 4000\ndepth = 14\n[estimate]\nq = 2\nrungs = 8\n")
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, "sample", "--config", str(cfg), "--out", str(out))
    assert code == 0
    sample = json.loads(stdout)["payload"]
    assert sample["n"] == 4000
    assert (out / "cloud.txt").exists()

    code, stdout, _ = run_cli(
        capsys, "estimate", "--config", str(cfg), "--out", str(out),
        "--reuse-cloud", sample["cloud_path"],
    )
    assert code == 0
    payload = json.loads(stdout)["payload"]
    assert payload["n"] == 4000
    entry = payload["estimates"][0]
    assert entry["q"] == 2.0
    assert "mesh" in entry["forms"]
    assert (out / "ladder_mesh_q2.csv").exists()
    assert (out / "plot_ladder.py").exists()
    # emitted plot script is at least syntactically sound
    compile((out / "plot_ladder.py").read_text(), "plot_ladder.py", "exec")


def test_estimate_ladders_same_on_two_query_threads(tmp_path, capsys,
                                                   monkeypatch):
    # --threads reaches the ball queries, and the ladder files stay the same.
    import affdims.cli as cli_module
    seen = []
    shared = cli_module.build_ladders

    def recorded(*args, threads, **kwargs):
        seen.append(threads)
        return shared(*args, threads=threads, **kwargs)

    monkeypatch.setattr(cli_module, "build_ladders", recorded)
    cfg = write_ini(tmp_path, "[sample]\nn = 3000\ndepth = 14\n"
                    "[estimate]\nq = 2 3\nrungs = 8\nform = both\n")
    code, stdout, _ = run_cli(capsys, "sample", "--config", str(cfg),
                              "--out", str(tmp_path / "cloud"))
    assert code == 0
    cloud = json.loads(stdout)["payload"]["cloud_path"]
    files = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        code, _, _ = run_cli(capsys, "estimate", "--config", str(cfg),
                             "--out", str(out), "--reuse-cloud", cloud,
                             "--threads", threads)
        assert code == 0
        files.append({f.name: f.read_bytes()
                      for f in sorted(out.glob("ladder_*.csv"))})
    assert seen == [1, 2]
    assert len(files[0]) == 4 and files[0] == files[1]


def test_sample_reproducible_across_runs_and_threads(tmp_path, capsys):
    cfg = write_ini(tmp_path, "[sample]\nn = 3000\ndepth = 12\n")
    digests = []
    for run, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / run
        code, stdout, _ = run_cli(
            capsys, "sample", "--config", str(cfg), "--out", str(out),
            "--threads", threads,
        )
        assert code == 0
        digests.append(json.loads(stdout)["payload"]["cloud_sha256"])
        assert (out / "cloud.txt").exists()
    assert len(set(digests)) == 1


_ACCEPTANCE_4_MAPS = ("map1 = 0.45 0 / 0 0.40\nmap2 = 0.40 0 / 0 0.35\n"
                      "map3 = 0.35 0 / 0 0.30\n")


# cloud.txt digests recorded from an earlier implementation (per-element
# formatting, full prefix matrices for every system, gather-compare word
# draws, fixed 65,536-point chunks): any change of a bit fails here.
@pytest.mark.parametrize("text, threads, digest", [
    ("[ifs]\ndim = 2\n" + _ACCEPTANCE_4_MAPS + "[measure]\ntype = bernoulli\n"
     "probs = 0.40 0.35 0.25\n[sample]\nn = 70001\ndepth = 16\n", "2",
     "b0f968d946d2435280466b02127da58b6f988a48636e35278d0f33c703f910e0"),
    ("[ifs]\ndim = 2\nmap1 = 0.5 0 / 0 0.3\nmap2 = 0.4 0.1 / 0 0.35\n"
     "[measure]\ntype = bernoulli\nprobs = 0.6 0.4\n"
     "[sample]\nn = 5000\ndepth = 20\n", "1",
     "f8e838b374ce989a8fba9f7c0e36a6a030d81e5051f9e72b7a6490a3ce3599e4"),
    ("[ifs]\ndim = 2\n" + _ACCEPTANCE_4_MAPS + "[measure]\ntype = markov\n"
     "potential = -0.7 -1.6 -1.2 / -1.05 -0.8 -0.3 / -0.5 -2.0 -0.9\n"
     "[sample]\nn = 5000\ndepth = 20\n", "1",
     "a98c9f629cd041b0c9109d9834342bb7a9a369e3d788d0f3d0f0602362a50cbf"),
    ("[ifs]\ndim = 1\nmap1 = 0.5\nmap2 = 0.3\nmap3 = -0.4\n"
     "[measure]\ntype = bernoulli\nprobs = 0.5 0.3 0.2\n"
     "[sample]\nn = 5000\ndepth = 20\n", "1",
     "b72d0c53b6f415a993be50f25a72245b42f2756c6ae9c083a924b812d3067757"),
    ("[ifs]\ndim = 3\nmap1 = 0.5 0 0 / 0 0.4 0 / 0 0 0.3\n"
     "map2 = 0.3 0 0 / 0 -0.45 0 / 0 0 0.35\n[measure]\ntype = bernoulli\n"
     "probs = 0.55 0.45\n[sample]\nn = 5000\ndepth = 20\n", "1",
     "7ec1d7260140e5cdb8f4aade35c4b65619317489f30e29b0ee156c712b7716fd"),
], ids=["acceptance4-two-threads", "acceptance6-sheared", "markov",
        "diagonal-1d", "diagonal-3d"])
def test_cloud_sha256_pinned(tmp_path, capsys, text, threads, digest):
    path = tmp_path / "run.ini"
    path.write_text(text)
    code, stdout, _ = run_cli(capsys, "sample", "--config", str(path),
                              "--out", str(tmp_path / "out"), "--seed", "11",
                              "--threads", threads)
    assert code == 0
    assert json.loads(stdout)["payload"]["cloud_sha256"] == digest


def test_verify_scales_with_region_radius_past_squared_range(
        tmp_path, capsys, recwarn):
    # At 2^520 the bounding-box diagonal squares past the float range.
    # Points, bounds and radii all scale by exactly 2^520, so the counts
    # are those of region_radius = 1.
    runs = []
    for radius in (1.0, 2.0 ** 520):
        path = tmp_path / "run.ini"
        path.write_text(
            "[ifs]\ndim = 2\n" + _ACCEPTANCE_4_MAPS
            + f"region_radius = {radius!r}\n[measure]\ntype = bernoulli\n"
            "probs = 0.40 0.35 0.25\n[sample]\nn = 20000\n[estimate]\nq = 2\n")
        out = tmp_path / f"out{len(runs)}"
        code, stdout, _ = run_cli(capsys, "verify", "--config", str(path),
                                  "--out", str(out), "--seed", "3")
        assert code == 0
        lines = (out / "ladder_mesh_q2.csv").read_text().splitlines()[1:]
        runs.append((json.loads(stdout)["payload"]["comparison"][0],
                     [line.split(",") for line in lines]))
    (small, small_rungs), (big, big_rungs) = runs
    assert [r[1:] for r in big_rungs] == [r[1:] for r in small_rungs]
    assert [float(r[0]) for r in big_rungs] == [
        float(r[0]) * 2.0 ** 520 for r in small_rungs]
    assert big["empirical"] == pytest.approx(small["empirical"], rel=1e-12)
    assert not [w for w in recwarn if w.category is RuntimeWarning]


@pytest.mark.parametrize("seed", ["1", "4"])
def test_verify_at_region_radius_near_float_range(tmp_path, capsys, seed):
    # The attractor's diameter, about 5.1 * 3e307, is finite; the
    # bounding box's diagonal squares past the float range.
    path = tmp_path / "run.ini"
    path.write_text(
        "[ifs]\ndim = 2\n" + _ACCEPTANCE_4_MAPS
        + "region_radius = 3e307\n[measure]\ntype = bernoulli\n"
        "probs = 0.40 0.35 0.25\n[sample]\nn = 20000\n[estimate]\nq = 2\n")
    code, stdout, _ = run_cli(capsys, "verify", "--config", str(path),
                              "--out", str(tmp_path / "out"), "--seed", seed)
    assert code == 0
    assert json.loads(stdout)["payload"]["comparison"]


def test_verify_smoke(tmp_path, capsys):
    cfg = write_ini(
        tmp_path,
        "[sample]\nn = 30000\ndepth = 18\n"
        "[estimate]\nq = 2\nrungs = 9\nmin_occupied = 5\n",
    )
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, "verify", "--config", str(cfg), "--out", str(out))
    assert code == 0
    payload = json.loads(stdout)["payload"]
    rows = payload["comparison"]
    assert rows and rows[0]["q"] == 2.0
    assert rows[0]["target"] == pytest.approx(
        min(rows[0]["theoretical_d_q"], 2.0)
    )
    assert payload["max_abs_discrepancy"] == pytest.approx(
        max(abs(r["discrepancy"]) for r in rows)
    )
    # loose sanity only; the tight end-to-end tolerance lives in the
    # acceptance suite with a much larger cloud
    assert abs(rows[0]["discrepancy"]) < 0.5


def count_table_builds(monkeypatch):
    """Record each level-table build from here on in the returned list."""
    builds = []
    init = _Levels.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_Levels, "__init__", counted)
    return builds


@pytest.mark.parametrize("command, extra", [
    ("solve", "[solve]\nq = 1.5 2 3\nk_max = 8\nscan = true\n"
     "q_grid_start = 1.5\nq_grid_stop = 2.5\nq_grid_step = 0.25\n"),
    ("verify", "[solve]\nq = 2 3\nk_max = 8\n[sample]\nn = 3000\n"
     "depth = 14\n[estimate]\nq = 2 3\nrungs = 7\n"),
], ids=["solve-three-q-and-scan", "verify-two-q"])
def test_one_level_table_per_command(tmp_path, capsys, monkeypatch, command,
                                     extra):
    # Every q, the affinity dimension and the scan read one word table,
    # and no q is bisected twice.
    builds = count_table_builds(monkeypatch)
    bisected = []
    bisection = _Levels._bisection

    def recorded(self, q, tol):
        bisected.append(q)
        return bisection(self, q, tol)

    monkeypatch.setattr(_Levels, "_bisection", recorded)
    cfg = write_ini(tmp_path, extra)
    code, stdout, _ = run_cli(capsys, command, "--config", str(cfg),
                              "--out", str(tmp_path / "out"))
    assert code == 0
    assert len(builds) == 1
    assert bisected == ([1.5, 2.0, 3.0, 0.0, 1.75, 2.25, 2.5]
                        if command == "solve" else [2.0, 3.0])
    payload = json.loads(stdout)["payload"]
    ifs = diag_ifs([0.5, 0.3], [0.4, 0.35])
    model = BernoulliModel(probs=(0.6, 0.4))
    got = [r["d_q"] for r in payload["dimensions"]] if command == "solve" \
        else [r["theoretical_d_q"] for r in payload["comparison"]]
    qs = (1.5, 2.0, 3.0) if command == "solve" else (2.0, 3.0)
    assert got == [d_q_minus(ifs, model, q, k_max=8).value for q in qs]
    if command == "solve":
        assert payload["affinity_dimension"] == \
            affinity_dimension(ifs, k_max=8).value
        assert payload["scan"]["d_q"] == list(phase_transition_scan(
            ifs, model, [1.5, 1.75, 2.0, 2.25, 2.5], k_max=8).values)


def test_verify_k_max_past_word_table_exits_before_sampling(tmp_path, capsys):
    # 2^18 words exceed the 250,000-word level table: exit 3 before any
    # cloud is drawn or written.
    path = write_ini(tmp_path, "[solve]\nk_max = 18\n[sample]\nn = 2000\n")
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "verify", "--config", str(path),
                           "--out", str(out))
    assert code == 3
    assert str(2 ** 18) in err and "over the budget of 250000" in err
    assert not out.exists()


def test_verify_solves_before_it_samples(tmp_path, capsys, monkeypatch):
    # The level table is built and solved before any cloud is drawn, and
    # the order leaves the payload as it was.
    import affdims.cli as cli_module
    path = write_ini(tmp_path, "[sample]\nn = 3000\ndepth = 14\n"
                     "[estimate]\nq = 2 3\nrungs = 7\n")
    argv = ("verify", "--config", str(path), "--out", str(tmp_path / "out"))
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    plain = json.loads(stdout)["payload"]
    solved = []
    solve_many = _Levels.solve_many
    sample_cloud = cli_module.sample_cloud

    def recorded(self, qs, tol):
        solved.append(qs)
        return solve_many(self, qs, tol)

    def after_solving(*args, **kwargs):
        assert solved == [[2.0, 3.0]], "sampled before solving"
        return sample_cloud(*args, **kwargs)

    monkeypatch.setattr(_Levels, "solve_many", recorded)
    monkeypatch.setattr(cli_module, "sample_cloud", after_solving)
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(stdout)["payload"] == plain


def test_multienergy_command(tmp_path, capsys):
    cfg = write_ini(
        tmp_path,
        "[multienergy]\ns = 0.55\nn = 2\nq = 2.5\nsamples = 128\n"
        "inner = 32\ndepth = 4\n",
    )
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, "multienergy", "--config", str(cfg), "--out", str(out))
    assert code == 0
    payload = json.loads(stdout)["payload"]
    assert payload["estimate"]["failures"] == 0
    assert payload["estimate"]["attempts"] == 128 // 32 * 32 * 32
    assert payload["exact_truncated"] > 0
    assert payload["prop71"]["all_hold"] is True
    csv_lines = (out / "multienergy.csv").read_text().strip().splitlines()
    assert csv_lines[0].startswith("s,n,q,depth")
    assert len(csv_lines) == 2


def test_missing_config_file_is_config_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "solve", "--config", str(tmp_path / "nope.ini"))
    assert code == 2
    assert "error:" in err


def test_bad_map_named_in_error(tmp_path, capsys):
    cfg = write_ini(tmp_path).read_text().replace("map2 = 0.4 0 / 0 0.35",
                                                  "map2 = 1.4 0 / 0 0.35")
    path = tmp_path / "bad.ini"
    path.write_text(cfg)
    code, _, err = run_cli(capsys, "solve", "--config", str(path))
    assert code == 2
    assert "map2" in err


def test_unknown_section_rejected(tmp_path, capsys):
    path = write_ini(tmp_path, "[plotting]\nstyle = fancy\n")
    code, _, err = run_cli(capsys, "solve", "--config", str(path))
    assert code == 2
    assert "plotting" in err


def test_wrong_prob_count_rejected(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(BASE_INI.replace("probs = 0.6 0.4", "probs = 0.6 0.3 0.1"))
    code, _, err = run_cli(capsys, "solve", "--config", str(path))
    assert code == 2
    assert "probs" in err


@pytest.mark.parametrize("command", ["estimate", "verify"])
def test_missing_cloud_rejected(tmp_path, capsys, monkeypatch, command):
    # verify reads its cloud before it builds its level table.
    builds = count_table_builds(monkeypatch)
    cloud = tmp_path / "absent.txt"
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, command, "--config", str(write_ini(tmp_path)),
                           "--out", str(out), "--reuse-cloud", str(cloud))
    assert code == 2
    assert f"cloud file not found: {cloud}" in err
    assert not out.exists()
    assert not builds


@pytest.mark.parametrize("command", ["solve", "sample", "multienergy"])
def test_reuse_cloud_only_where_a_cloud_is_read(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", "x.ini", "--reuse-cloud", "x"])
    assert exc.value.code == 2
    assert "--reuse-cloud" in capsys.readouterr().err


def test_estimate_without_cloud_is_config_error(tmp_path, capsys):
    path = write_ini(tmp_path)
    code, _, err = run_cli(capsys, "estimate", "--config", str(path))
    assert code == 2
    assert "cloud" in err


_CLOUD_HEADER = ("# affdims cloud v1\n# seed=1 depth=5 dim=2 n=2 "
                 "region_radius=1.0 truncation_bound=0.1 model=x\n")


@pytest.mark.parametrize("command", ["estimate", "verify"])
@pytest.mark.parametrize("text, named", [
    (_CLOUD_HEADER.replace(" n=2", "") + "0.1 0.2\n0.3 0.4\n",
     "header field 'n'"),
    (_CLOUD_HEADER + "0.1 0.2\n0.3 abc\n", "bad row"),
    (_CLOUD_HEADER + "0.1 0.2\nnan 0.5\n", "row 2 of the table has a "
     "non-finite coordinate: nan 0.5"),
    (_CLOUD_HEADER + "inf -inf\n0.1 0.2\n", "row 1 of the table has a "
     "non-finite coordinate: inf -inf"),
], ids=["missing-n", "non-numeric-row", "nan-row", "inf-row"])
def test_malformed_cloud_rejected(tmp_path, capsys, command, text, named):
    cloud = tmp_path / "cloud.txt"
    cloud.write_text(text)
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, command, "--config", str(write_ini(tmp_path)),
                           "--out", str(out), "--reuse-cloud", str(cloud))
    assert code == 2
    assert str(cloud) in err and named in err
    assert not out.exists()


def test_verify_rejects_cloud_of_another_dimension(tmp_path, capsys,
                                                    monkeypatch):
    # A 3-D cloud against a 2-D system exits 2, naming the file and both
    # dimensions, before any solver work.
    cloud = tmp_path / "cloud3d.txt"
    cloud.write_text(_CLOUD_HEADER.replace("dim=2", "dim=3")
                     + "0.1 0.2 0.3\n0.4 0.5 0.6\n")
    builds = count_table_builds(monkeypatch)
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "verify", "--config",
                           str(write_ini(tmp_path)), "--out", str(out),
                           "--reuse-cloud", str(cloud))
    assert code == 2
    assert str(cloud) in err and "dimension 3" in err
    assert "[ifs] dim = 2" in err
    assert not out.exists()
    assert not builds


def test_estimate_q_sharing_a_ladder_file_rejected(tmp_path, capsys):
    # 2 and 2.0000001 both print as "2": their ladders would share one
    # file.  An exact repeat is still allowed.
    path = write_ini(tmp_path, "[estimate]\nq = 2 2.0000001\n")
    code, _, err = run_cli(capsys, "verify", "--config", str(path),
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert "[estimate] q" in err and "2.0 and 2.0000001" in err
    assert not (tmp_path / "out").exists()
    assert resolve_config(write_ini(tmp_path, "[estimate]\nq = 2 2 2.5\n",
                                    name="ok.ini"))["estimate"]["q"] \
        == [2.0, 2.0, 2.5]


_LOPSIDED_INI = BASE_INI.replace(
    "map1 = 0.5 0 / 0 0.3\nmap2 = 0.4 0 / 0 0.35",
    "map1 = 0.99 0 / 0 0.5\nmap2 = 0.5 0 / 0 0.99")


@pytest.mark.parametrize("text, suggest", [
    (BASE_INI + "[sample]\nn = 200\ndepth = 5\n", 15),
    (_LOPSIDED_INI + "[sample]\nn = 200\ndepth = 20\n"
     "[estimate]\nrho = 0.0001\n", None),
], ids=["suggestion", "no-feasible-depth"])
def test_explicit_shallow_depth_samples_with_a_warning(tmp_path, capsys,
                                                       text, suggest):
    # A given depth is used as given.  The warning suggests the default
    # depth where one exists; where no depth reaches a tenth of the finest
    # radius, it suggests none.
    path = tmp_path / "run.ini"
    path.write_text(text)
    code, stdout, _ = run_cli(capsys, "sample", "--config", str(path),
                              "--out", str(tmp_path / "out"))
    assert code == 0
    payload = json.loads(stdout)["payload"]
    assert payload["depth"] == int(re.search(r"depth = (\d+)", text)[1])
    [warning] = payload["warnings"]
    assert warning.startswith(f"depth {payload['depth']} leaves truncation "
                              "error above a tenth of the finest ladder "
                              "radius ")
    if suggest is None:
        assert "suggest" not in warning
    else:
        assert warning.endswith(f"; suggest depth >= {suggest}")


def test_automatic_depth_with_no_feasible_depth_exits_3(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(_LOPSIDED_INI + "[sample]\nn = 200\ndepth = 0\n"
                    "[estimate]\nrho = 0.0001\n")
    code, _, err = run_cli(capsys, "sample", "--config", str(path),
                           "--out", str(tmp_path / "out"))
    assert code == 3
    assert "no feasible truncation depth" in err


def test_multienergy_spread_past_int64_factorials(tmp_path, capsys):
    # 25! overflows int64; the exact sum's series coefficients stay floats.
    path = write_ini(tmp_path, "[multienergy]\nn = 25\nq = 2\ndepth = 2\n")
    code, stdout, _ = run_cli(capsys, "multienergy", "--config", str(path),
                              "--out", str(tmp_path / "out"))
    assert code == 0
    assert math.isfinite(json.loads(stdout)["payload"]["exact_truncated"])


def test_no_root_exit_code(tmp_path, capsys):
    path = tmp_path / "weak.ini"
    path.write_text(
        "[ifs]\ndim = 2\nmap1 = 0.999 0 / 0 0.999\nmap2 = 0.999 0 / 0 0.999\n"
        "[measure]\ntype = bernoulli\nprobs = 0.5 0.5\n[solve]\nq = 5\n"
    )
    code, _, err = run_cli(capsys, "solve", "--config", str(path))
    assert code == 5
    assert "error:" in err


def test_resource_limit_exit_code(tmp_path, capsys):
    path = write_ini(tmp_path, "[multienergy]\nn = 3\nq = 3.5\ndepth = 40\n")
    code, _, err = run_cli(capsys, "multienergy", "--config", str(path))
    assert code == 3


def test_survey_tuple_budget_exit_code(tmp_path, capsys, monkeypatch):
    # 2^18 depth-18 words exceed the survey's 250,000-word level table; the
    # survey runs first, so the run exits 3 before any Monte Carlo work.
    def no_sampling(*args, **kwargs):
        raise AssertionError("Monte Carlo ran before the survey's limit check")

    monkeypatch.setattr(affdims.cli, "mc_multienergy", no_sampling)
    path = write_ini(tmp_path, "[multienergy]\nsamples = 32\ninner = 2\n"
                     "depth = 3\nsurvey_depth = 18\n")
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "multienergy", "--config", str(path),
                           "--out", str(out))
    assert code == 3
    assert str(2 ** 18) in err and "250000" in err
    assert not out.exists()


_IMPORT_PROBE = """\
import json, sys
import affdims, affdims.cli

def scipy_modules():
    return sorted(k for k in sys.modules if k.split(".")[0] == "scipy")

seen = {"import": scipy_modules()}
for command in ("solve", "verify"):
    code = affdims.cli.main([command, "--config", sys.argv[1],
                             "--out", sys.argv[2] + "/" + command])
    seen[command] = scipy_modules() if code == 0 else f"exit {code}"
print(json.dumps(seen))
"""


def test_package_and_mesh_runs_import_no_scipy(tmp_path):
    # scipy.spatial is loaded only by the correlation form; importing the
    # package and running solve and a mesh verify must not load any scipy.
    path = write_ini(tmp_path, "[sample]\nn = 20000\ndepth = 18\n"
                     "[estimate]\nq = 2\nrungs = 9\nform = mesh\n")
    src = str(Path(affdims.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(path), str(tmp_path)],
        capture_output=True, text=True, env=env, check=True, timeout=300,
    )
    seen = json.loads(done.stdout.strip().splitlines()[-1])
    assert seen == {"import": [], "solve": [], "verify": []}


def test_insufficient_data_exit_code(tmp_path, capsys):
    # A cloud this small cannot produce three usable rungs.
    cfg = write_ini(tmp_path, "[sample]\nn = 30\ndepth = 10\n[estimate]\nq = 2\n")
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, "sample", "--config", str(cfg), "--out", str(out))
    assert code == 0
    cloud_path = json.loads(stdout)["payload"]["cloud_path"]
    code, _, err = run_cli(
        capsys, "estimate", "--config", str(cfg), "--out", str(out),
        "--reuse-cloud", cloud_path,
    )
    assert code == 4
    assert "error:" in err


def test_markov_config_accepted(tmp_path, capsys):
    path = tmp_path / "markov.ini"
    path.write_text(
        "[ifs]\ndim = 2\nmap1 = 0.5 0 / 0 0.3\nmap2 = 0.4 0 / 0 0.35\n"
        "[measure]\ntype = markov\npotential = -0.7 -1.6 / -1.05 -0.8\n"
        "[solve]\nq = 2\n"
    )
    code, stdout, _ = run_cli(capsys, "solve", "--config", str(path),
                              "--out", str(tmp_path / "out"))
    assert code == 0
    d = json.loads(stdout)["payload"]["dimensions"][0]["d_q"]
    assert 0 < d < 2


@pytest.mark.parametrize("command, text, argv, named", [
    ("sample", BASE_INI + "[estimate]\nform = bogus\n", [], "form"),
    ("multienergy", BASE_INI + "[multienergy]\nmode = bogus\n", [], "mode"),
    ("sample", BASE_INI, ["--threads", "0"], "--threads"),
    ("sample", BASE_INI.replace("map1 = 0.5 0", "map1 = nan 0"), [],
     "must be finite"),
    ("solve", BASE_INI + "[solve]\ntolerance = 1e-8\n", [],
     "[solve] tolerance"),
    ("solve", BASE_INI.replace("dim = 2", "dim = 2\nregion_radus = 5"), [],
     "[ifs] region_radus"),
    ("solve", BASE_INI.replace("type = bernoulli", "model = markov"), [],
     "[measure] model"),
    ("solve", BASE_INI + "[solve]\ntol = 0\n", [], "[solve] tol"),
    ("solve", BASE_INI + "[solve]\nscan = true\nq_grid_step = 0\n", [],
     "[solve] q_grid_step"),
    ("verify", BASE_INI + "[sample]\nn = 2000\n[estimate]\nrungs = 2\n", [],
     "[estimate] rungs"),
    ("verify", BASE_INI + "[sample]\nn = 2000\n[estimate]\nrho = 1.5\n", [],
     "[estimate] rho"),
    ("verify", BASE_INI + "[sample]\nn = 2000\n[estimate]\nq = 2 1\n", [],
     "[estimate] q"),
    ("verify", BASE_INI + "[sample]\nn = 2000\n[solve]\nk_max = -1\n", [],
     "[solve] k_max"),
    ("sample", BASE_INI + "[sample]\nn = 2000\ndepth = -3\n", [],
     "[sample] depth"),
    ("verify", BASE_INI + "[sample]\nn = 2000\n"
     "[estimate]\nform = correlation\nq = 2.5\n", [], "[estimate] q"),
    ("sample", json.dumps({
        "ifs": {"dim": 2, "maps": [[[0.5, 0], [0, 0.3]], [[0.4, 0], [0, 0.35]]]},
        "measure": {"type": "bernoulli", "probs": [0.6, 0.4]},
        "sample": {"n": 3.7, "depth": 10},
    }), [], "[sample] n"),
    ("solve", BASE_INI + "[solve]\nq = 2 3 0.5\n", [], "[solve] q"),
    ("solve", BASE_INI + "[solve]\nscan = true\nq_grid_start = 1\n", [],
     "[solve] q_grid_start"),
    ("solve", BASE_INI + "[solve]\nscan = true\nq_grid_start = 4\n"
     "q_grid_stop = 1.5\n", [], "[solve] q_grid_start, q_grid_stop"),
    ("solve", BASE_INI + "[solve]\nscan = true\nq_grid_stop = nan\n", [],
     "[solve] q_grid_stop"),
    ("solve", BASE_INI + "[solve]\nscan = true\nq_grid_step = 1e-300\n", [],
     "[solve] q_grid_start, q_grid_stop, q_grid_step"),
    ("verify", BASE_INI + "[sample]\nn = 2000\n[estimate]\nq =\n", [],
     "[estimate] q"),
    ("solve", BASE_INI + "[solve]\nq =\n", [], "[solve] q"),
    ("sample", BASE_INI.replace("dim = 2", "dim = 2\nregion_radius = inf"),
     [], "[ifs] region_radius"),
    ("sample", BASE_INI.replace("dim = 2", "dim = 2\nregion_radius = 1.5e308"),
     [], "[ifs] region_radius"),
    ("verify", BASE_INI.replace("dim = 2", "dim = 2\nregion_radius = 1.5e308")
     + "[sample]\nn = 2000\n", [], "[ifs] region_radius"),
    ("estimate", BASE_INI.replace("dim = 2", "dim = 2\nregion_radius = 1.5e308")
     + "[sample]\nn = 2000\n", [], "[ifs] region_radius"),
    ("verify", BASE_INI + "[sample]\nn = 2000\n[estimate]\nr0 = nan\n", [],
     "[estimate] r0"),
    ("verify", BASE_INI + "[sample]\nn = 2000\n[estimate]\nr0 = inf\n", [],
     "[estimate] r0"),
    ("verify", BASE_INI + "[sample]\nn = 2000\n[estimate]\n"
     "min_per_cube = nan\n", [], "[estimate] min_per_cube"),
    ("verify", BASE_INI + "[sample]\nn = 2000\n[estimate]\n"
     "min_per_cube = inf\n", [], "[estimate] min_per_cube"),
    ("verify", BASE_INI, ["--threads", "1000000"], "--threads"),
], ids=["form", "mode", "threads", "nan-entry", "unknown-solve-key",
        "unknown-ifs-key", "unknown-measure-key", "tol-zero",
        "grid-step-zero", "two-rungs", "rho-above-one", "estimate-q-one",
        "k-max-negative", "depth-negative", "correlation-fractional-q",
        "json-fractional-int", "solve-q-one-half", "grid-start-one",
        "grid-empty", "grid-stop-nan", "grid-too-long", "estimate-q-empty",
        "solve-q-empty", "radius-inf", "sample-diameter-overflow",
        "verify-diameter-overflow", "estimate-diameter-overflow", "r0-nan", "r0-inf",
        "min-per-cube-nan", "min-per-cube-inf", "threads-past-cap"])
def test_bad_input_rejected_before_work(tmp_path, capsys, monkeypatch,
                                        command, text, argv, named):
    builds = count_table_builds(monkeypatch)
    path = tmp_path / "bad.ini"
    path.write_text(text)
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, command, "--config", str(path),
                           "--out", str(out), *argv)
    assert code == 2
    assert named in err
    assert not out.exists()
    assert not builds


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("flag", [False, True], ids=["config", "flag"])
@pytest.mark.parametrize("command",
                         ["solve", "sample", "estimate", "verify",
                          "multienergy"])
def test_out_of_range_seed_rejected_before_work(tmp_path, capsys, monkeypatch,
                                                command, flag, seed):
    # Seeds are 64-bit keys; one outside [0, 2^64) would otherwise wrap.
    builds = count_table_builds(monkeypatch)
    argv = ["--seed", str(seed)] if flag else []
    text = BASE_INI if flag else BASE_INI.replace("seed = 77", f"seed = {seed}")
    path = tmp_path / "bad.ini"
    path.write_text(text)
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, command, "--config", str(path),
                           "--out", str(out), *argv)
    assert code == 2
    assert ("--seed" if flag else "[run] seed") in err
    assert not out.exists()
    assert not builds


# Acceptance criterion 6's system, whose second map is sheared, at the
# verify-corr benchmark's estimate settings.
SHEARED_CORR_INI = BASE_INI.replace("map2 = 0.4 0 / 0 0.35",
                                    "map2 = 0.4 0.1 / 0 0.35") + """
[sample]
n = 2000
[solve]
q = 2 3
[estimate]
q = 2 3
form = both
rungs = 12
"""


def test_verify_counts_each_rung_once(tmp_path, capsys, monkeypatch):
    # One k-d tree for the cloud, one ball query and one cube count per
    # rung serve both q and both forms; counted per ladder, these were
    # 24 trees, 24 queries and 48 cube counts.
    import scipy.spatial

    from affdims import estimator

    calls = {"trees": 0, "queries": 0, "cube_counts": 0}

    class CountingTree(scipy.spatial.cKDTree):
        def __init__(self, *args, **kwargs):
            calls["trees"] += 1
            super().__init__(*args, **kwargs)

        def query_ball_point(self, *args, **kwargs):
            calls["queries"] += 1
            return super().query_ball_point(*args, **kwargs)

    cube_counts = estimator._cube_counts

    def counted(*args):
        calls["cube_counts"] += 1
        return cube_counts(*args)

    monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
    monkeypatch.setattr(estimator, "_cube_counts", counted)
    path = tmp_path / "corr.ini"
    path.write_text(SHEARED_CORR_INI)
    code, stdout, _ = run_cli(capsys, "verify", "--config", str(path),
                              "--out", str(tmp_path / "out"))
    assert code == 0
    assert len(json.loads(stdout)["payload"]["comparison"]) == 4
    assert calls == {"trees": 1, "queries": 12, "cube_counts": 12}


def test_repeated_q_gives_one_row_per_entry(tmp_path, capsys):
    path = tmp_path / "twice.ini"
    path.write_text(SHEARED_CORR_INI.replace("q = 2 3", "q = 2 2"))
    code, stdout, _ = run_cli(capsys, "verify", "--config", str(path),
                              "--out", str(tmp_path / "twice"))
    assert code == 0
    twice = json.loads(stdout)["payload"]
    once_path = tmp_path / "once.ini"
    once_path.write_text(SHEARED_CORR_INI.replace("q = 2 3", "q = 2"))
    code, stdout, _ = run_cli(
        capsys, "verify", "--config", str(once_path),
        "--out", str(tmp_path / "once"),
        "--reuse-cloud", str(tmp_path / "twice" / "cloud.txt"),
    )
    assert code == 0
    once = json.loads(stdout)["payload"]
    assert twice["estimate"]["estimates"] == 2 * once["estimate"]["estimates"]
    assert twice["comparison"] == 2 * once["comparison"]


@pytest.mark.parametrize("extra, code, named", [
    ("s = 1.0\n", 2, "s=1.0 is an integer"),
    ("s = 2.5\n", 2, "need s in (0, 2]"),
    ("n = 0\n", 2, "got n=0"),
    ("n = 2\nq = 3.5\n", 2, "got q=3.5"),
    ("samples = 16\n", 2, "16 < 32"),
    ("depth = 0\n", 2, "depth must be >= 1"),
    ("depth = 18\n", 3, "over the budget of 250000"),
    ("depth = 15\n", 3, "tree vertices"),
    ("decay_k_max = 2\n", 2, "k_max >= 3"),
    ("decay_k_max = 18\n", 3, "over the budget of 250000"),
    ("inner = 0\n", 2, "got inner=0"),
    ("inner = -1\n", 2, "got inner=-1"),
    ("survey_depth = 0\n", 2, "[multienergy] survey_depth"),
    ("samples = 32000000000\ninner = 10000\n", 3,
     "uniforms per batch, over the budget of 16777216"),
], ids=["s-integer", "s-above-dim", "n-zero", "q-above-n-plus-1",
        "samples-below-batches", "depth-zero", "depth-past-word-table",
        "depth-past-tree-budget", "decay-k-max-two",
        "decay-k-max-past-word-table", "inner-zero", "inner-negative",
        "survey-depth-zero", "mc-past-batch-budget"])
def test_multienergy_bad_input_rejected_before_work(tmp_path, capsys,
                                                    monkeypatch, extra, code,
                                                    named):
    # The survey is the command's first piece of work; a bad Monte Carlo,
    # exact or decay input must exit before it starts.
    def no_survey(*args, **kwargs):
        raise AssertionError("the survey ran before the input checks")

    monkeypatch.setattr(affdims.cli, "prop71_survey", no_survey)
    if "survey_depth" not in extra:
        extra = "survey_depth = 17\n" + extra
    path = write_ini(tmp_path, "[multienergy]\n" + extra)
    out = tmp_path / "out"
    got, _, err = run_cli(capsys, "multienergy", "--config", str(path),
                          "--out", str(out))
    assert got == code
    assert named in err
    assert not out.exists()


class ClosedPipe:
    """A stdout whose reader has gone, as under `affdims solve | head`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_does_not_fail_a_finished_run(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    out = tmp_path / "out"
    code = main(["solve", "--config", str(write_ini(tmp_path)),
                 "--out", str(out)])
    if not isinstance(sys.stdout, ClosedPipe):
        sys.stdout.close()
    assert code == 0
    assert capsys.readouterr().err == ""
    assert json.loads((out / "solve_result.json").read_text())["payload"]


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
@pytest.mark.parametrize("flag", [False, True], ids=["config", "flag"])
def test_out_that_cannot_be_a_directory_rejected_before_work(
        tmp_path, capsys, monkeypatch, below, flag):
    builds = count_table_builds(monkeypatch)
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = taken / "out" if below else taken
    path = tmp_path / "run.ini"
    path.write_text(BASE_INI.replace("seed = 77", f"seed = 77\nout = {out}"))
    argv = ["--out", str(out)] if flag else []
    code, _, err = run_cli(capsys, "solve", "--config", str(path), *argv)
    assert code == 2
    assert "[run] out" in err and str(out) in err
    assert taken.read_text() == "keep\n"
    assert not builds


def test_out_failing_at_first_write_names_the_file(tmp_path, capsys,
                                                   monkeypatch):
    # A directory that passes the check but cannot be made (here, a file
    # put in its place) still exits 2, naming the file.
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    monkeypatch.setattr(affdims.cli, "_out_dir",
                        lambda cfg: Path(cfg["run"]["out"]))
    code, _, err = run_cli(capsys, "solve", "--config",
                           str(write_ini(tmp_path)), "--out", str(taken))
    assert code == 2
    assert str(taken / "resolved_config.json") in err
    assert taken.read_text() == "keep\n"


@pytest.mark.parametrize("command, name, extra", [
    ("solve", "solve_result.json", ""),
    ("solve", "scan.csv", "[solve]\nscan = true\nq_grid_start = 2\n"
                          "q_grid_stop = 3\nq_grid_step = 0.5\n"),
    ("sample", "cloud.txt", "[sample]\nn = 500\ndepth = 10\n"),
], ids=["result", "scan", "cloud"])
def test_run_file_that_cannot_be_opened_names_the_file(tmp_path, capsys,
                                                       command, name, extra):
    # The output directory exists, but one run file's name is taken by a
    # directory: the run exits 2 naming that file, not with a traceback.
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    code, stdout, err = run_cli(capsys, command, "--config",
                                str(write_ini(tmp_path, extra)),
                                "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert "[run] out" in err and str(out / name) in err
    assert (out / name).is_dir()


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_ini():
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_config_resolves_verbatim(tmp_path):
    path = tmp_path / "readme.ini"
    path.write_text(_readme_ini())
    cfg = resolve_config(path)
    assert cfg["measure"] == {"type": "bernoulli",
                              "probs": [0.40, 0.35, 0.25]}


def test_readme_config_markov_variant(tmp_path):
    # The README says a Markov measure swaps the type for markov and
    # gives a potential matrix in the same row syntax.
    text = re.sub(r"(?m)^(\w+) = bernoulli$", r"\1 = markov", _readme_ini())
    text = re.sub(r"(?m)^probs = .*$",
                  "potential = 0 -1 0 / -1 0 0 / 0 0 -1", text)
    path = tmp_path / "readme_markov.ini"
    path.write_text(text)
    cfg = resolve_config(path)
    assert cfg["measure"]["type"] == "markov"
    assert cfg["measure"]["potential"][0] == [0.0, -1.0, 0.0]


def test_readme_cli_flags_exist():
    text = README.read_text()
    section = text[text.index("## CLI"):text.index("### Config format")]
    flags = set(re.findall(r"--[a-z][a-z-]*", section))
    for flag in flags:
        # Every flag takes a value; an unknown one exits with usage errors.
        _build_parser().parse_args(["verify", "--config", "x.ini", flag, "1"])


# Every file the commands write, pinned by the first 16 hex digits of its
# sha256 (a result record without its timing_seconds).  Each command runs
# in its own directory with the relative --out out, so config_hash and
# cloud_path do not depend on where the test runs.
RUN_FILES_SHEARED_INI = SHEARED_CORR_INI.replace(
    "[solve]\nq = 2 3\n",
    "[solve]\nq = 2 3\nscan = true\nq_grid_start = 2\nq_grid_stop = 3\n"
    "q_grid_step = 0.25\n",
) + """
[multienergy]
samples = 64
inner = 8
depth = 4
survey_depth = 3
"""
RUN_FILES_MARKOV_INI = """\
[run]
seed = 5

[ifs]
dim = 2
""" + _ACCEPTANCE_4_MAPS + """
[measure]
type = markov
potential = -0.7 -1.6 -1.2 / -1.05 -0.8 -0.3 / -0.5 -2.0 -0.9

[solve]
q = 2 3
k_max = 8

[sample]
n = 2000

[estimate]
q = 2
rungs = 8
"""
RUN_FILES_DIGESTS = {
    "sheared": {
        "solve/resolved_config.json": "ac64b0a00a24d473",
        "solve/scan.csv": "b0d9caa1c17cf3dd",
        "solve/solve_result.json": "8f2ca72231f1ae5a",
        "sample/cloud.txt": "8895691401de7aba",
        "sample/resolved_config.json": "ac64b0a00a24d473",
        "sample/sample_result.json": "eabfa0dfd24bb067",
        "estimate/estimate_result.json": "0583c8a338642fbf",
        "estimate/ladder_correlation_q2.csv": "db82815931fa0554",
        "estimate/ladder_correlation_q3.csv": "f847354477b578fa",
        "estimate/ladder_mesh_q2.csv": "5c58024e6c9b24bb",
        "estimate/ladder_mesh_q3.csv": "f40a8df26241c043",
        "estimate/plot_ladder.py": "5aa1b50c06d531db",
        "estimate/resolved_config.json": "ac64b0a00a24d473",
        "verify/cloud.txt": "8895691401de7aba",
        "verify/ladder_correlation_q2.csv": "db82815931fa0554",
        "verify/ladder_correlation_q3.csv": "f847354477b578fa",
        "verify/ladder_mesh_q2.csv": "5c58024e6c9b24bb",
        "verify/ladder_mesh_q3.csv": "f40a8df26241c043",
        "verify/plot_ladder.py": "5aa1b50c06d531db",
        "verify/resolved_config.json": "ac64b0a00a24d473",
        "verify/verify_result.json": "88f14c6747f0cb7c",
        "multienergy/multienergy.csv": "8a1a910c18701454",
        "multienergy/multienergy_result.json": "6e5cdb038631c8e4",
        "multienergy/resolved_config.json": "ac64b0a00a24d473",
    },
    "markov": {
        "solve/resolved_config.json": "9f2db710ab853b52",
        "solve/solve_result.json": "174947fc0b7a99f6",
        "sample/cloud.txt": "cf0f2bbc4b9e27d1",
        "sample/resolved_config.json": "9f2db710ab853b52",
        "sample/sample_result.json": "ffed1f905a9f6b6e",
        "verify/cloud.txt": "cf0f2bbc4b9e27d1",
        "verify/ladder_mesh_q2.csv": "05bde88032ecdb28",
        "verify/plot_ladder.py": "5aa1b50c06d531db",
        "verify/resolved_config.json": "9f2db710ab853b52",
        "verify/verify_result.json": "3f46967c884cbf21",
    },
}


def _file_digest(path):
    blob = path.read_bytes()
    if path.name.endswith("_result.json"):
        record = json.loads(blob)
        del record["timing_seconds"]
        blob = (json.dumps(record, indent=2, sort_keys=True) + "\n").encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize("text, commands", [
    (RUN_FILES_SHEARED_INI,
     ["solve", "sample", "estimate", "verify", "multienergy"]),
    (RUN_FILES_MARKOV_INI, ["solve", "sample", "verify"]),
], ids=["sheared", "markov"])
def test_run_files_pinned(tmp_path, capsys, monkeypatch, request, text,
                          commands):
    (tmp_path / "run.ini").write_text(text)
    digests = {}
    for command in commands:
        work = tmp_path / command
        work.mkdir()
        monkeypatch.chdir(work)
        argv = [command, "--config", "../run.ini", "--out", "out"]
        if command == "estimate":
            argv += ["--reuse-cloud", "../sample/out/cloud.txt"]
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(stdout) == json.loads(
            (work / "out" / f"{command}_result.json").read_text())
        for path in sorted((work / "out").iterdir()):
            digests[f"{command}/{path.name}"] = _file_digest(path)
    assert digests == RUN_FILES_DIGESTS[request.node.callspec.id]
