"""Batch front door: config-driven runs of the solver and verification chain.

Commands
--------
solve        theoretical q-dimensions, affinity dimension, phase scan
sample       generate a point cloud of the random construction
estimate     empirical q-dimensions from a cloud file
verify       solve + sample + estimate, with per-q discrepancies
multienergy  multienergy estimates, product-bound survey, decay check

Configs are plain INI-style text with [section] headers, or a JSON file
with the same nesting.  Every run writes the fully resolved config (every
default and flag filled in) next to its outputs, plus a machine-readable
result record; a rerun from the resolved config reproduces the run.

Exit codes: 0 success, 2 config or input error, 3 resource limit,
4 insufficient data, 5 no root found, 1 anything unexpected.
"""

import argparse
import configparser
import contextlib
import copy
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .dimsolver import _check_grid, _flag_kinks, _Levels
from .errors import (
    ConfigError,
    InsufficientDataError,
    InvalidInputError,
    NoRootError,
    ResourceLimitError,
)
from .estimator import _bounds, _check_radius, build_ladders, estimate_dimension
from .linalg import AffineIFS, LinearContraction
from .measures import BernoulliModel, MarkovGibbsModel
from .multienergy import (
    _check_decay,
    _check_exact,
    _check_mc,
    check_decay_criterion,
    exact_truncated_multienergy,
    mc_multienergy,
    prop71_survey,
)
from .sampler import (
    _MAX_THREADS,
    DisplacementField,
    _check_cloud_size,
    attractor_radius,
    default_depth,
    read_cloud,
    sample_cloud,
    truncation_tail,
    write_cloud,
)

_EXIT_CODES = (
    ((ConfigError, InvalidInputError), 2),
    ((ResourceLimitError,), 3),
    ((InsufficientDataError,), 4),
    ((NoRootError,), 5),
)


# ---------------------------------------------------------------------------
# Config loading and resolution.


def _load_raw(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if str(path).endswith(".json") or text.lstrip().startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(raw, dict) or not all(
                isinstance(v, dict) for v in raw.values()):
            raise ConfigError(f"{path}: expected an object of section objects")
        return {str(k): dict(v) for k, v in raw.items()}
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _floats(value, where):
    items = value if isinstance(value, (list, tuple)) else str(value).split()
    try:
        return [float(x) for x in items]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: expected numbers, got {value!r}") from exc


def _matrix(value, where):
    rows = value if isinstance(value, (list, tuple)) else str(value).split("/")
    return [_floats(row, where) for row in rows]


@dataclass(frozen=True)
class _Bounded:
    """A key's default and the open bounds lo < value < hi it must keep."""

    default: object
    lo: float
    hi: float = math.inf


# Section -> key -> default.  The default's type is the key's type: int is
# strict, a list holds numbers, a tuple lists the allowed words (default
# first) and a bare type marks a required key.  A `_Bounded` default also
# bounds its key (every entry of a list), where a value would otherwise
# fail deep in a run, only after sampling, or (the 64-bit seed) wrap
# silently.  k_max and depth take 0 for "choose automatically", r0 <= 0
# does too; (-inf, inf) rejects only NaN and inf.  The ifs maps and the
# measure's probs/potential depend on other keys and are resolved by hand.
_SCHEMA = {
    "run": {"seed": _Bounded(0, -1, 2 ** 64), "out": "affdims-out"},
    "ifs": {"dim": int, "region_radius": _Bounded(1.0, 0)},
    "measure": {"type": ("bernoulli", "markov")},
    "solve": {
        "q": _Bounded([2.0], 1), "tol": _Bounded(1e-4, 0),
        "k_max": _Bounded(0, -1), "scan": False,
        "q_grid_start": _Bounded(1.5, 1), "q_grid_stop": _Bounded(4.0, 1),
        "q_grid_step": _Bounded(0.05, 0),
    },
    "sample": {"n": _Bounded(100_000, 0), "depth": _Bounded(0, -1)},
    "estimate": {
        "q": _Bounded([2.0], 1), "rho": _Bounded(0.5, 0, 1),
        "rungs": _Bounded(12, 2), "form": ("mesh", "correlation", "both"),
        "r0": _Bounded(0.0, -math.inf), "min_occupied": 5,
        "min_per_cube": _Bounded(10.0, -math.inf), "cloud": "",
    },
    "multienergy": {
        "s": 0.55, "n": 2, "q": 2.5, "samples": 320, "inner": 64,
        "depth": 6, "mode": ("collapse", "resample"),
        "survey_depth": _Bounded(4, 0), "decay_k_max": 10,
    },
}
_TRUE, _FALSE = ("true", "yes", "1", "on"), ("false", "no", "0", "off")


def _parse(value, default, where):
    kind = default if isinstance(default, type) else type(default)
    try:
        word = str(value).strip().lower()
        if kind is tuple:
            if word in default:
                return word
        elif kind is list:
            numbers = _floats(value, where)
            if not numbers:
                raise ConfigError(f"{where}: expected at least one number, "
                                  f"got {value!r}")
            return numbers
        elif kind is bool:
            if isinstance(value, bool):
                return value
            if word in _TRUE + _FALSE:
                return word in _TRUE
        elif kind is str:
            return str(value)
        elif kind is float and not isinstance(value, bool):
            return float(value)
        elif kind is int and not isinstance(value, bool):
            # "3", 3 and 3.0 parse; "3.7", 3.7 and true do not
            if isinstance(value, str) or float(value).is_integer():
                return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    expected = "one of " + ", ".join(default) if kind is tuple \
        else kind.__name__
    raise ConfigError(f"{where}: expected {expected}, got {value!r}")


def _resolve_maps(block, dim):
    """Pop the maps from the [ifs] block: a JSON "maps" list or map1..mapK."""
    if "maps" in block:
        entries = block.pop("maps")
        if not isinstance(entries, list):
            raise ConfigError("[ifs] maps: expected a list of matrices")
    else:
        entries = []
        while f"map{len(entries) + 1}" in block:
            entries.append(block.pop(f"map{len(entries) + 1}"))
    if len(entries) < 2:
        raise ConfigError(
            f"[ifs] map1, map2, ...: need at least 2 maps, found {len(entries)}"
        )
    maps = [_matrix(e, f"[ifs] map{j}") for j, e in enumerate(entries, 1)]
    for j, rows in enumerate(maps, start=1):
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise ConfigError(f"[ifs] map{j}: expected a {dim} x {dim} matrix")
    return maps


def _resolve_weights(block, measure_type, m):
    """Pop the measure's weights from the [measure] block: probs or potential."""
    key, other = ("probs", "potential") if measure_type == "bernoulli" \
        else ("potential", "probs")
    if other in block:
        raise ConfigError(f"[measure] {other}: not used with type={measure_type}")
    if key not in block:
        raise ConfigError(f"[measure] {key}: required for type={measure_type}")
    if key == "probs":
        probs = _floats(block.pop(key), "[measure] probs")
        if len(probs) != m:
            raise ConfigError(f"[measure] probs: {len(probs)} entries for {m} maps")
        return {key: probs}
    pot = _matrix(block.pop(key), "[measure] potential")
    if len(pot) != m or any(len(r) != m for r in pot):
        raise ConfigError(f"[measure] potential: expected {m} x {m}")
    return {key: pot}


def _q_tag(q):
    """q as it appears in a ladder file's name: 2 -> 2, 2.5 -> 2p5."""
    return f"{q:g}".replace(".", "p")


def _check_range(bounded, key, value, where):
    for v in value if isinstance(value, list) else [value]:
        if not bounded.lo < v < bounded.hi:
            raise ConfigError(f"{where}: expected {bounded.lo} < {key} < "
                              f"{bounded.hi}, got {v!r}")


def resolve_config(path, seed=None, out=None, cloud=None):
    """Parse a config file and fill in every default.

    seed, out and cloud override [run] seed, [run] out and [estimate]
    cloud.  The returned dict is the complete run description; it is what
    gets archived next to the outputs and hashed into result records.
    """
    raw = _load_raw(path)
    for section in raw:
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
    cfg = {}
    for section, schema in _SCHEMA.items():
        block = raw.get(section, {})
        values = cfg[section] = {}
        for key, spec in schema.items():
            where = f"[{section}] {key}"
            default = spec.default if isinstance(spec, _Bounded) else spec
            if key in block:
                values[key] = _parse(block.pop(key), default, where)
            elif isinstance(default, type):
                raise ConfigError(f"{where}: required")
            else:
                values[key] = default[0] if isinstance(default, tuple) \
                    else copy.copy(default)
            if isinstance(spec, _Bounded):
                _check_range(spec, key, values[key], where)
        if section == "ifs":
            values["maps"] = _resolve_maps(block, values["dim"])
        elif section == "measure":
            values.update(_resolve_weights(
                block, values["type"], len(cfg["ifs"]["maps"])
            ))
        elif section == "estimate":
            tags = {}  # distinct q's with one tag would share ladder files
            for q in values["q"]:
                other = tags.setdefault(_q_tag(q), q)
                if other != q:
                    raise ConfigError(
                        f"[estimate] q: {other!r} and {q!r} would both "
                        f"write the ladder files tagged q{_q_tag(q)}")
            if values["form"] == "correlation" \
                    and any(q != int(q) for q in values["q"]):
                raise ConfigError("[estimate] q: form = correlation needs "
                                  f"integer q, got {values['q']}")
        if block:
            raise ConfigError(f"[{section}] {next(iter(block))}: unknown key")
    _check_scales(cfg)
    if seed is not None:
        _check_range(_SCHEMA["run"]["seed"], "seed", int(seed), "--seed")
        cfg["run"]["seed"] = int(seed)
    if out is not None:
        cfg["run"]["out"] = str(out)
    if cloud is not None:
        cfg["estimate"]["cloud"] = str(cloud)
    return cfg


def _build_ifs(cfg):
    maps = []
    for j, rows in enumerate(cfg["ifs"]["maps"], start=1):
        try:
            maps.append(LinearContraction(rows))
        except InvalidInputError as exc:
            raise ConfigError(f"[ifs] map{j}: {exc}") from exc
    return AffineIFS(maps=tuple(maps))


def _check_scales(cfg):
    """A cloud's points and extents and the automatic r0 are bounded by
    the attractor's diameter: a region_radius that puts it past the float
    range is rejected before any work, as is a finest ladder radius that
    `_check_radius` rejects, for an explicit r0 on the box of
    +-attractor_radius (an automatic r0 follows the cloud: only 0)."""
    ifs = _build_ifs(cfg)
    radius = cfg["ifs"]["region_radius"]
    reach = attractor_radius(ifs, radius)
    if not math.isfinite(2.0 * reach):
        raise ConfigError(
            f"[ifs] region_radius: {radius!r} puts the attractor's "
            "diameter past the float range")
    _check_finest(_ladder_r_min(cfg, ifs),
                  [reach] if cfg["estimate"]["r0"] > 0 else None)


def _check_finest(r_min, bounds):
    """`_check_radius` on the finest ladder radius, naming its keys."""
    try:
        _check_radius(r_min, bounds)
    except InvalidInputError as exc:
        raise ConfigError(
            f"[estimate] r0, rho, rungs: the finest ladder {exc}") from exc


def build_system(cfg):
    """Instantiate the contraction system and measure from a resolved config."""
    ifs = _build_ifs(cfg)
    measure = cfg["measure"]
    try:
        if measure["type"] == "bernoulli":
            model = BernoulliModel(probs=tuple(measure["probs"]))
        else:
            model = MarkovGibbsModel(
                potential=np.array(measure["potential"], dtype=np.float64)
            )
    except InvalidInputError as exc:
        raise ConfigError(f"[measure]: {exc}") from exc
    return ifs, model


# ---------------------------------------------------------------------------
# Run files.


def config_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _out_dir(cfg):
    """[run] out as a Path, unless its nearest existing ancestor is not a
    directory: checked before any work, though made only at the first
    write."""
    out_dir = Path(cfg["run"]["out"])
    ancestor = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not ancestor.is_dir():
        raise ConfigError(f"[run] out: {out_dir} cannot be a directory, "
                          f"since {ancestor} is not one")
    return out_dir


@contextlib.contextmanager
def _out_file(out_dir, name):
    """out_dir / name, after making out_dir: every run file is written in
    this block.  An OSError making the directory or opening or writing
    the file exits 2, naming the file."""
    path = out_dir / name
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        yield path
    except OSError as exc:
        raise ConfigError(f"[run] out: cannot write {path}: {exc}") from exc


def _write_text(out_dir, name, text):
    with _out_file(out_dir, name) as path:
        path.write_text(text)


def _write_json(out_dir, name, obj):
    text = json.dumps(obj, indent=2, sort_keys=True)
    _write_text(out_dir, name, text + "\n")


def _write_csv(out_dir, name, header, rows):
    """The header, then each row's Python ints and floats as their repr."""
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    _write_text(out_dir, name, "\n".join(lines) + "\n")


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Render log M_r(q) against log r from the ladder CSVs in this directory.\"\"\"
import csv
import glob
import math

import matplotlib.pyplot as plt

for path in sorted(glob.glob("ladder_*.csv")):
    rs, ms, used = [], [], []
    with open(path) as fh:
        for row in csv.DictReader(fh):
            rs.append(math.log(float(row["r"])))
            ms.append(math.log(float(row["moment_sum"])))
            used.append(row["usable"] == "1")
    label = path[len("ladder_"):-len(".csv")]
    plt.plot(rs, ms, "o-", label=label, alpha=0.6)
    plt.plot([x for x, u in zip(rs, used) if u],
             [y for y, u in zip(ms, used) if u], "o", color="black",
             markersize=3)
plt.xlabel("log r")
plt.ylabel("log M_r(q)")
plt.legend()
plt.tight_layout()
plt.savefig("ladder.png", dpi=150)
print("wrote ladder.png")
"""


# ---------------------------------------------------------------------------
# Commands.


def _scan_grid(sol):
    """The [solve] scan grid as floats, checked before any solver work."""
    try:
        return _check_grid(np.arange(
            sol["q_grid_start"],
            sol["q_grid_stop"] + 0.5 * sol["q_grid_step"],
            sol["q_grid_step"],
        ))
    except ValueError as exc:  # also numpy's, for a grid too long to hold
        raise ConfigError(
            f"[solve] q_grid_start, q_grid_stop, q_grid_step: {exc}"
        ) from exc


def cmd_solve(cfg, out_dir, threads):
    ifs, model = build_system(cfg)
    sol = cfg["solve"]
    grid = _scan_grid(sol) if sol["scan"] else None
    # One table and one lockstep bisection serve every q, the affinity
    # dimension (q = 0) and the scan.
    levels = _Levels(ifs, model, sol["k_max"] or None)
    solved = levels.solve_many(sol["q"] + [0.0] + (grid or []), sol["tol"])
    n_q = len(sol["q"])
    rows = []
    for q, res in zip(sol["q"], solved):
        rows.append({
            "q": q,
            "d_q": res.value,
            "min_d_q_N": min(res.value, float(ifs.dim)),
            "bracket": list(res.bracket),
            "depth": res.depth,
            "iterations": res.iterations,
            "growth_lo": res.growth_lo,
            "growth_hi": res.growth_hi,
        })
    payload = {
        "dimensions": rows,
        "affinity_dimension": solved[n_q].value,
    }
    if grid is not None:
        scan = _flag_kinks(
            grid, [res.value for res in solved[n_q + 1:]], sol["tol"])
        payload["scan"] = {
            "q": list(scan.qs),
            "d_q": list(scan.values),
            "kink_qs": list(scan.kink_qs),
            "threshold": scan.threshold,
        }
        _write_csv(out_dir, "scan.csv", ("q", "d_q"),
                   zip(scan.qs, scan.values))
    return payload


def _ladder_r_min(cfg, ifs):
    """r0 * rho^rungs; ifs is read only for an automatic r0."""
    est = cfg["estimate"]
    r0 = est["r0"]
    if r0 <= 0:
        r0 = 2.0 * attractor_radius(ifs, cfg["ifs"]["region_radius"])
    return r0 * est["rho"] ** est["rungs"]


def _sample_depth(cfg, ifs):
    """(K, warnings): [sample] depth as given, or `default_depth` for 0,
    checked with [sample] n against the sampler's budgets before any work."""
    radius = cfg["ifs"]["region_radius"]
    K = cfg["sample"]["depth"]
    r_min = _ladder_r_min(cfg, ifs)
    warnings = []
    if K <= 0:
        K = default_depth(ifs, radius, r_min)
    elif truncation_tail(ifs, radius, K) >= r_min / 10.0:
        warning = (f"depth {K} leaves truncation error above a tenth "
                   f"of the finest ladder radius {r_min!r}")
        try:
            warning += ("; suggest depth >= "
                        f"{default_depth(ifs, radius, r_min)}")
        except ResourceLimitError:
            pass  # no depth reaches that radius: no suggestion
        warnings.append(warning)
    _check_cloud_size(cfg["sample"]["n"], K)
    return K, warnings


def _sample(cfg, ifs, model, K, warnings, out_dir, threads):
    """Sample at `_sample_depth`'s K and write the cloud; returns (payload,
    positions): the words, which estimation does not read, die here."""
    fld = DisplacementField(seed=cfg["run"]["seed"],
                            region_radius=cfg["ifs"]["region_radius"])
    n = cfg["sample"]["n"]
    cloud = sample_cloud(ifs, model, fld, n, K, threads=threads)
    with _out_file(out_dir, "cloud.txt") as cloud_path:
        digest = write_cloud(cloud_path, cloud)
    return {
        "n": n,
        "depth": K,
        "truncation_bound": cloud.truncation_bound,
        "cloud_path": str(cloud_path),
        "cloud_sha256": digest,
        "warnings": warnings,
    }, cloud.positions


def cmd_sample(cfg, out_dir, threads):
    ifs, model = build_system(cfg)
    K, warnings = _sample_depth(cfg, ifs)
    return _sample(cfg, ifs, model, K, warnings, out_dir, threads)[0]


def _estimate_payload(cfg, positions, out_dir, threads):
    est = cfg["estimate"]
    n, dim = positions.shape
    r0 = est["r0"] if est["r0"] > 0 else None
    forms = [est["form"]] if est["form"] != "both" \
        else ["mesh", "correlation"]
    # Every ladder in one pass: one tree and one count per rung for all q.
    ladders = build_ladders(
        positions, est["q"], forms, r0=r0, rho=est["rho"], rungs=est["rungs"],
        min_occupied=est["min_occupied"], min_per_cube=est["min_per_cube"],
        threads=threads,
    )
    estimates = []
    for q, row_ladders in zip(est["q"], ladders):
        per_form = {}
        for ladder in row_ladders:
            _write_csv(out_dir, f"ladder_{ladder.form}_q{_q_tag(q)}.csv",
                       ("r", "moment_sum", "occupied", "usable"),
                       zip(ladder.radii, ladder.sums, ladder.occupied,
                           map(int, ladder.usable)))
            res = estimate_dimension(ladder)
            per_form[ladder.form] = {
                "value": res.value,
                "stderr": res.stderr,
                "window": list(res.window),
                "clamped": res.clamped,
                "usable_rungs": ladder.usable_count(),
            }
        row = {"q": q, "forms": per_form}
        if len(per_form) == 2:
            a = per_form["mesh"]
            b = per_form["correlation"]
            gap = abs(a["value"] - b["value"])
            tol = 2.0 * (a["stderr"] + b["stderr"])
            row["forms_agree"] = bool(gap <= max(tol, 1e-12))
        estimates.append(row)
    _write_text(out_dir, "plot_ladder.py", _PLOT_SCRIPT)
    return {"dim": dim, "n": n, "estimates": estimates}


def _reused_positions(cfg):
    """The positions of the cloud [estimate] cloud names, of [ifs] dim; an
    explicit r0's finest radius is checked against the cloud's bounds."""
    path, dim = cfg["estimate"]["cloud"], cfg["ifs"]["dim"]
    if not path:
        raise ConfigError("[estimate] cloud: no cloud file; set it or pass "
                          "--reuse-cloud")
    positions = read_cloud(path).positions
    if positions.shape[1] != dim:
        raise ConfigError(f"{path}: the cloud has dimension "
                          f"{positions.shape[1]}, but [ifs] dim = {dim}")
    if cfg["estimate"]["r0"] > 0:
        _check_finest(_ladder_r_min(cfg, None), _bounds(positions))
    return positions


def cmd_estimate(cfg, out_dir, threads):
    return _estimate_payload(cfg, _reused_positions(cfg), out_dir, threads)


def cmd_verify(cfg, out_dir, threads):
    ifs, model = build_system(cfg)
    sol = cfg["solve"]
    reused = cfg["estimate"]["cloud"]
    if reused:
        positions = _reused_positions(cfg)
        sample_payload = {"reused": reused, "n": len(positions)}
    else:
        K, warnings = _sample_depth(cfg, ifs)
    # One table for every q, let go before any cloud; its build checks k_max.
    theory = _Levels(ifs, model, sol["k_max"] or None).solve_many(
        cfg["estimate"]["q"], sol["tol"])
    if not reused:
        sample_payload, positions = _sample(cfg, ifs, model, K, warnings,
                                            out_dir, threads)
    est_payload = _estimate_payload(cfg, positions, out_dir, threads)
    rows = []
    for entry, res in zip(est_payload["estimates"], theory):
        q = entry["q"]
        target = min(res.value, float(ifs.dim))
        for form, got in entry["forms"].items():
            rows.append({
                "q": q,
                "form": form,
                "theoretical_d_q": res.value,
                "target": target,
                "empirical": got["value"],
                "stderr": got["stderr"],
                "discrepancy": got["value"] - target,
            })
    worst = max(abs(r["discrepancy"]) for r in rows) if rows else None
    return {
        "sample": sample_payload,
        "estimate": est_payload,
        "comparison": rows,
        "max_abs_discrepancy": worst,
    }


def cmd_multienergy(cfg, out_dir, threads):
    ifs, model = build_system(cfg)
    me = cfg["multienergy"]
    s, q, k_max = me["s"], me["q"], me["decay_k_max"]
    exact_args = {"s": s, "n": me["n"], "q": q, "depth": me["depth"]}
    mc_args = dict(exact_args, samples=me["samples"], inner=me["inner"],
                   unresolved=me["mode"])
    # Every input is checked before any work; the survey, which runs first,
    # checks its own depth against its word table.
    _check_mc(ifs, **mc_args)
    _check_exact(ifs, **exact_args)
    _check_decay(ifs, k_max)
    survey = prop71_survey(ifs, model, s, q, me["survey_depth"])
    est = mc_multienergy(ifs, model, seed=cfg["run"]["seed"], **mc_args)
    exact = exact_truncated_multienergy(ifs, model, **exact_args)
    decay = check_decay_criterion(ifs, model, s, q, k_max)
    _write_csv(
        out_dir, "multienergy.csv",
        (*exact_args, "estimate", "stderr", "failures", "exact_truncated"),
        [(*exact_args.values(), est.value, est.stderr, est.failures, exact)],
    )
    return {
        "estimate": {
            "value": est.value,
            "stderr": est.stderr,
            "sample_count": est.sample_count,
            "failures": est.failures,
            "attempts": est.attempts,
            "mode": mc_args["unresolved"],
        },
        "exact_truncated": exact,
        "decay": {
            "lambda_fit": decay.lambda_fit,
            "geometric": decay.geometric,
            "slope": decay.slope,
        },
        "prop71": {
            "classes": len(survey),
            "all_hold": bool(all(row.holds for row in survey)),
            "worst_margin": min(
                (row.rhs - row.lhs for row in survey), default=None
            ),
        },
    }


# ---------------------------------------------------------------------------
# Entry point.

# Command name -> (command, whether it takes --reuse-cloud, which sets
# [estimate] cloud).  A command takes (cfg, out_dir, threads), writes its
# files through _out_file and returns its payload.
_COMMANDS = {
    "solve": (cmd_solve, False),
    "sample": (cmd_sample, False),
    "estimate": (cmd_estimate, True),
    "verify": (cmd_verify, True),
    "multienergy": (cmd_multienergy, False),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="affdims",
        description="q-dimensions of measures on self-affine sets: "
                    "theoretical solvers and sampled verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, reads_cloud) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed (64-bit)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for sampling and ball queries")
        if reads_cloud:
            p.add_argument("--reuse-cloud", default=None,
                           help="existing cloud file")
    return parser


def run_command(args):
    if not 1 <= args.threads <= _MAX_THREADS:
        raise ConfigError(f"--threads: need 1 to {_MAX_THREADS}, "
                          f"got {args.threads}")
    cfg = resolve_config(args.config, seed=args.seed, out=args.out,
                         cloud=getattr(args, "reuse_cloud", None))
    out_dir = _out_dir(cfg)
    started = time.perf_counter()
    payload = _COMMANDS[args.command][0](cfg, out_dir, args.threads)
    record = {
        "command": args.command,
        "config_hash": config_hash(cfg),
        "seed": cfg["run"]["seed"],
        "timing_seconds": round(time.perf_counter() - started, 6),
        "version": __version__,
        "payload": payload,
    }
    _write_json(out_dir, "resolved_config.json", cfg)
    _write_json(out_dir, f"{args.command}_result.json", record)
    return record


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        record = run_command(args)
    except Exception as exc:  # noqa: BLE001 - mapped to exit codes below
        for classes, code in _EXIT_CODES:
            if isinstance(exc, classes):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise
    try:
        print(json.dumps(record, indent=2, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone, and every run file is already written; with
        # stdout on devnull, the flush at exit does not raise again.
        sys.stdout = open(os.devnull, "w")
    return 0


if __name__ == "__main__":
    sys.exit(main())
