"""The benchmark's workloads: CLI configs at two sizes, and their output checks.

Each workload is one `affdims` CLI command on one of the systems of the
acceptance suite.  The "full" sizes are what the benchmark measures; the
"smoke" sizes run the same code paths in about a second, for the
benchmark's own tests.  Checks compare a run's result payload with values
recorded at the seed commit (`reference.json`, written by
`run.py --record-reference`); no check pins cloud bytes.
"""

import math
from dataclasses import dataclass, field

# The solver tolerance every workload runs at (the CLI default); theory
# values must match the reference to within 2 * TOL.
TOL = 1e-4

# Three diagonal maps, Bernoulli (.40, .35, .25): acceptance criterion 4.
ACCEPTANCE_4 = {
    "ifs": {"dim": 2, "map1": "0.45 0 / 0 0.40", "map2": "0.40 0 / 0 0.35",
            "map3": "0.35 0 / 0 0.30"},
    "measure": {"type": "bernoulli", "probs": "0.40 0.35 0.25"},
}
# One diagonal and one sheared map, Bernoulli (.6, .4): acceptance criterion 6.
ACCEPTANCE_6 = {
    "ifs": {"dim": 2, "map1": "0.5 0 / 0 0.3", "map2": "0.4 0.1 / 0 0.35"},
    "measure": {"type": "bernoulli", "probs": "0.6 0.4"},
}


def config_text(sections):
    """INI text for {section: {key: value}}."""
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    threads: int
    system: dict
    # profile ("full" or "smoke") -> config sections added to the system
    sizes: dict
    # profile -> thresholds handed to check
    limits: dict
    check: object = field(repr=False)
    # Draw a new cloud for every repetition (seeds derived from the run's
    # seed) where the cost depends on the cloud, so a run's median covers
    # several clouds instead of one.
    cloud_per_rep: bool = False
    # The calibration unit whose slowdowns track this workload's (see
    # calibrate.py).
    unit: str = "array"

    def config_text(self, profile):
        """INI config for this workload at the given size profile."""
        return config_text({**self.system, **self.sizes[profile]})

    def argv(self, config, out, seed):
        return [self.command, "--config", str(config), "--out", str(out),
                "--seed", str(seed), "--threads", str(self.threads)]


def _qkey(q):
    return f"{float(q):g}"


def _close(got, want, rel=1e-9):
    return math.isclose(got, want, rel_tol=rel, abs_tol=rel)


def check_verify(payload, ref, lim):
    errors = []
    rows = payload["comparison"]
    if len(rows) != lim["rows"]:
        errors.append(f"{len(rows)} comparison rows, expected {lim['rows']}")
    for row in rows:
        q = _qkey(row["q"])
        if abs(row["theoretical_d_q"] - ref["d_q"][q]) > 2 * TOL:
            errors.append(f"d_{q} = {row['theoretical_d_q']!r}, reference "
                          f"{ref['d_q'][q]!r}")
        if not abs(row["discrepancy"]) <= lim["max_discrepancy"]:
            errors.append(f"{row['form']} q={q} discrepancy "
                          f"{row['discrepancy']:.4f} beyond "
                          f"{lim['max_discrepancy']}")
    for est in payload["estimate"]["estimates"]:
        for form, got in est["forms"].items():
            if got["usable_rungs"] < lim["min_usable"]:
                errors.append(f"{form} q={_qkey(est['q'])}: "
                              f"{got['usable_rungs']} usable rungs")
        forms = est["forms"]
        if len(forms) == 2:
            gap = abs(forms["mesh"]["value"] - forms["correlation"]["value"])
            if not gap <= lim["max_form_gap"]:
                errors.append(f"mesh and correlation differ by {gap:.4f} "
                              f"at q={_qkey(est['q'])}")
    return errors


def check_solve(payload, ref, lim):
    errors = []
    for row in payload["dimensions"]:
        q = _qkey(row["q"])
        if abs(row["d_q"] - ref["d_q"][q]) > 2 * TOL:
            errors.append(f"d_{q} = {row['d_q']!r}, reference {ref['d_q'][q]!r}")
    scan = payload["scan"]
    if len(scan["q"]) != len(ref["scan"]):
        errors.append(f"{len(scan['q'])} scan points, reference has "
                      f"{len(ref['scan'])}")
    for q, value, (ref_q, ref_value) in zip(scan["q"], scan["d_q"],
                                             ref["scan"]):
        if abs(q - ref_q) > 1e-9 or abs(value - ref_value) > 2 * TOL:
            errors.append(f"scan d_q({q:g}) = {value!r}, reference "
                          f"{ref_value!r} at q={ref_q:g}")
    kinks = scan["kink_qs"]
    if len(kinks) != len(ref["kink_qs"]) or any(
            abs(a - b) > 1e-9 for a, b in zip(kinks, ref["kink_qs"])):
        errors.append(f"kinks at {kinks}, reference {ref['kink_qs']}")
    return errors


def check_multienergy(payload, ref, lim):
    errors = []
    est = payload["estimate"]
    z = abs(est["value"] - payload["exact_truncated"]) / est["stderr"]
    if not z < lim["max_z"]:
        errors.append(f"Monte Carlo {est['value']!r} is {z:.2f} stderr from "
                      f"exact {payload['exact_truncated']!r}")
    if not _close(payload["exact_truncated"], ref["exact_truncated"]):
        errors.append(f"exact_truncated {payload['exact_truncated']!r}, "
                      f"reference {ref['exact_truncated']!r}")
    prop = payload["prop71"]
    if prop["classes"] != ref["prop71_classes"]:
        errors.append(f"{prop['classes']} classes, reference "
                      f"{ref['prop71_classes']}")
    if not _close(prop["worst_margin"], ref["worst_margin"]):
        errors.append(f"worst_margin {prop['worst_margin']!r}, reference "
                      f"{ref['worst_margin']!r}")
    expect = lim["s"] < ref["d_q"]
    if payload["decay"]["geometric"] != expect:
        errors.append(f"decay flag {payload['decay']['geometric']}, expected "
                      f"{expect} (s={lim['s']}, d_q={ref['d_q']!r})")
    return errors


_MULTIENERGY = {"s": 0.55, "n": 3, "q": 4.0}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="verify-mesh",
        why="Sampler, cloud text round trip and mesh ladder at 200k points "
            "on two threads; the solver is a small share.",
        command="verify", threads=2, system=ACCEPTANCE_4,
        sizes={
            "full": {"solve": {"q": 2}, "sample": {"n": 200_000, "depth": 40},
                     "estimate": {"q": 2, "rungs": 12, "min_occupied": 20,
                                  "form": "mesh"}},
            "smoke": {"solve": {"q": 2}, "sample": {"n": 4000, "depth": 20},
                      "estimate": {"q": 2, "rungs": 8, "form": "mesh"}},
        },
        limits={
            "full": {"rows": 1, "max_discrepancy": 0.15, "min_usable": 8},
            "smoke": {"rows": 1, "max_discrepancy": 1.0, "min_usable": 3},
        },
        check=check_verify,
    ),
    Workload(
        name="verify-corr",
        why="Correlation ladder on one thread, about 90% of the run; sheared "
            "maps bypass diagonal-only paths and the sampler is a small share.",
        command="verify", threads=1, system=ACCEPTANCE_6,
        sizes={
            "full": {"solve": {"q": "2 3"}, "sample": {"n": 7_000},
                     "estimate": {"q": "2 3", "form": "both"}},
            "smoke": {"solve": {"q": "2 3"}, "sample": {"n": 1500},
                      "estimate": {"q": "2 3", "rungs": 8, "form": "both"}},
        },
        limits={
            # Measured, not acceptance 4's limits: on this system the
            # estimates sit low by 0.12 on average across seeds and reach
            # -0.21 at some seeds for any n, and the CLI's forms_agree
            # (2 x summed regression stderr) was false at 1 of 48 healthy
            # seeds while the forms differed by 0.08 (see README.md).
            "full": {"rows": 4, "max_discrepancy": 0.30, "min_usable": 8,
                     "max_form_gap": 0.15},
            "smoke": {"rows": 4, "max_discrepancy": 1.0, "min_usable": 3,
                      "max_form_gap": 1.0},
        },
        check=check_verify,
        # The correlation ladder's cost follows the cloud's shape, which
        # the seed's first displacements set: its interquartile range
        # across seeds is 38 % of the median.
        cloud_per_rep=True,
    ),
    Workload(
        name="solve-scan",
        why="Phase-transition scan over 11 q: many level evaluations of one "
            "table, no sampling or estimation.",
        command="solve", threads=1, system=ACCEPTANCE_4,
        sizes={
            "full": {"solve": {"q": "1.5 2 3", "scan": "true",
                               "q_grid_start": 1.5, "q_grid_stop": 4.0,
                               "q_grid_step": 0.25}},
            "smoke": {"solve": {"q": 2, "scan": "true", "k_max": 6,
                                "q_grid_start": 1.5, "q_grid_stop": 2.0,
                                "q_grid_step": 0.25}},
        },
        limits={"full": {}, "smoke": {}},
        check=check_solve,
    ),
    Workload(
        name="multienergy",
        why="Class survey, exact tree sum and Monte Carlo multienergy: the "
            "only workload that runs codespace and multienergy.",
        command="multienergy", threads=1, system=ACCEPTANCE_6,
        sizes={
            "full": {"multienergy": {**_MULTIENERGY, "samples": 320,
                                     "inner": 128, "depth": 6,
                                     "survey_depth": 4, "decay_k_max": 12}},
            "smoke": {"multienergy": {**_MULTIENERGY, "samples": 64,
                                      "inner": 8, "depth": 4,
                                      "survey_depth": 3, "decay_k_max": 6}},
        },
        # Every run draws new Monte Carlo samples, so the z limit is set for
        # a negligible false-alarm rate over many runs, not at 3.
        limits={"full": {"max_z": 5.0, "s": _MULTIENERGY["s"]},
                "smoke": {"max_z": 5.0, "s": _MULTIENERGY["s"]}},
        check=check_multienergy,
        unit="interpreted",
    ),
)}


def reference_entry(workload, payload):
    """The seed-independent values of one run that later runs must repeat."""
    if workload.command == "verify":
        return {"d_q": {_qkey(r["q"]): r["theoretical_d_q"]
                        for r in payload["comparison"]}}
    if workload.command == "solve":
        scan = payload["scan"]
        return {
            "d_q": {_qkey(r["q"]): r["d_q"] for r in payload["dimensions"]},
            "scan": [list(p) for p in zip(scan["q"], scan["d_q"])],
            "kink_qs": scan["kink_qs"],
        }
    return {
        "exact_truncated": payload["exact_truncated"],
        "prop71_classes": payload["prop71"]["classes"],
        "worst_margin": payload["prop71"]["worst_margin"],
    }

