"""In-memory spans around the public functions at each affdims module boundary.

The library's modules import each other's functions by name
(`from .linalg import log_phi_stack`), so wrapping a function means
rebinding every module-level name that refers to it: the defining module
(for its own internal callers) and each module that imported it.  The
tracer never edits the library's files; it patches the loaded modules of
one benchmark process and nothing else.

A span records the function, the thread it ran on, its parent span, and
its start and end on `time.perf_counter`.  A span opened on a thread that
has no open span of its own (a sampler worker) takes as parent the span
open on the thread that installed the tracer, so the thread pool's work
is charged to the call that started it.
"""

import functools
import itertools
import os
import sys
import threading
import time

# (module, function) pairs traced at each layer boundary.
TARGETS = (
    ("cli", "resolve_config"),
    ("dimsolver", "d_q_minus"),
    ("dimsolver", "phase_transition_scan"),
    ("dimsolver", "affinity_dimension"),
    ("linalg", "log_phi_stack"),
    ("linalg", "singular_values_stack"),
    ("measures", "cylinder_mass"),
    ("measures", "sample_words"),
    ("codespace", "join_set"),
    ("codespace", "canonical_join_class"),
    ("counterrng", "indexed_uniforms"),
    ("counterrng", "advance"),
    ("counterrng", "unit_uniforms"),
    ("sampler", "sample_cloud"),
    # The function the sampler's thread pool runs: the only boundary the
    # sampler has on its worker threads, so worker time gets a sampler span.
    ("sampler", "_cloud_chunk"),
    ("sampler", "write_cloud"),
    ("sampler", "read_cloud"),
    ("estimator", "build_ladder"),
    ("estimator", "occupied_cubes"),
    ("estimator", "mesh_moment_sum"),
    ("estimator", "correlation_integral"),
    ("estimator", "estimate_dimension"),
    ("multienergy", "mc_multienergy"),
    ("multienergy", "exact_truncated_multienergy"),
    ("multienergy", "prop71_survey"),
    ("multienergy", "check_decay_criterion"),
)

ROOT = "cli.main"

# Span record fields.
_NAME, _TID, _PARENT, _START, _END, _EXTRA, _ID = range(7)


def _points(args, kwargs, result):
    return {"points": len(result)}


def _file_mb(args, kwargs, result):
    return {"mb": os.path.getsize(args[0]) / 1e6}


def _ladder(args, kwargs, result):
    return {"usable": result.usable}


def _mc(args, kwargs, result):
    inner = kwargs.get("inner", args[8] if len(args) > 8 else 64)
    return {"tuples": result.sample_count * inner,
            "failures": result.failures}


def _classes(args, kwargs, result):
    return {"classes": len(result)}


# Counts read off a call's arguments and result, for the few functions
# whose work is not just "one call".
_EXTRAS = {
    "sampler.sample_cloud": _points,
    "sampler.write_cloud": _file_mb,
    "estimator.build_ladder": _ladder,
    "multienergy.mc_multienergy": _mc,
    "multienergy.prop71_survey": _classes,
}

# Totals accumulated from span extras and ladder rungs.
_TOTALS = (
    "sampler.points", "sampler.write_cloud.mb", "estimator.rungs",
    "estimator.rungs_usable", "estimator.unusable_rung_s",
    "multienergy.mc_tuples", "multienergy.mc_failures",
    "multienergy.prop71_classes",
)


class Tracer:
    """Collects spans in memory while installed; `uninstall` restores names."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_tid = threading.get_ident()
        self._root_stack = self._stack()
        self._patched = []

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _open(self, name):
        stack = self._stack()
        tid = threading.get_ident()
        if stack:
            parent = stack[-1]
        elif tid != self._root_tid and self._root_stack:
            parent = self._root_stack[-1]
        else:
            parent = None
        rec = [name, tid, parent, time.perf_counter(), None, None,
               next(self._ids)]
        self.spans.append(rec)
        stack.append(rec[_ID])
        return rec, stack

    def span(self, name, fn, *args, **kwargs):
        """Call fn under a span called name and return its result."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name, fn):
        extra = _EXTRAS.get(name)
        opener = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec, stack = opener(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = time.perf_counter()
                stack.pop()
            if extra is not None:
                rec[_EXTRA] = extra(args, kwargs, result)
            return result

        return traced

    def install(self, package="affdims"):
        """Rebind every module-level name that refers to a traced function."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and
                   (key == package or key.startswith(package + "."))]
        for mod_name, fn_name in TARGETS:
            home = sys.modules[f"{package}.{mod_name}"]
            original = getattr(home, fn_name)
            traced = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans):
    """Per-function calls and busy time, per-module self time, and counts.

    Self time of a span is its duration minus the part of it that its
    children cover; children on other threads overlap each other, so the
    covered part is the union of their intervals, never their sum.
    """
    children = {}
    for rec in spans:
        children.setdefault(rec[_PARENT], []).append(rec)

    # Every metric exists on every workload; a layer that did not run reads 0.
    out = dict.fromkeys(_TOTALS, 0)
    for name in (ROOT, *(f"{m}.{f}" for m, f in TARGETS)):
        out[f"{name}.calls"] = 0
        out[f"{name}.busy_s"] = 0.0
        out[name.split(".")[0] + ".self_s"] = 0.0

    def add(key, value):
        out[key] += value

    for rec in spans:
        name = rec[_NAME]
        module = name.split(".")[0]
        dur = rec[_END] - rec[_START]
        kids = children.get(rec[_ID], ())
        add(f"{name}.calls", 1)
        add(f"{name}.busy_s", dur)
        add(f"{module}.self_s", dur - _covered(
            [(k[_START], k[_END]) for k in kids]))
        extra = rec[_EXTRA]
        if extra is None:  # no extras, or the call raised
            continue
        if name == "sampler.sample_cloud":
            add("sampler.points", extra["points"])
        elif name == "sampler.write_cloud":
            add("sampler.write_cloud.mb", extra["mb"])
        elif name == "estimator.build_ladder":
            usable = extra["usable"]
            add("estimator.rungs", len(usable))
            add("estimator.rungs_usable", sum(usable))
            # Each rung starts with its occupied_cubes call.
            rung = -1
            for kid in sorted(kids, key=lambda k: k[_START]):
                if kid[_NAME] == "estimator.occupied_cubes":
                    rung += 1
                if 0 <= rung < len(usable) and not usable[rung]:
                    add("estimator.unusable_rung_s", kid[_END] - kid[_START])
        elif name == "multienergy.mc_multienergy":
            add("multienergy.mc_tuples", extra["tuples"])
            add("multienergy.mc_failures", extra["failures"])
        elif name == "multienergy.prop71_survey":
            add("multienergy.prop71_classes", extra["classes"])
    rungs = out["estimator.rungs"]
    tuples = out["multienergy.mc_tuples"]
    out["estimator.rung_useful_ratio"] = (
        out["estimator.rungs_usable"] / rungs if rungs else 0.0)
    out["multienergy.mc_failure_ratio"] = (
        out["multienergy.mc_failures"] / tuples if tuples else 0.0)
    # Time in the root's direct children outside cli; with cli.self_s it
    # should add up to the root span.
    out["trace.top_level_s"] = sum(
        k[_END] - k[_START] for r in spans if r[_NAME] == ROOT
        for k in children.get(r[_ID], ()) if not k[_NAME].startswith("cli."))
    return out
