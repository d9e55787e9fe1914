"""One benchmark process: set up affdims, then run `affdims.cli.main` repeatedly.

Run by run.py, never by hand:

    python3 perfbench/child.py SPEC.json SPAWNED_AT

SPEC.json names the result file, the checkout's `src/`, the config, the
warm-up argv, one argv per repetition, whether to trace every other
repetition, the calibration unit, and the `time.monotonic()` deadline
after which no repetition may end.  SPAWNED_AT is the parent's
`time.monotonic()` just before it started this process (CLOCK_MONOTONIC
is system-wide on Linux), so setup_s counts interpreter start,
`import affdims.cli`, `resolve_config` and `build_system`.

After set-up the process makes one untimed warm-up call at smoke size,
so lazy imports and first-call costs stay out of the timings, and runs
repetitions until the next would end after the deadline (at least one,
or two when tracing).  wall_s and cpu_s cover one `main(...)` call each.
The process measures the host's slowness with `calibrate.measure` after
set-up and before and after every repetition, so run.py can put each
time in reference seconds.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import ROOT, Tracer, layer_metrics

# A gap's calibration lasts this share of the previous repetition, and at
# least CAL_MIN_S.
CAL_SHARE = 0.2
CAL_MIN_S = 0.1


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _call(cli, argv, tracer=None):
    """Run main(argv) once; (exit code, parsed stdout record or None)."""
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured):
            if tracer:
                code = tracer.span(ROOT, cli.main, argv)
            else:
                code = cli.main(argv)
    except Exception:  # noqa: BLE001 - an unmapped error is exit code 1
        traceback.print_exc()
        code = 1
    record = json.loads(captured.getvalue()) if code == 0 else None
    return code, record


def run_reps(cli, calibrate, spec, out):
    reps = out["reps"] = []
    unit = spec["unit"]
    cals = out["cals"] = [calibrate.measure(unit, CAL_MIN_S)]
    deadline = spec["deadline"]
    longest = 0.0
    for index, argv in enumerate(spec["reps"]):
        minimum = 2 if spec["trace"] else 1
        cal_s = max(CAL_SHARE * longest, CAL_MIN_S)
        if index >= minimum and \
                time.monotonic() + longest + cal_s > deadline:
            break
        traced = spec["trace"] and index % 2 == 1
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        code, record = _call(cli, argv, tracer)
        wall_s = time.perf_counter() - t0
        cpu_s = _cpu_seconds() - cpu0
        if tracer:
            tracer.uninstall()
        rep = {"trace": traced, "argv": argv, "exit_code": code,
               "wall_s": wall_s, "cpu_s": cpu_s, "record": record}
        if tracer:
            rep["layers"] = layer_metrics(tracer.spans)
        reps.append(rep)
        if index == 0:
            # The process's peak through set-up, the small warm-up and one
            # full call; later calls can only raise it, by however much
            # the allocator's reuse of freed memory falls short.
            out["peak_rss_mb"] = _peak_rss_mb()
        longest = max(longest, wall_s)
        cals.append(calibrate.measure(unit,
                                      max(CAL_SHARE * wall_s, CAL_MIN_S)))


def main(argv):
    spec = json.loads(Path(argv[0]).read_text())
    spawned_at = float(argv[1])
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import affdims.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"affdims imported from {cli.__file__}, not {src}")
    cli.build_system(cli.resolve_config(spec["config"]))
    out = {"setup_s": time.monotonic() - spawned_at}

    # Imported after set-up: it loads scipy.spatial, which set-up need not.
    import calibrate

    out["setup_cal"] = calibrate.measure(spec["unit"], CAL_MIN_S)
    out["warmup_exit_code"], _ = _call(cli, spec["warmup"])
    if out["warmup_exit_code"] == 0:
        run_reps(cli, calibrate, spec, out)
    Path(spec["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
