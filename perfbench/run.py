"""affdims benchmark: whole CLI runs, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record-reference

Run from the repository root.  A run starts fresh processes (child.py)
that import `affdims` from this checkout's `src/`: WORKERS workers in
turn, each of which sets up, warms up and calls `affdims.cli.main` on
the workload's config until the next call would end after its share of
`--seconds`.
Outputs go to a temporary directory under `.perfbench-tmp/`; every
result payload is checked against `reference.json`.  With `--trace 0`
the last line of stdout carries the `end_to_end` metrics of
BENCHMARK.json, times in reference seconds (see `reference_seconds`);
with `--trace 1` untraced and traced repetitions alternate and it
carries the `per_layer` metrics.  `--save DIR` also writes the run, with
its environment record, as JSON for compare.py.  See README.md.
"""

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, config_text, reference_entry

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
REFERENCE = HERE / "reference.json"
STARTED = time.monotonic()
# Every run must end within 180 s; no child may run past this.
HARD_LIMIT_S = 170.0
# Worker processes per run, one after another: setup_s and peak_rss_mb
# are medians over them.
WORKERS = 3
# Repetitions handed to a worker; the deadline ends it long before.
MAX_REPS = 400


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


class Runner:
    """Runs one workload's processes under one temp dir and checks outputs."""

    def __init__(self, workload, profile, seed, tmp, reference):
        self.workload = workload
        self.profile = profile
        self.seed = seed
        self.tmp = tmp
        self.reference = reference
        self.config = tmp / f"{workload.name}.ini"
        self.config.write_text(workload.config_text(profile))
        self.warmup_config = tmp / f"{workload.name}-warmup.ini"
        self.warmup_config.write_text(workload.config_text("smoke"))
        self.count = 0

    def cli_seed(self, index):
        """The --seed of a run's index-th cloud: the run's seed, or one
        derived from it when the workload draws a cloud per repetition."""
        if not self.workload.cloud_per_rep:
            return self.seed
        digest = hashlib.blake2b(f"{self.seed}/{index}".encode(),
                                 digest_size=8).digest()
        return int.from_bytes(digest, "little") >> 1

    def spawn(self, warmup, reps, trace=False, deadline=0.0):
        """One worker process; returns its result and any errors."""
        self.count += 1
        tag = f"proc{self.count}"
        result = self.tmp / f"{tag}.json"
        spec = self.tmp / f"{tag}.spec.json"
        spec.write_text(json.dumps({
            "result": str(result), "src": str(SRC),
            "config": str(self.config), "warmup": warmup,
            "reps": [list(argv) for argv in reps], "trace": trace,
            "unit": self.workload.unit, "deadline": deadline}))
        timeout = HARD_LIMIT_S - (time.monotonic() - STARTED)
        with open(self.tmp / f"{tag}.err", "w+") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec),
                 repr(spawned)],
                cwd=self.tmp, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                proc.wait(timeout=max(timeout, 1.0))
            except subprocess.TimeoutExpired:
                pass
            finally:
                # Also on SIGTERM or ^C: leave no child running.
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            err.seek(0)
            stderr = err.read().strip()[-2000:]
        if proc.returncode != 0 or not result.exists():
            return {"reps": []}, [f"child exited {proc.returncode}: {stderr}"]
        out = json.loads(result.read_text())
        errors = []
        if out.get("warmup_exit_code", 0) != 0:
            errors.append(f"warm-up exited {out['warmup_exit_code']}: "
                          f"{stderr}")
        for rep in out.get("reps", []):
            rep["errors"] = self.check(rep, stderr)
        return out, errors

    def check(self, rep, stderr):
        record = rep.pop("record")
        if rep["exit_code"] != 0:
            return [f"affdims exited {rep['exit_code']}: {stderr}"]
        rep["payload"] = record["payload"]
        if self.reference is None:
            return []
        return self.workload.check(
            record["payload"], self.reference[self.profile][self.workload.name],
            self.workload.limits[self.profile])

    def argvs(self, count):
        out = self.tmp / "out"
        return [self.workload.argv(self.config, out, self.cli_seed(i))
                for i in range(count)]

    def run(self, deadline, trace, processes):
        """`processes` workers in turn, the k-th until its share of the
        time to `deadline` is spent.

        Returns the workers' set-up samples, peak RSS and repetitions with
        their calibration, and the workers' own failures.
        """
        run = {"setups": [], "peaks": [], "reps": [],
               "processes": processes, "failures": []}
        begun = time.monotonic()
        warmup = self.workload.argv(self.warmup_config, self.tmp / "warmup",
                                    self.seed)
        for k in range(processes):
            # Later workers go on with new clouds where those change.
            argvs = self.argvs(len(run["reps"]) + MAX_REPS)[len(run["reps"]):]
            if trace:
                # Each cloud once untraced, then once traced.
                argvs = [argv for argv in argvs[:MAX_REPS // 2]
                         for _ in range(2)]
            share = begun + (deadline - begun) * (k + 1) / processes
            out, errors = self.spawn(warmup, argvs, trace, share)
            run["failures"] += errors
            if "setup_s" in out:
                run["setups"].append((out["setup_s"], out["setup_cal"]))
            if "peak_rss_mb" in out:
                run["peaks"].append(out["peak_rss_mb"])
            cals = out.get("cals", [])
            for i, rep in enumerate(out["reps"]):
                # The calibration before and after the repetition.
                rep["slowness_wall"] = (cals[i][0] + cals[i + 1][0]) / 2
                rep["slowness_cpu"] = (cals[i][1] + cals[i + 1][1]) / 2
                argv = rep.pop("argv")
                rep["cli_seed"] = int(argv[argv.index("--seed") + 1])
                rep["ok"] = not rep["errors"]
                for message in rep["errors"]:
                    print(f"{self.workload.name}: {message}", file=sys.stderr)
                run["reps"].append(rep)
        for message in run["failures"]:
            print(f"{self.workload.name}: {message}", file=sys.stderr)
        return run


def median(values):
    return statistics.median(values) if values else 0.0


def reference_seconds(times, slowness):
    """Mean time in reference seconds: summed time over the summed host
    slowness next to each (see calibrate.measure)."""
    return sum(times) / sum(slowness) if times else 0.0


def counts(run):
    """Operations attempted and failed: each process's set-up and warm-up
    counts as one, and each repetition as one."""
    attempted = run["processes"] + len(run["reps"])
    failed = len(run["failures"]) + sum(not r["ok"] for r in run["reps"])
    return attempted, failed


def end_to_end(run):
    timed = [r for r in run["reps"] if not r["trace"]]
    attempted, failed = counts(run)
    return {
        "wall_s": reference_seconds([r["wall_s"] for r in timed],
                                    [r["slowness_wall"] for r in timed]),
        "cpu_s": reference_seconds([r["cpu_s"] for r in timed],
                                   [r["slowness_cpu"] for r in timed]),
        "setup_s": median([setup / cal[0]
                           for setup, cal in run["setups"]]),
        "peak_rss_mb": median(run["peaks"]),
        "success_rate": 1.0 - failed / attempted,
    }


def raw_medians(run):
    """The same run's medians in plain seconds, with the host slowness."""
    timed = [r for r in run["reps"] if not r["trace"]]
    return {
        "wall_s": median([r["wall_s"] for r in timed]),
        "cpu_s": median([r["cpu_s"] for r in timed]),
        "setup_s": median([setup for setup, _ in run["setups"]]),
        "slowness": median([r["slowness_wall"] for r in run["reps"]]),
    }


def per_layer(run):
    reps = run["reps"]
    untraced = [r for r in reps if not r["trace"]]
    traced = [r for r in reps if r["trace"] and "layers" in r]
    if not traced:
        return {}
    out = {key: median([r["layers"][key] for r in traced])
           for key in traced[0]["layers"]}
    out["trace.wall_s"] = median([r["wall_s"] for r in traced])
    # Both sides in reference seconds, so a change of host speed between
    # the traced and untraced calls does not read as overhead.
    out["trace.overhead_ratio"] = reference_seconds(
        [r["wall_s"] for r in traced], [r["slowness_wall"] for r in traced]) \
        / reference_seconds([r["wall_s"] for r in untraced],
                            [r["slowness_wall"] for r in untraced]) - 1.0 \
        if untraced else 0.0
    out["trace.accounted_ratio"] = median([
        (r["layers"]["trace.top_level_s"] + r["layers"]["cli.self_s"])
        / r["wall_s"] for r in traced])
    return out


def _read_first_line(path):
    try:
        return Path(path).read_text().splitlines()[0].strip()
    except (OSError, IndexError):
        return None


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    head = _read_first_line(REPO / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read_first_line(REPO / ".git" / ref)
    if sha:
        return sha
    try:
        for line in (REPO / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def last_level_cache_bytes():
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        level = _read_first_line(index / "level")
        size = _read_first_line(index / "size")
        if level and size and size[-1] in "KM":
            scale = 1024 if size[-1] == "K" else 1024 ** 2
            best = max(best, (int(level), int(size[:-1]) * scale))
    return best[1]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def cloud_array_bytes(reps):
    """Computed bytes of the in-memory cloud arrays (positions and words)."""
    for rep in reps:
        sample = rep.get("payload", {}).get("sample")
        if sample:
            dim = rep["payload"]["estimate"]["dim"]
            return sample["n"] * dim * 8 + sample["n"] * sample["depth"]
    return None


def environment(workload, profile, seed, run):
    def version(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "llc_bytes": last_level_cache_bytes(),
        "cloud_array_bytes": cloud_array_bytes(run["reps"]),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": git_sha(),
        "seed": seed,
        "workload": workload.name,
        "command": workload.command,
        "threads": workload.threads,
        "sizes": workload.sizes[profile],
        "repetitions": len(run["reps"]),
        "setups": len(run["setups"]),
        "raw_medians": raw_medians(run),
    }


def report(spec, values):
    """{name: {value, unit}} for every metric of a BENCHMARK.json list."""
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        fail(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def print_table(title, metrics):
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")


def make_tmp():
    base = REPO / ".perfbench-tmp"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))


def remove_tmp(tmp):
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        tmp.parent.rmdir()
    except OSError:
        pass


def run_one(bench, reference, args):
    workload = WORKLOADS[args.workload]
    tmp = make_tmp()
    try:
        runner = Runner(workload, "full", args.seed, tmp, reference)
        run = runner.run(STARTED + args.seconds, bool(args.trace), WORKERS)
    finally:
        remove_tmp(tmp)
    if args.trace:
        metrics = report(bench["per_layer"], per_layer(run))
    else:
        metrics = report(bench["end_to_end"], end_to_end(run))
    env = environment(workload, "full", args.seed, run)
    print("environment " + json.dumps(env, sort_keys=True))
    print_table(f"{workload.name} seed {args.seed} "
                f"({len(run['reps'])} repetitions, trace {args.trace})",
                metrics)
    attempted, failed = counts(run)
    if args.save:
        save = Path(args.save)
        save.mkdir(parents=True, exist_ok=True)
        name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
        for rep in run["reps"]:
            rep.pop("payload", None)
        (save / name).write_text(json.dumps({
            "workload": workload.name, "seed": args.seed,
            "trace": args.trace, "seconds": args.seconds, "env": env,
            "metrics": metrics, **run}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_smoke(bench, reference):
    """Every workload at tiny sizes: one untraced and one traced repetition."""
    bad = 0
    tmp = make_tmp()
    try:
        for workload in WORKLOADS.values():
            runner = Runner(workload, "smoke", 1, tmp, reference)
            run = runner.run(0.0, trace=True, processes=1)
            bad += counts(run)[1]
            print_table(f"{workload.name} (smoke)", {
                **report(bench["end_to_end"], end_to_end(run)),
                **report(bench["per_layer"], per_layer(run))})
    finally:
        remove_tmp(tmp)
    print(json.dumps({"smoke_failures": bad}))
    return 1 if bad else 0


def record_reference():
    """Write reference.json from one unchecked run of each workload and size."""
    profiles = {}
    tmp = make_tmp()
    try:
        for profile in ("full", "smoke"):
            entries = profiles[profile] = {}
            for workload in WORKLOADS.values():
                runner = Runner(workload, profile, 1, tmp, None)

                def payload(argv):
                    out, errors = runner.spawn(argv, [argv])
                    errors += out["reps"][0]["errors"] if out["reps"] else []
                    if errors or not out["reps"]:
                        fail(f"{workload.name} ({profile}): {errors}")
                    return out["reps"][0]["payload"]

                entries[workload.name] = reference_entry(
                    workload, payload(runner.argvs(1)[0]))
                if workload.command == "multienergy":
                    # d_q at the multienergy q, for the decay-flag check.
                    config = tmp / "decay.ini"
                    q = workload.sizes[profile]["multienergy"]["q"]
                    config.write_text(config_text(
                        {**workload.system, "solve": {"q": q}}))
                    solved = payload(["solve", "--config", str(config),
                                      "--out", str(tmp / "decay")])
                    entries[workload.name]["d_q"] = \
                        solved["dimensions"][0]["d_q"]
    finally:
        remove_tmp(tmp)
    REFERENCE.write_text(json.dumps(
        {"git_sha": git_sha(), "profiles": profiles}, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None,
                        help="directory to write this run's record to")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload once at tiny sizes")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from this checkout")
    args = parser.parse_args(argv)
    # Unwind through the finally blocks that stop children and remove tmp.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "affdims" / "cli.py").is_file():
        fail(f"no affdims sources under {SRC}")
    if not 0 <= args.seed < 2 ** 64:
        fail("--seed must fit in 64 bits")
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    # Compile once, untimed, as an installed copy would have been.
    compileall.compile_dir(SRC / "affdims", quiet=1)
    if args.record_reference:
        return record_reference()
    reference = json.loads(REFERENCE.read_text())["profiles"]
    if args.smoke:
        return run_smoke(bench, reference)
    if args.workload is None:
        parser.error("--workload is required")
    return run_one(bench, reference, args)


if __name__ == "__main__":
    sys.exit(main())
