"""Compare two sets of benchmark runs, such as a parent commit and a change.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the records `run.py --save DIR` wrote (untraced runs,
one per workload and seed).  For every workload and end-to-end metric it
prints each side's median and quartiles, how many seed-matched pairs the
change won (ties count for neither side), and a verdict by the rule in
README.md: improved, no worse, unresolved, or worse.  Bounds and the
better direction come from BENCHMARK.json.
"""

import json
import statistics
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory):
    """{workload: {seed: metrics}} from the untraced run records in a dir."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], {})[record["seed"]] = \
                record["metrics"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def beats(a, b, better):
    """Whether value a is strictly better than value b."""
    return (b - a if better == "lower" else a - b) > 0


def verdict(base, change, better, bound, pairs):
    """improved / no worse / unresolved / worse for one workload and metric."""
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    _, c_med, _ = quartiles(change)
    wins = sum(beats(c, b, better) for b, c in pairs)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and beats(c_med, b_med, better)
            and abs(c_med - b_med) > b_q3 - b_q1):
        return "improved"
    if all(beats(c, b, better) for c in change for b in base):
        return "no worse"
    if b_med and (b_q3 - b_q1) / abs(b_med) > bound:
        return "unresolved"
    worse_by = sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    return "no worse" if worse_by <= bound else "worse"


def compare(base_runs, change_runs, spec):
    rows = []
    for workload in sorted(set(base_runs) & set(change_runs)):
        base, change = base_runs[workload], change_runs[workload]
        seeds = sorted(set(base) & set(change))
        for metric in spec:
            name = metric["name"]
            b = [m[name]["value"] for m in base.values()]
            c = [m[name]["value"] for m in change.values()]
            pairs = [(base[s][name]["value"], change[s][name]["value"])
                     for s in seeds]
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "base": quartiles(b), "change": quartiles(c),
                "pairs": len(pairs),
                "won": sum(beats(pc, pb, metric["better"])
                           for pb, pc in pairs),
                "verdict": verdict(b, c, metric["better"], metric["bound"],
                                   pairs),
            })
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    rows = compare(load(argv[0]), load(argv[1]), spec)
    if not rows:
        print("no workload has untraced runs on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':<12} {'metric':<13} {'base median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'won':>7}  verdict")
    for r in rows:
        cells = []
        for q1, med, q3 in (r["base"], r["change"]):
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {r['unit']}")
        print(f"{r['workload']:<12} {r['metric']:<13} {cells[0]:<32} "
              f"{cells[1]:<32} {r['won']:>3}/{r['pairs']:<3}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
