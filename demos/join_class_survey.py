#!/usr/bin/env python3
"""Survey the per-class product bound over all small join configurations.

A join class is the shape of the join set of a tuple of symbol rays
(which vertices the rays split at, up to relabeling subtrees). For each
class the truncated integral of the inverse kernel, summed by induction
on the class's tree shape, is compared against the product bound built
from level sums.

The bound is provable for single-vertex classes and holds with a wide
margin for flat configurations, but for nested chains of join vertices
it is not sharp: at moderate q the chain classes exceed it, and only
well above the spread does the slack in the level sums absorb them.
The survey reports both regimes honestly.
"""

import numpy as np

import affdims as ad

ifs = ad.AffineIFS(maps=(np.diag([0.5, 0.3]),
                         np.array([[0.4, 0.1], [0.0, 0.35]])))
model = ad.BernoulliModel(probs=(0.6, 0.4))


def show(s, q):
    rows = ad.prop71_survey(ifs, model, s=s, q=q, depth=4, max_spread=4)
    print(f"--- s = {s}, q = {q}: {len(rows)} classes ---")
    print("  spread  levels      lhs        rhs     rhs/lhs  holds")
    for r in rows:
        jc = r.join_class
        lv = ",".join(str(l) for l in jc.levels)
        print(f"    {jc.spread}    ({lv:8s})  {r.lhs:9.5f}  {r.rhs:9.5f}"
              f"  {r.rhs / r.lhs:7.3f}  {'yes' if r.holds else 'NO'}")
    held = sum(1 for r in rows if r.holds)
    print(f"  -> {held}/{len(rows)} hold\n")


# moderate q: nested chains of three join vertices exceed the bound
show(0.55, 4.0)

# q well above every spread: all classes hold
show(0.55, 20.0)

print("count of distinct configurations by level multiset (spread 4):")
for levels in [(0, 1, 1), (0, 1, 2), (1, 2, 3), (0, 2, 2)]:
    print(f"  levels {levels}: {ad.count_join_configurations(levels)} classes")
