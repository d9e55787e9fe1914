#!/usr/bin/env bash
# End-to-end command line walkthrough: solve, sample, estimate (and its
# rerun from the run's own resolved config), verify.
set -euo pipefail

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cfg="$workdir/run.ini"

cat > "$cfg" <<'EOF'
[run]
seed = 31337

[ifs]
dim = 2
map1 = 0.45 0 / 0 0.4
map2 = 0.4 0 / 0 0.35
map3 = 0.35 0 / 0 0.3

[measure]
type = bernoulli
probs = 0.4 0.35 0.25

[solve]
q = 2 3

[sample]
n = 200000
depth = 30

[estimate]
q = 2
min_occupied = 20
EOF

echo "== solve: theoretical dimensions =="
affdims solve --config "$cfg" --out "$workdir/out" | head -30

echo
echo "== sample: generate the point cloud =="
affdims sample --config "$cfg" --out "$workdir/out" --threads 4 \
    | grep -E '"(n|depth|cloud_sha256)"'

echo
echo "== estimate: empirical dimension from the saved cloud =="
affdims estimate --config "$cfg" --out "$workdir/estimate" \
    --reuse-cloud "$workdir/out/cloud.txt" \
    | grep -E '"(value|stderr|usable_rungs)"'

echo
echo "== estimate again, from its own resolved config alone =="
affdims estimate --config "$workdir/estimate/resolved_config.json" \
    --out "$workdir/rerun" > /dev/null
cmp "$workdir/estimate/ladder_mesh_q2.csv" "$workdir/rerun/ladder_mesh_q2.csv"
echo "rerun ladder identical: ladder_mesh_q2.csv"

echo
echo "== verify: theory vs estimate in one shot =="
affdims verify --config "$cfg" --out "$workdir/out" --threads 4 \
    --reuse-cloud "$workdir/out/cloud.txt" \
    | grep -E '"(q|theoretical_d_q|empirical|discrepancy|max_abs)"'

echo
echo "outputs left in the run directory:"
ls "$workdir/out"
