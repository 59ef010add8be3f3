#!/usr/bin/env bash
# Interleaved A/B of the castbench benchmark: this checkout against a
# baseline checkout, one workload.
#
#   scripts/ab_castbench.sh <baseline-checkout> <workload> <pairs> [seconds] [seed]
#
# Builds castbench in both trees through castbench/run.py (each tree's own
# .bench_build/), then runs the two binaries pair by pair, flipping which one
# goes first on every pair so slow drift of the host hits both sides alike.
# Prints one line per pair with both clk_per_s values and their ratio
# (this / baseline), then each side's median and quartiles, the ratio of
# the medians and the number of pairs this checkout won.  Defaults: 4
# seconds per run, seed 1.
set -euo pipefail

if [[ $# -lt 3 ]]; then
  echo "usage: $0 <baseline-checkout> <workload> <pairs> [seconds] [seed]" >&2
  exit 2
fi
base=$(cd "$1" && pwd)
workload=$2
pairs=$3
seconds=${4:-4}
seed=${5:-1}
here=$(cd "$(dirname "$0")/.." && pwd)

for tree in "$base" "$here"; do
  # A short run builds the tree's benchmark and checks that it passes.
  (cd "$tree" && python3 castbench/run.py --workload "$workload" \
     --seed "$seed" --seconds 0 --trace 0 >/dev/null)
done

# clk_per_s of one run of the castbench binary in checkout $1.
clk_per_s() {
  (cd "$1" && .bench_build/castbench/castbench --workload "$workload" \
     --seed "$seed" --seconds "$seconds" --trace 0) |
    tail -n 1 |
    python3 -c 'import json, sys; print(json.load(sys.stdin)["metrics"]["clk_per_s"])'
}

results=$(mktemp)
trap 'rm -f "$results"' EXIT
printf '%-5s %-6s %14s %14s %8s\n' pair first baseline this ratio
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then
    b=$(clk_per_s "$base"); t=$(clk_per_s "$here"); first=base
  else
    t=$(clk_per_s "$here"); b=$(clk_per_s "$base"); first=this
  fi
  echo "$b $t" >>"$results"
  awk -v i="$i" -v f="$first" -v b="$b" -v t="$t" \
    'BEGIN { printf "%-5d %-6s %14.0f %14.0f %8.3f\n", i, f, b, t, t / b }'
done

python3 - "$results" <<'PY'
import statistics, sys
rows = [tuple(map(float, line.split())) for line in open(sys.argv[1])]
medians = []
for name, runs in (("baseline", [b for b, _ in rows]),
                   ("this", [t for _, t in rows])):
    q = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
    medians.append(statistics.median(runs))
    print(f"{name:8s} median {medians[-1]:.0f}, quartiles "
          f"{q[0]:.0f} .. {q[2]:.0f} (IQR {q[2] - q[0]:.0f})")
wins = sum(t > b for b, t in rows)
print(f"ratio of medians {medians[1] / medians[0]:.3f}; "
      f"this faster in {wins}/{len(rows)} pairs")
PY
