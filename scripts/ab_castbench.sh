#!/usr/bin/env bash
# Interleaved A/B of the castbench benchmark: this checkout against a
# baseline checkout, one workload, every end-to-end metric at once.
#
#   scripts/ab_castbench.sh <baseline-checkout> <workload> <pairs> [seconds] [seed]
#
# Builds castbench in both trees through castbench/run.py (each tree's own
# .bench_build/), then runs the two binaries pair by pair, flipping which one
# goes first on every pair so slow drift of the host hits both sides alike.
# The metrics compared are the `end_to_end` entries of this checkout's
# BENCHMARK.json.  Prints one line per pair with each metric's ratio
# (this / baseline), then per metric both medians, the baseline's quartiles
# and IQR, the ratio of the medians, the number of pairs this checkout won
# (by the metric's `better` direction) and whether the median got worse by
# more than the metric's `bound`.  Last, the `failed` count of every run on
# both sides.  Defaults: 4 seconds per run, seed 1.
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

# The JSON result line of one run of the castbench binary in checkout $1.
run_once() {
  (cd "$1" && .bench_build/castbench/castbench --workload "$workload" \
     --seed "$seed" --seconds "$seconds" --trace 0) | tail -n 1
}

results=$(mktemp)
trap 'rm -f "$results"' EXIT
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then
    b=$(run_once "$base"); t=$(run_once "$here"); first=base
  else
    t=$(run_once "$here"); b=$(run_once "$base"); first=this
  fi
  printf '%s\t%s\t%s\n' "$first" "$b" "$t" >>"$results"
done

python3 - "$results" "$here/BENCHMARK.json" <<'PY'
import json, statistics, sys

rows = []
for line in open(sys.argv[1]):
    first, b, t = line.rstrip("\n").split("\t")
    rows.append((first, json.loads(b), json.loads(t)))
metrics = json.load(open(sys.argv[2]))["end_to_end"]
names = [m["name"] for m in metrics]

print(f"{'pair':5s} {'first':6s} " + " ".join(f"{n:>13s}" for n in names))
for i, (first, b, t) in enumerate(rows, 1):
    ratios = [t["metrics"][n] / b["metrics"][n] if b["metrics"][n] else
              float("nan") for n in names]
    print(f"{i:<5d} {first:6s} " + " ".join(f"{r:13.3f}" for r in ratios))
print("(ratio = this / baseline)")

def quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3

for m in metrics:
    n, higher, bound = m["name"], m["better"] == "higher", m["bound"]
    bs = [b["metrics"][n] for _, b, _ in rows]
    ts = [t["metrics"][n] for _, _, t in rows]
    mb, mt = statistics.median(bs), statistics.median(ts)
    q = quartiles(bs)
    wins = sum((t > b) if higher else (t < b) for b, t in zip(bs, ts))
    # Relative change in the "worse" direction, compared with the bound.
    worse = (mb - mt) / mb if higher else (mt - mb) / mb
    verdict = "WORSE" if worse > bound else "ok"
    print(f"{n} ({m['unit']}, {m['better']} is better, bound {bound:g}): "
          f"baseline median {mb:.6g}, quartiles {q[0]:.6g} .. {q[2]:.6g} "
          f"(IQR {q[2] - q[0]:.6g}); this median {mt:.6g}; "
          f"ratio of medians {mt / mb:.3f}; this better in "
          f"{wins}/{len(rows)} pairs; {verdict}")

fb = [b["failed"] for _, b, _ in rows]
ft = [t["failed"] for _, _, t in rows]
print(f"failed: baseline {sum(fb)} over {len(fb)} runs, "
      f"this {sum(ft)} over {len(ft)} runs")
PY
