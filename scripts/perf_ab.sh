#!/usr/bin/env bash
# A/B run of the end-to-end benchmark: the working tree against a base ref,
# on the same host, alternating sides so host drift hits both alike.
#
#   scripts/perf_ab.sh <base-ref> <workload> [pairs]
#
#   <base-ref>   any local commit-ish (HEAD~1, main, a sha)
#   <workload>   grid-short | detailed-long | sampled-long
#   [pairs]      number of (base, working) run pairs, default 3
#
# The base ref is exported with `git archive` into .perf_ab/<sha>/, a
# plain local checkout that needs no network and leaves no bookkeeping in
# .git; it is reused by later runs against the same commit. Each side
# builds perfbench/ into its own build directory. Pair i runs
# `python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0`
# (the benchmark's fixed run length) in both trees, the base first in odd
# pairs and the working tree first in even ones. The script then prints,
# per end-to-end metric, each side's median and quartiles, the
# working/base ratio of the medians and how many pairs the working tree
# won.
#
# Afterwards both pass runners simulate the same seed blocks in
# reference mode (`--mode reference --block 0 --blocks 3`); the store
# digests must be equal, since a speed-up may not change any result.
#
# Exit status: 0 on success; 1 when the digests differ or a run fails;
# 2 on bad arguments; 3 on a measured slowdown: the working tree lost at
# least nine tenths of the pairs on minstr_per_s, and its median lies
# below the base's by more than the distance between the base's
# quartiles (the pair noise of this host, measured by this run).
#
# Environment: PERF_AB_SEED (default 1), PERF_AB_DIR (default .perf_ab),
# CARGO_TARGET_DIR (the working tree's build directory, default
# .bench_build).
set -euo pipefail

cd "$(dirname "$0")/.."
root=$(pwd)

usage() {
  sed -n '5,9p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

[[ $# -ge 2 && $# -le 3 ]] || usage
base_ref=$1
workload=$2
pairs=${3:-3}
case $workload in
  grid-short|detailed-long|sampled-long) ;;
  *) echo "perf_ab: unknown workload '$workload'" >&2; usage ;;
esac
[[ $pairs =~ ^[1-9][0-9]*$ ]] || { echo "perf_ab: bad pair count" >&2; usage; }
seed=${PERF_AB_SEED:-1}

sha=$(git rev-parse --verify --quiet "${base_ref}^{commit}") || {
  echo "perf_ab: '$base_ref' is not a local commit" >&2
  exit 2
}
ab_dir=${PERF_AB_DIR:-.perf_ab}
[[ $ab_dir = /* ]] || ab_dir=$root/$ab_dir
base_tree=$ab_dir/$sha
if [[ ! -f $base_tree/perfbench/run.py ]]; then
  rm -rf "$base_tree"
  mkdir -p "$base_tree"
  git archive "$sha" | tar -x -C "$base_tree"
fi
base_build=$base_tree/.bench_build
work_build=${CARGO_TARGET_DIR:-$root/.bench_build}
[[ $work_build = /* ]] || work_build=$root/$work_build

results=$(mktemp)
ref_dir=$(mktemp -d)
trap 'rm -rf "$results" "$ref_dir"' EXIT

# One run.py invocation; appends "<side> <json>" to the results file.
run_side() {
  local side=$1 tree=$2 build=$3 out
  echo "perf_ab: $side run (${tree})" >&2
  if ! out=$(cd "$tree" && CARGO_TARGET_DIR=$build python3 perfbench/run.py \
      --workload "$workload" --seed "$seed" --seconds 20 \
      --trace 0); then
    echo "perf_ab: run.py failed on the $side side" >&2
    exit 1
  fi
  echo "$side $(tail -n 1 <<< "$out")" >> "$results"
}

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2 == 1)); then
    run_side base "$base_tree" "$base_build"
    run_side work "$root" "$work_build"
  else
    run_side work "$root" "$work_build"
    run_side base "$base_tree" "$base_build"
  fi
done

# Reference digests at fixed seed blocks, from each side's pass runner.
digest() {
  local build=$1 dir=$2
  "$build/perfbench/perfbench" --workload "$workload" --seed "$seed" \
    --mode reference --dir "$dir" --block 0 --blocks 3 \
    --jobs "$(nproc)" | tail -n 1 |
    python3 -c 'import json, sys; print(",".join(json.load(sys.stdin)["stores"]))'
}
base_digest=$(digest "$base_build" "$ref_dir/base")
work_digest=$(digest "$work_build" "$ref_dir/work")

python3 - "$results" "$base_digest" "$work_digest" <<'EOF'
import json
import statistics
import sys

path, base_digest, work_digest = sys.argv[1:4]
runs = {"base": [], "work": []}
with open(path) as f:
    for line in f:
        side, record = line.split(" ", 1)
        runs[side].append(json.loads(record))

BETTER = {"minstr_per_s": "higher", "setup_s": "lower", "peak_rss_mb": "lower"}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


status = 0
for side, records in runs.items():
    if not all(r["correct"] for r in records):
        print(f"perf_ab: a {side} run failed its correctness check")
        status = 1
print(f"{'metric':<14}{'base median [q1, q3]':>36}{'work median [q1, q3]':>36}"
      f"{'work/base':>11}{'work won':>10}")
stats = {}
for name, better in BETTER.items():
    b = [r["metrics"][name]["value"] for r in runs["base"]]
    w = [r["metrics"][name]["value"] for r in runs["work"]]
    bm, wm = statistics.median(b), statistics.median(w)
    won = sum((y > x) if better == "higher" else (y < x) for x, y in zip(b, w))
    lost = sum((y < x) if better == "higher" else (y > x) for x, y in zip(b, w))
    bq, wq = quartiles(b), quartiles(w)
    stats[name] = (bm, wm, bq[1] - bq[0], lost, len(b))
    print(f"{name:<14}{bm:>12.6g} [{bq[0]:.6g}, {bq[1]:.6g}]"
          f"{wm:>12.6g} [{wq[0]:.6g}, {wq[1]:.6g}]"
          f"{wm / bm if bm else float('nan'):>11.4f}{won:>7}/{len(b)}")
    print("  pairs (base -> work): " +
          ", ".join(f"{x:.6g}->{y:.6g}" for x, y in zip(b, w)))
if base_digest == work_digest:
    print("reference digests (blocks 0-2) equal")
else:
    print("perf_ab: reference store digests differ (blocks 0-2):")
    print(f"  base {base_digest}\n  work {work_digest}")
    status = 1
bm, wm, iqr, lost, n = stats["minstr_per_s"]
if status == 0 and 10 * lost >= 9 * n and bm - wm > iqr:
    print(f"perf_ab: slowdown: minstr_per_s {bm:.6g} -> {wm:.6g} "
          f"({100 * (1 - wm / bm):.1f}% lower, beyond the base's quartile "
          f"distance {iqr:.6g}; lost {lost}/{n} pairs)")
    status = 3
sys.exit(status)
EOF
