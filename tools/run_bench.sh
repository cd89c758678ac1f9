#!/usr/bin/env bash
# Bench sweep with machine-readable output and baseline regression diff.
#
# Runs bench_fig6_threads (thread scaling, both check modes),
# bench_table6 (cross-algorithm table), and bench_kernels (check kernels
# per code width + the full-LATTICE headline run), recording
# every measurement as JSON — one BENCH_<name>.json per bench binary,
# written by the shared reporter in bench/bench_util.h. See
# docs/performance.md for the format and how to compare two sweeps.
#
# After the sweep, every fresh BENCH_*.json is diffed against the
# committed baseline of the same name in the repo root (when one exists):
# matching entries (same dataset/label/threads/mode) that got more than
# 10% slower are flagged with a WARN line. The diff never fails the run —
# timings on a shared box are advisory — but the warnings make eyeballing
# a regression a one-line affair.
#
#   tools/run_bench.sh [out_dir]          # default out_dir: bench-out
#
# Overridable via environment:
#   OCDD_BENCH_THREADS=1,2,4,8            thread counts to sweep
#   OCDD_BENCH_DATASETS=LETTER,LATTICE    registry datasets to run
#   OCDD_BENCH_BUDGET=<seconds>           per-run time limit
#   OCDD_BENCH_SKIP=table6,kernels        comma list of benches to skip
#   OCDD_SCALE=full                       paper-scale rows
set -euo pipefail

cd "$(dirname "$0")/.."

OUT="${1:-bench-out}"
THREADS="${OCDD_BENCH_THREADS:-1,2,4,8}"
DATASETS="${OCDD_BENCH_DATASETS:-LETTER,LINEITEM,DBTESMA,LATTICE}"
SKIP=",${OCDD_BENCH_SKIP:-},"

skipped() { [[ "${SKIP}" == *",$1,"* ]]; }

echo "==> building bench binaries"
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)" \
  --target bench_fig6_threads bench_table6 bench_kernels

mkdir -p "${OUT}"

if ! skipped fig6_threads; then
  echo "==> thread sweep: threads=${THREADS} datasets=${DATASETS}"
  OCDD_BENCH_JSON_DIR="${OUT}" \
  OCDD_BENCH_THREADS="${THREADS}" \
  OCDD_BENCH_DATASETS="${DATASETS}" \
    ./build/bench/bench_fig6_threads | tee "${OUT}/fig6_threads.log"
fi

if ! skipped table6; then
  echo "==> cross-algorithm table (table6)"
  OCDD_BENCH_JSON_DIR="${OUT}" \
    ./build/bench/bench_table6 | tee "${OUT}/table6.log"
fi

if ! skipped kernels; then
  echo "==> check-kernel micro-bench (kernels)"
  OCDD_BENCH_JSON_DIR="${OUT}" \
    ./build/bench/bench_kernels | tee "${OUT}/kernels.log"
fi

echo "==> reports:"
ls -l "${OUT}"/BENCH_*.json

# Diff each fresh report against the committed baseline of the same name.
echo "==> regression check vs committed baselines (>10% slower => WARN)"
for fresh in "${OUT}"/BENCH_*.json; do
  base="$(basename "${fresh}")"
  [[ -f "${base}" ]] || { echo "  ${base}: no committed baseline"; continue; }
  python3 - "$base" "$fresh" <<'EOF'
import json, sys

base_path, fresh_path = sys.argv[1], sys.argv[2]
def key(e):
    return (e.get("dataset"), e.get("label", ""), e.get("threads"),
            e.get("use_sorted_partitions"))
base = {key(e): e for e in json.load(open(base_path))["entries"]}
warned = matched = 0
for e in json.load(open(fresh_path))["entries"]:
    b = base.get(key(e))
    if b is None or not e.get("completed") or not b.get("completed"):
        continue
    matched += 1
    old, new = b["seconds"], e["seconds"]
    if old > 0 and new > old * 1.10:
        warned += 1
        print(f"  WARN {base_path} {key(e)}: {old:.3f}s -> {new:.3f}s "
              f"(+{100.0 * (new - old) / old:.0f}%)")
print(f"  {base_path}: {matched} comparable entries, {warned} regression "
      f"warning(s)")
EOF
done
