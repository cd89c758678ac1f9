#!/usr/bin/env bash
# Builds the project under AddressSanitizer+UBSan and ThreadSanitizer and
# runs the full test suite under each (see docs/robustness.md).
#
#   tools/run_sanitizers.sh [asan|tsan]     # default: both
#
# Each sanitizer gets its own build tree (build-asan/, build-tsan/) so the
# regular build/ stays untouched. Exits non-zero on the first failure.
set -euo pipefail

cd "$(dirname "$0")/.."

run_one() {
  local preset="$1"
  local dir="build-${preset}"
  echo "==> ${preset}: configuring ${dir}"
  cmake -B "${dir}" -S . -DOCDD_SANITIZE="${preset}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  echo "==> ${preset}: building"
  cmake --build "${dir}" -j "$(nproc)"
  echo "==> ${preset}: running tests"
  ctest --test-dir "${dir}" --output-on-failure -j "$(nproc)"
  # The serve fault matrix (worker kills, torn frames, drain, shedding) and
  # the incremental CLI matrix (SIGKILL mid-apply-batch, torn warm state —
  # docs/incremental.md) are the most process/concurrency-heavy surfaces in
  # the tree; repeat them so the sanitizer sees several interleavings, not
  # one lucky schedule.
  echo "==> ${preset}: serve + incremental fault matrices (repeated)"
  ctest --test-dir "${dir}" --output-on-failure -R "serve|incremental_cli" \
        --repeat until-fail:3
  # The network chaos matrix is the single most interleaving-sensitive test
  # in the tree: proxy threads, per-connection daemon reader threads,
  # executor threads, and a retrying client all racing injected resets and
  # timeouts. TSan coverage here matters more than anywhere else — repeat
  # it harder than the rest.
  echo "==> ${preset}: network chaos matrix (repeated)"
  ctest --test-dir "${dir}" --output-on-failure -R "serve_chaos" \
        --repeat until-fail:5
  # Serve-degraded pass: the disk-health state machine races the maintenance
  # thread (periodic persist + probe) against executors and the accept-loop
  # backoff, with io_env faults firing under every thread. The storage fault
  # layer (io_env arming, op-log replay, fsck repair) runs here too — its
  # fault bookkeeping is mutex-guarded global state that TSan must see
  # hammered from several schedules.
  echo "==> ${preset}: serve-degraded + storage fault layer (repeated)"
  ctest --test-dir "${dir}" --output-on-failure \
        -R "serve_disk|io_env|io_fault_sweep|crash_consistency|fsck" \
        --repeat until-fail:3
  # Ingest pass: CSV fields are string views into the input text and into
  # the scanner's arena of unescaped fields, and the encoder's dedupe index
  # holds views into the columns. ASan must see every one of those
  # lifetimes exercised on clean, dirty and fuzz-corpus input.
  echo "==> ${preset}: CSV ingest + encode (repeated)"
  ctest --test-dir "${dir}" --output-on-failure \
        -R "csv|coded_relation|fuzz_lite|ingest_cli|null_semantics" \
        --repeat until-fail:3
  # JSON + serve pass: the parser builds every container in place through
  # references into its parent's vector, the client moves the report out of
  # the parsed response, and a cache hit splices stored bytes into the
  # frame. ASan must see those lifetimes on reports, frames and fuzz input.
  echo "==> ${preset}: JSON reader + serve frames (repeated)"
  ctest --test-dir "${dir}" --output-on-failure \
        -R "json_reader|serve_protocol|serve_test|fuzz_lite" \
        --repeat until-fail:3
  # Partition-cache pass: cached rank vectors are shared between lists,
  # evicted and freed mid-run, and single-column partitions are views into
  # the encoded columns; refinement workers probe the interned set while a
  # layer computes. ASan must see those lifetimes, TSan those probes.
  echo "==> ${preset}: partition cache + discovery drivers (repeated)"
  ctest --test-dir "${dir}" --output-on-failure \
        -R "list_partition|ocd_discover|perf_smoke|incremental|qa_smoke" \
        --repeat until-fail:3
}

presets=("${@:-asan tsan}")
# Re-split in case the default "asan tsan" arrived as one word.
for preset in ${presets[@]}; do
  case "${preset}" in
    asan|tsan) run_one "${preset}" ;;
    *) echo "unknown sanitizer preset: ${preset} (use asan or tsan)" >&2
       exit 2 ;;
  esac
done
echo "==> all sanitizer runs passed"
