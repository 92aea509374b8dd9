#!/usr/bin/env bash
# Trace-artifact integration check, registered with ctest as
# `trace_determinism`:
#   1. run scenarios/e4_ring_fairness.json through mobidist_sweep twice
#      with MOBIDIST_TRACE_DIR pointed at two fresh temp dirs,
#   2. validate every exported JSONL stream with the offline trace_check
#      tool (re-runs all obs checkers outside the producing process),
#   3. require the two same-seed runs to be byte-identical, artifact by
#      artifact (JSONL and Chrome trace alike).
set -euo pipefail

build_dir=${1:?usage: run_trace_check.sh <build-dir> <source-dir>}
source_dir=${2:?usage: run_trace_check.sh <build-dir> <source-dir>}
cli="$build_dir/tools/mobidist_sweep"
checker="$build_dir/tools/trace_check"
scenario="$source_dir/scenarios/e4_ring_fairness.json"
for bin in "$cli" "$checker"; do
  if [ ! -x "$bin" ]; then
    echo "run_trace_check: missing binary $bin (build first)" >&2
    exit 1
  fi
done

dir_a=$(mktemp -d)
dir_b=$(mktemp -d)
trap 'rm -rf "$dir_a" "$dir_b"' EXIT

for dir in "$dir_a" "$dir_b"; do
  MOBIDIST_TRACE_DIR="$dir" "$cli" --scenario "$scenario" --deterministic \
    --out "$dir/ARTIFACT.json" > /dev/null
done

count=0
for trace in "$dir_a"/TRACE_*.jsonl; do
  "$checker" "$trace" > /dev/null
  count=$((count + 1))
done
if [ "$count" -eq 0 ]; then
  echo "run_trace_check: the sweep produced no JSONL traces" >&2
  exit 1
fi

for artifact in "$dir_a"/TRACE_*; do
  cmp "$artifact" "$dir_b/$(basename "$artifact")"
done

echo "run_trace_check: $count JSONL streams validated; same-seed artifacts byte-identical"
