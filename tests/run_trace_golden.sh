#!/usr/bin/env bash
# Golden-trace gate, registered with ctest as `trace_golden`. Replays the
# small scale_smoke and mutex_smoke scenarios with tracing on and
# requires the same-seed event streams (and the deterministic sweep
# artifacts) to be byte-identical to the goldens committed under
# tests/goldens/ — the pinned contract that scheduler/network hot-path
# optimizations must not change simulated behavior by a single byte.
# Three more scenarios pin the substrate paths the smoke runs never take:
# ring_loss run 9 (wireless drop and retransmission), group_strategies
# run 48 (joins, handoffs, the send_to_mh forward leg) and wireless_dup
# (link-layer duplicates and formation packets).
#
# Regenerating goldens (only after an intentional behavior change):
#   MOBIDIST_TRACE_DIR=out/ build/tools/mobidist_sweep \
#     --scenario scenarios/scale_smoke.json --deterministic --out ...
# then copy the files named below into tests/goldens/.
set -euo pipefail

build_dir=${1:?usage: run_trace_golden.sh <build-dir> <source-dir>}
source_dir=${2:?usage: run_trace_golden.sh <build-dir> <source-dir>}
cli="$build_dir/tools/mobidist_sweep"
goldens="$source_dir/tests/goldens"
if [ ! -x "$cli" ]; then
  echo "run_trace_golden: missing binary $cli (build first)" >&2
  exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

MOBIDIST_TRACE_DIR="$tmp/" "$cli" --scenario "$source_dir/scenarios/scale_smoke.json" \
  --jobs 2 --deterministic --out "$tmp/ARTIFACT_scale_smoke.json" > /dev/null
for scenario in mutex_smoke ring_loss group_strategies wireless_dup; do
  MOBIDIST_TRACE_DIR="$tmp/" "$cli" --scenario "$source_dir/scenarios/$scenario.json" \
    --jobs 2 --deterministic --out "$tmp/ARTIFACT_$scenario.json" > /dev/null
done

# Sharded-engine leg: the canonical merged stream at shards=1 has its
# own goldens under tests/goldens/shard1/ (per-lane RNG streams make it
# intentionally distinct from the legacy stream above). shard=1 pins
# the merge order; run_shard_independence.sh pins {1,2,4,8} equality.
mkdir -p "$tmp/shard1"
MOBIDIST_TRACE_DIR="$tmp/shard1/" "$cli" --scenario "$source_dir/scenarios/scale_smoke.json" \
  --jobs 2 --deterministic --shards 1 \
  --out "$tmp/shard1/ARTIFACT_scale_smoke.json" > /dev/null

status=0
for golden in "$goldens"/TRACE_*.jsonl "$goldens"/ARTIFACT_*.json \
              "$goldens"/shard1/TRACE_*.jsonl "$goldens"/shard1/ARTIFACT_*.json; do
  name=$(basename "$golden")
  case "$golden" in
    */shard1/*) candidate="$tmp/shard1/$name" ;;
    *) candidate="$tmp/$name" ;;
  esac
  if [ ! -f "$candidate" ]; then
    echo "run_trace_golden: run produced no $name" >&2
    status=1
    continue
  fi
  if ! cmp -s "$golden" "$candidate"; then
    echo "run_trace_golden: $name differs from committed golden:" >&2
    diff "$golden" "$candidate" | head -5 >&2 || true
    status=1
  fi
done
if [ "$status" -ne 0 ]; then
  echo "run_trace_golden: same-seed streams are no longer byte-identical" >&2
  exit "$status"
fi

echo "run_trace_golden: all same-seed streams byte-identical to committed goldens"
