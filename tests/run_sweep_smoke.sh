#!/usr/bin/env bash
# Sweep-runner smoke test, registered with ctest as `sweep_smoke`
# (label: sweep-smoke). Exercises the full CLI path on a tiny grid:
#   1. run scenarios/mutex_smoke.json with --jobs 1 and --jobs 4 in
#      --deterministic mode and require byte-identical artifacts — the
#      pinned thread-count-independence guarantee;
#   2. gate a fresh run against the jobs=1 artifact as baseline (must
#      pass: exit 0);
#   3. tamper one metric mean in the baseline and require the gate to
#      fail with the regression exit code (3) — the deliberate-fail leg;
#   4. malformed numeric flags, out-of-range scenario integers,
#      out-of-range sweep seeds and a seed count above the 2^20-run
#      limit exit 1 (usage) before any run starts or any artifact is
#      written.
set -euo pipefail

build_dir=${1:?usage: run_sweep_smoke.sh <build-dir> <scenario.json>}
scenario=${2:?usage: run_sweep_smoke.sh <build-dir> <scenario.json>}
cli="$build_dir/tools/mobidist_sweep"
if [ ! -x "$cli" ]; then
  echo "run_sweep_smoke: missing binary $cli (build first)" >&2
  exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$cli" --scenario "$scenario" --jobs 1 --deterministic --out "$tmp/jobs1.json" > /dev/null
"$cli" --scenario "$scenario" --jobs 4 --deterministic --out "$tmp/jobs4.json" > /dev/null
cmp "$tmp/jobs1.json" "$tmp/jobs4.json"

# Shard-count independence on the same artifact: the --shards axis must
# never change the deterministic body (the full trace-level sweep over
# every scenario lives in run_shard_independence.sh).
for shards in 1 2 4 8; do
  "$cli" --scenario "$scenario" --jobs 2 --deterministic --shards "$shards" \
    --out "$tmp/shards$shards.json" > /dev/null
  cmp "$tmp/jobs1.json" "$tmp/shards$shards.json"
done

"$cli" --scenario "$scenario" --jobs 2 --deterministic --out "$tmp/gated.json" \
  --baseline "$tmp/jobs1.json" > /dev/null

sed -E '0,/"mean":[-0-9.]+/s//"mean":999999.000000/' "$tmp/jobs1.json" > "$tmp/tampered.json"
set +e
"$cli" --scenario "$scenario" --jobs 2 --deterministic --out "$tmp/refuted.json" \
  --baseline "$tmp/tampered.json" > "$tmp/gate.log" 2>&1
status=$?
set -e
if [ "$status" -ne 3 ]; then
  echo "run_sweep_smoke: expected regression exit code 3, got $status:" >&2
  cat "$tmp/gate.log" >&2
  exit 1
fi
if ! grep -qi "regression" "$tmp/gate.log"; then
  echo "run_sweep_smoke: gate failed without reporting a regression:" >&2
  cat "$tmp/gate.log" >&2
  exit 1
fi

expect_usage_error() {  # what, then the CLI arguments after --scenario
  local what=$1
  shift
  rm -f "$tmp/rejected.json"
  set +e
  "$cli" "$@" --out "$tmp/rejected.json" > "$tmp/usage.log" 2>&1
  status=$?
  set -e
  if [ "$status" -ne 1 ] || [ -e "$tmp/rejected.json" ]; then
    echo "run_sweep_smoke: $what: expected exit 1 and no artifact, got $status:" >&2
    cat "$tmp/usage.log" >&2
    exit 1
  fi
}
for flag in "--jobs -1" "--jobs 4x" "--jobs 99999999999" "--shards -2" \
            "--tolerance abc" "--tolerance -0.5" "--tolerance nan"; do
  # shellcheck disable=SC2086  # $flag is a flag and its value
  expect_usage_error "$flag" --scenario "$scenario" $flag
done
# 4294967300 and 4294967304 once wrapped to a 4 MSS x 8 MH run.
printf '%s\n' '{"workload": "mutex", "topology": {"num_mss": 4294967300, "num_mh": 4294967304}}' \
  > "$tmp/wrapping.json"
expect_usage_error "num_mss 4294967300" --scenario "$tmp/wrapping.json"
if ! grep -qE "topology\.num_m(ss|h). is out of range" "$tmp/usage.log"; then
  echo "run_sweep_smoke: out-of-range error does not name the key:" >&2
  cat "$tmp/usage.log" >&2
  exit 1
fi
# Sweep seeds follow the same rule: 1e30 and -2 were once cast to
# uint64_t / size_t (undefined behaviour) and 2.5 was truncated.
for seeds in '[1e30]' '[-1]' '[1.5]' '{"base": 1e30, "count": 2}' \
             '{"base": 1, "count": 1e30}' '{"base": 1, "count": -2}' \
             '{"base": 1, "count": 2.5}'; do
  printf '{"workload": "mutex", "sweep": {"seeds": %s}}\n' "$seeds" > "$tmp/seeds.json"
  expect_usage_error "seeds $seeds" --scenario "$tmp/seeds.json"
  if ! grep -qF "must be a non-negative integer below 2^64" "$tmp/usage.log"; then
    echo "run_sweep_smoke: seeds $seeds: rejected for the wrong reason:" >&2
    cat "$tmp/usage.log" >&2
    exit 1
  fi
done
# A legal u64 count above the 2^20-run limit once died in a bare
# std::bad_alloc; it must name the key instead.
for count in 1e18 1048577; do
  printf '{"workload": "mutex", "sweep": {"seeds": {"base": 1, "count": %s}}}\n' "$count" \
    > "$tmp/seeds.json"
  expect_usage_error "seeds.count $count" --scenario "$tmp/seeds.json"
  if ! grep -qF "seeds.count must be at most 2^20" "$tmp/usage.log"; then
    echo "run_sweep_smoke: seeds.count $count: rejected for the wrong reason:" >&2
    cat "$tmp/usage.log" >&2
    exit 1
  fi
done

echo "run_sweep_smoke: jobs- and shard-independent artifacts byte-identical; gate passes clean baseline and rejects tampered one; bad numbers exit 1"
