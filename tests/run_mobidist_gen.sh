#!/usr/bin/env bash
# Generator round-trip gate, registered with ctest as `mobidist_gen`.
# Four properties:
#   1. mobidist_gen is a pure function of its flags: the same invocation
#      twice produces byte-identical scenario files.
#   2. Every value given reaches the file: each --set lands in its
#      section (the generator also checks that the file parses back to
#      the spec its overrides built), and malformed numeric flags exit 1
#      without writing anything.
#   3. The generated document is real ScenarioSpec JSON: mobidist_sweep
#      parses and runs it.
#   4. At 1e5-MH scale the generated scenario's deterministic artifact
#      is byte-identical across --jobs 1 and --jobs 4 — the same
#      grouping-independence guarantee the hand-written scenarios carry.
set -euo pipefail

build_dir=${1:?usage: run_mobidist_gen.sh <build-dir>}
gen="$build_dir/tools/mobidist_gen"
cli="$build_dir/tools/mobidist_sweep"
for bin in "$gen" "$cli"; do
  if [ ! -x "$bin" ]; then
    echo "run_mobidist_gen: missing binary $bin (build first)" >&2
    exit 1
  fi
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# 1. Determinism: identical flags, identical bytes.
"$gen" --model commuter --mh 100000 --seeds 1 --moves-per-host 1 \
  --out "$tmp/gen_a.json" > /dev/null 2>&1
"$gen" --model commuter --mh 100000 --seeds 1 --moves-per-host 1 \
  --out "$tmp/gen_b.json" > /dev/null 2>&1
if ! cmp -s "$tmp/gen_a.json" "$tmp/gen_b.json"; then
  echo "run_mobidist_gen: same flags produced different files" >&2
  exit 1
fi

# Unknown models must be rejected, not silently defaulted.
if "$gen" --model teleport --mh 100 --out "$tmp/bad.json" > /dev/null 2>&1; then
  echo "run_mobidist_gen: unknown model was accepted" >&2
  exit 1
fi

# 2. Every --set value is written, in its section: the fault knobs and a
# disabled mobility block included.
fault_sets=(wireless_loss=0.1 rto_base=50 rto_cap=900 evacuate_on_crash=false
            drop_first_wireless=2 dup_first_wireless=3 wireless_spike_max=9
            wired_spike_max=7)
set_args=()
for kv in "${fault_sets[@]}"; do set_args+=(--set "fault.$kv"); done
"$gen" --model commuter --mh 2000 --seeds 1 --no-sweep-variants "${set_args[@]}" \
  --out "$tmp/faults.json" > /dev/null 2>&1
"$gen" --model commuter --mh 2000 --seeds 1 --no-sweep-variants \
  --set mobility.enabled=false --out "$tmp/static.json" > /dev/null 2>&1
expect_in_section() {  # file section "key": value
  local line
  line=$(grep "^  \"$2\": {" "$1" || true)
  if [[ "$line" != *"$3"* ]]; then
    echo "run_mobidist_gen: $1 lacks $3 in section $2:" >&2
    cat "$1" >&2
    exit 1
  fi
}
for kv in "${fault_sets[@]}"; do
  expect_in_section "$tmp/faults.json" fault "\"${kv%%=*}\": ${kv#*=}"
done
expect_in_section "$tmp/static.json" mobility '"enabled": false'
expect_in_section "$tmp/static.json" mobility '"pattern": "commuter"'
for file in faults static; do
  "$cli" --scenario "$tmp/$file.json" --jobs 1 --deterministic \
    --out "$tmp/ARTIFACT_$file.json" > /dev/null 2>&1
done
# dup_first_wireless=3 with no probabilistic duplication: exactly three.
if ! grep -q '"fault.injected_dup":{"max":3,"mean":3,' "$tmp/ARTIFACT_faults.json"; then
  echo "run_mobidist_gen: fault.dup_first_wireless did not reach the run" >&2
  exit 1
fi

for bad in "--mh 5000000000" "--mh -1" "--mh 20x" "--seeds -3" "--seed 1e3"; do
  # shellcheck disable=SC2086  # $bad is a flag and its value
  if "$gen" --model commuter $bad --mh 100 --out "$tmp/rejected.json" > /dev/null 2>&1 \
     || [ -e "$tmp/rejected.json" ]; then
    echo "run_mobidist_gen: '$bad' was accepted" >&2
    exit 1
  fi
done

# 3 + 4. The 1e5-MH leg: run the generated scenario end to end at two
# job counts; deterministic artifacts must be byte-identical.
"$cli" --scenario "$tmp/gen_a.json" --jobs 1 --deterministic \
  --out "$tmp/ARTIFACT_j1.json" > /dev/null
"$cli" --scenario "$tmp/gen_a.json" --jobs 4 --deterministic \
  --out "$tmp/ARTIFACT_j4.json" > /dev/null
if ! cmp -s "$tmp/ARTIFACT_j1.json" "$tmp/ARTIFACT_j4.json"; then
  echo "run_mobidist_gen: 1e5-MH artifact differs between --jobs 1 and --jobs 4" >&2
  diff "$tmp/ARTIFACT_j1.json" "$tmp/ARTIFACT_j4.json" | head -5 >&2 || true
  exit 1
fi

echo "run_mobidist_gen: generator deterministic, every --set value written, bad numbers rejected; 1e5-MH scenario byte-identical across job counts"
