#!/usr/bin/env bash
# Builds the benchmark, prints the metric catalogue, runs all six workloads
# and collects their result lines in benchmark/results/latest.json.
#
#   benchmark/run.sh                 # end-to-end metrics, 10 s per workload
#   benchmark/run.sh --traced        # per-layer metrics + results/*.spans.jsonl
#   benchmark/run.sh --smoke         # schema check: Test scale, 2 rounds, < 10 s
#   benchmark/run.sh --seconds 20 --seed 7 --threads 2
#
# Extra arguments are passed to every `run`. Exits non-zero if any workload
# fails its correctness gate.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
manifest="$here/Cargo.toml"

cargo build --release --offline --manifest-path "$manifest"
bench() { cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"; }

bench list
mkdir -p "$here/results"
latest="$here/results/latest.json"
status=0
{
  echo "{"
  first=1
  for workload in spec_fine domore_fine coarse_mix spec_recover server_mix auto_pir; do
    log="$here/results/$workload.log"
    if ! bench run --workload "$workload" "$@" >"$log"; then
      status=1
    fi
    cat "$log" >&2
    [ "$first" = 1 ] || echo ","
    first=0
    printf '  "%s": %s' "$workload" "$(tail -n 1 "$log")"
  done
  echo
  echo "}"
} >"$latest"
echo "[wrote $latest]" >&2
exit "$status"
