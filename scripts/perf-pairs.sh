#!/usr/bin/env bash
# Interleaved parent/change benchmark pairs — the perf trajectory that lives
# in the repo (ROADMAP item 6).
#
#   scripts/perf-pairs.sh PARENT_DIR CHANGE_DIR ROUNDS SECONDS [OUT [ARGS...]]
#
# PARENT_DIR and CHANGE_DIR are two checkouts of this repository (make the
# parent's with `git clone`). Each side's benchmark/ crate is built once into
# its own .bench_build/, then every workload BENCHMARK.json names is run
# through each side's binary with BENCHMARK.json's arguments (`run --workload
# W`, `--seconds SECONDS`, then ARGS, e.g. `--seed 777`), ROUNDS times,
# alternating which side goes first.
# On top of the pairs: one `--trace 1` run per side of the four engine
# workloads — spec_fine, spec_recover, domore_fine, coarse_mix — (per-layer
# rows) and one `--threads 3` and one `--threads 4` run per side of the same
# four (oversubscribed on a host with fewer cores).
#
# Prints median, quartiles and pairs won per (workload, metric) and writes
# OUT (default PERF.json) in the current directory: host nproc, both commits,
# rounds, every value of every run, every run's `failed`. A perf PR commits
# it as PERF_<pr>.json — not BENCH_<pr>.json: `ci.sh docs-check` reserves
# that pattern in prose for bench-suite gates.
set -euo pipefail

[ $# -ge 4 ] || { sed -n '2,22p' "$0" >&2; exit 2; }
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
rounds="$3"
seconds="$4"
out="${5:-PERF.json}"
shift $(($# < 5 ? $# : 5))
args=("$@")
contract="$change/BENCHMARK.json"
traced_workloads="spec_fine spec_recover domore_fine coarse_mix"

# name -> "better" for every metric BENCHMARK.json declares.
better_of() {
  awk -v want="$1" -F'"' '
    $2 == "name" { name = $4 }
    $2 == "better" && name == want { print $4; exit }' "$contract"
}
end_to_end="$(awk -F'"' '
  /"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
  on && $2 == "name" { print $4 }' "$contract")"
workloads="$(awk -F'"' '
  /"workloads"/ { on = 1 } /"end_to_end"/ { on = 0 }
  on && $2 == "name" { print $4 }' "$contract")"

describe() {
  local dir="$1" dirty=false
  [ -z "$(git -C "$dir" status --porcelain)" ] || dirty=true
  printf '{"commit": "%s", "uncommitted_changes": %s}' "$(git -C "$dir" rev-parse HEAD)" "$dirty"
}

build() {
  echo "==> building $1/benchmark" >&2
  (cd "$1" && CARGO_TARGET_DIR="$1/.bench_build" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
}

# The last line of a run: the result object. Both sides' binaries are run
# from one path (inside their own checkout): on this host the same binary
# started from two paths of different length — a different stack layout —
# has read 60 % apart on a hand-off-bound region (EXPERIMENTS.md, PR 17).
common="$(mktemp -d)"
bench() {
  local dir="$1"
  shift
  cp "$dir/.bench_build/release/benchmark" "$common/benchmark"
  (cd "$dir" && "$common/benchmark" run "$@" | tail -n 1)
}

field() { sed -nE "s/.*\"$2\": \{\"value\": ([^,}]+).*/\1/p" <<<"$1"; }
failed() { sed -nE 's/.*"failed": ([0-9]+).*/\1/p' <<<"$1"; }

build "$parent"
build "$change"

# rows: side workload round metric value   (metric "failed" included)
rows="$(mktemp)"
trap 'rm -rf "$rows" "$common"' EXIT
orders=()
for round in $(seq 1 "$rounds"); do
  if [ $((round % 2)) = 1 ]; then sides="parent change"; else sides="change parent"; fi
  orders+=("\"${sides%% *}-first\"")
  for w in $workloads; do
    for side in $sides; do
      line="$(bench "${!side}" --workload "$w" --seconds "$seconds" "${args[@]}")"
      for m in $end_to_end; do
        echo "$side $w $round $m $(field "$line" "$m")" >>"$rows"
      done
      echo "$side $w $round failed $(failed "$line")" >>"$rows"
      echo "round $round $w $side: ns_per_task $(field "$line" ns_per_task), failed $(failed "$line")" >&2
    done
  done
done

# One object of every metric of one extra run (traced or oversubscribed).
extra() {
  local line="$1"
  sed -E 's/.*"failed": ([0-9]+), "metrics": \{(.*)\}\}$/{"failed": \1, \2}/;
          s/\{"value": ([^,}]+), "unit": "[^"]*"\}/\1/g' <<<"$line"
}
extras() { # label, then the benchmark arguments
  local label="$1" first=1 w side
  shift
  printf '  "%s": {\n' "$label"
  for w in $traced_workloads; do
    for side in parent change; do
      [ "$first" = 1 ] || printf ',\n'
      first=0
      echo "$label $w $side" >&2
      printf '    "%s.%s": %s' "$w" "$side" \
        "$(extra "$(bench "${!side}" --workload "$w" --seconds "$seconds" "${args[@]}" "$@")")"
    done
  done
  printf '\n  }'
}

{
  printf '{\n  "schema": "crossinvoc-perf-pairs/1",\n'
  printf '  "host": {"nproc": %s, "note": "benchmark default T = clamp(nproc, 2, 4); a threads_3 / threads_4 run with T > nproc is oversubscribed, evidence of no failure, not of speed; with nproc < 3 those runs are the only evidence here for T >= 3 (two or more workers: DOMORE strided runs and cross-worker Sync, multi-worker SPECCROSS chunks)"},\n' "$(nproc)"
  printf '  "parent": %s,\n  "change": %s,\n' "$(describe "$parent")" "$(describe "$change")"
  printf '  "rounds": %s,\n  "seconds": %s,\n  "extra_args": "%s",\n  "first_side": [%s],\n' \
    "$rounds" "$seconds" "${args[*]}" "$(IFS=,; echo "${orders[*]}")"
  printf '  "workloads": {\n'
  firstw=1
  for w in $workloads; do
    [ "$firstw" = 1 ] || printf ',\n'
    firstw=0
    printf '    "%s": {\n' "$w"
    for m in failed $end_to_end; do
      better="$(better_of "$m")"
      awk -v w="$w" -v m="$m" -v better="${better:-lower}" '
        function quantile(v, n, q,    pos, lo) {
          pos = (n - 1) * q + 1; lo = int(pos)
          return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
        }
        function summarize(side, raw, n,    v, i, j, t, list) {
          for (i = 1; i <= n; i++) { v[i] = raw[i] + 0; list = list (i > 1 ? ", " : "") raw[i] }
          for (i = 2; i <= n; i++)
            for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
          printf "\"%s\": [%s], \"%s_q1_median_q3\": [%.6g, %.6g, %.6g]", side, list, side,
            quantile(v, n, 0.25), quantile(v, n, 0.5), quantile(v, n, 0.75)
          return quantile(v, n, 0.5)
        }
        $2 == w && $4 == m { if ($1 == "parent") p[$3] = $5; else c[$3] = $5; if ($3 > n) n = $3 }
        END {
          printf "      \"%s\": {", m
          if (m == "failed") {
            for (i = 1; i <= n; i++) { pl = pl (i > 1 ? ", " : "") p[i]; cl = cl (i > 1 ? ", " : "") c[i] }
            printf "\"parent\": [%s], \"change\": [%s]},\n", pl, cl
            exit
          }
          for (i = 1; i <= n; i++) won += (better == "lower") ? (c[i] < p[i]) : (c[i] > p[i])
          printf "\"better\": \"%s\", ", better
          pm = summarize("parent", p, n); printf ", "
          cm = summarize("change", c, n)
          printf ", \"pairs_won\": %d}", won
          printf "%-13s %-15s parent %10.4g  change %10.4g  x%.3f  won %d/%d\n", w, m, pm, cm, cm / pm, won, n > "/dev/stderr"
        }' "$rows"
      [ "$m" = failed ] || { [ "$m" = "$(tail -n 1 <<<"$end_to_end")" ] && printf '\n' || printf ',\n'; }
    done
    printf '    }'
  done
  printf '\n  },\n'
  extras traced --trace 1
  printf ',\n'
  extras threads_3 --threads 3
  printf ',\n'
  extras threads_4 --threads 4
  printf '\n}\n'
} >"$out"
echo "[wrote $out]" >&2
