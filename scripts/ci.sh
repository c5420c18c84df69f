#!/usr/bin/env bash
# CI entry point: `scripts/ci.sh [STAGE]`, STAGE one of
#
#   build-test   release build + tier-1 and workspace tests, then the frozen
#                benchmark/ crate built and tested against this tree
#   lint         fmt, clippy over every workspace crate, rustdoc
#   docs-check   docs <-> CLI flag / gate consistency
#   gates        every bench-suite gate at smoke scale, then --validate;
#                the checker-side gate again at full scale
#   fuzz         differential-fuzzing smoke
#   trace        traced figure run -> strict report + Chrome export
#   all          everything above, in that order (the default)
#
# .github/workflows/ci.yml calls the same stages, so this file is the only
# place a gate command is spelled. Every step is wrapped in `timeout` so a
# deadlocked test can never wedge the pipeline (the runtimes' own watchdogs
# should fire long before these).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_TIMEOUT="${BUILD_TIMEOUT:-1200}"
TEST_TIMEOUT="${TEST_TIMEOUT:-900}"
CLIPPY_TIMEOUT="${CLIPPY_TIMEOUT:-1200}"
BENCH_TIMEOUT="${BENCH_TIMEOUT:-120}"
FUZZ_TIMEOUT="${FUZZ_TIMEOUT:-60}"
TRACE_TIMEOUT="${TRACE_TIMEOUT:-600}"

run() {
  local limit="$1"
  shift
  echo "==> $*"
  timeout --kill-after=30 "$limit" "$@"
}

# The harness binaries, built under the build budget so the per-step
# timeouts below measure the step, not a cold compile (each stage can be the
# first thing a CI job runs).
build_bench() {
  run "$BUILD_TIMEOUT" cargo build --release -q -p crossinvoc-bench
}

bench_suite() {
  cargo run --release -q -p crossinvoc-bench --bin bench-suite -- "$@"
}

stage_build_test() {
  run "$BUILD_TIMEOUT" cargo build --release --workspace
  run "$TEST_TIMEOUT" cargo test -q
  # The allocation budget counts with a process-global allocator: run it
  # once more with nothing else allocating beside it.
  run "$TEST_TIMEOUT" cargo test -q --test alloc_budget -- --test-threads=1
  run "$TEST_TIMEOUT" cargo test -q --workspace
  # The examples check themselves with assert!: heat_solver runs barrier
  # mode, fault_tolerance panic recovery, degrade and the watchdog.
  local example
  for example in quickstart auto_parallelize heat_solver particle_sim fault_tolerance; do
    run "$TEST_TIMEOUT" cargo run --release -q --example "$example"
  done
  # benchmark/ is its own workspace that only the benchmark driver builds;
  # it consumes the crates' public API and must never be edited to follow
  # it, so a break has to fail here rather than in the benchmark run.
  run "$BUILD_TIMEOUT" cargo build --release --manifest-path benchmark/Cargo.toml
  run "$TEST_TIMEOUT" cargo test --manifest-path benchmark/Cargo.toml
}

stage_lint() {
  run "$BUILD_TIMEOUT" cargo fmt --all -- --check
  run "$CLIPPY_TIMEOUT" cargo clippy --workspace --all-targets -- -D warnings
  RUSTDOCFLAGS="-D warnings" run "$BUILD_TIMEOUT" cargo doc --no-deps --workspace
}

# Docs <-> CLI consistency: every `--flag` the prose mentions alongside one
# of the repo's binaries must still be parsed by one of those binaries, so a
# renamed or removed flag can't leave dangling instructions behind. (Checked
# against the union of the four binaries because a doc line may name several
# of them; cargo's own flags are whitelisted.) The gate flags live in
# bench-suite's GATES table, not in a match arm, so they are read from
# `bench-suite --list` — which is also what the second rule checks: every
# BENCH_*.json the prose names must be a gate the `gates` stage runs and
# validates, so a documented gate can't silently drop out of CI.
stage_docs_check() {
  build_bench
  echo "==> docs/CLI flag consistency"
  local bad=0 f b s gates
  local bins='bench-suite|fuzz-diff|trace-report|server-stats'
  local srcs='crates/bench/src/bin/bench-suite.rs crates/bench/src/bin/fuzz-diff.rs crates/bench/src/bin/trace-report.rs crates/bench/src/bin/server-stats.rs'
  local cargo_flags='release|bin|package|quiet|workspace|features|bench|no-deps|all-targets'
  for s in $srcs; do
    [ -f "$s" ] || { echo "ERROR: docs reference binary source $s, which is missing" >&2; bad=1; }
  done
  gates="$(bench_suite --list)"
  for f in $(grep -rhE "\b($bins)\b" --include='*.md' README.md EXPERIMENTS.md DESIGN.md docs |
    grep -oE -- '--[a-z][a-z-]+' | sed 's/^--//' | sort -u |
    grep -vE "^($cargo_flags)$" || true); do
    if ! grep -q -- "\"--$f\"" $srcs && ! grep -qE -- " --$f\$" <<<"$gates"; then
      echo "ERROR: docs mention flag --$f next to ($bins) but no binary parses it" >&2
      bad=1
    fi
  done
  for b in $(grep -rhoE 'BENCH_[0-9]+\.json' --include='*.md' \
    README.md EXPERIMENTS.md DESIGN.md docs | sort -u); do
    if ! grep -q -- "^$b " <<<"$gates"; then
      echo "ERROR: docs mention $b but bench-suite --list has no such gate to validate" >&2
      bad=1
    fi
  done
  return "$bad"
}

# One loop over the gate table: run each gate at smoke scale (well-formed
# report required; BENCH_8/9 also evaluate their deterministic criteria at
# this scale, see EXPERIMENTS.md), then re-validate the artifact it wrote.
# BENCH_9 additionally leaves BENCH_9.snapshots.jsonl + BENCH_9.prom as
# exposition exemplars for server-stats and Prometheus scrapes.
stage_gates() {
  local gates file schema flag
  build_bench
  gates="$(bench_suite --list)"
  while read -r file schema flag; do
    # $flag is empty for the default gate (BENCH_3).
    run "$BENCH_TIMEOUT" cargo run --release -q -p crossinvoc-bench --bin bench-suite -- \
      $flag --smoke </dev/null
    run "$BENCH_TIMEOUT" cargo run --release -q -p crossinvoc-bench --bin bench-suite -- \
      --validate "target/figures/$file" </dev/null
  done <<<"$gates"
  # The checker-side gate is quick at figure scale (BENCH_5 is pure
  # simulation, well under a second) and its criteria compare rows of the
  # same run, so evaluate it for real on every push; a failed criterion
  # exits nonzero.
  run "$BENCH_TIMEOUT" cargo run --release -q -p crossinvoc-bench --bin bench-suite -- \
    --fastpath </dev/null
}

# Differential-fuzzing smoke: replay the checked-in corpus, then a fixed
# seed window through every engine path against the sequential oracle
# (docs/FUZZING.md). Any divergence is minimized into target/fuzz-corpus/
# (CI uploads it as an artifact) and fails the run. The 2000-case window is
# the widest one over every lane at the default task bound. The two
# --max-tasks 96 windows (one at the default fault mix, one
# all-faults) are the ones whose epochs are long enough for SPECCROSS to run
# chunks of several tasks at 2-4 workers: under the default bound of 10 tasks
# nearly every generated region runs the per-iteration protocol.
stage_fuzz() {
  build_bench
  run "$FUZZ_TIMEOUT" cargo run --release -q -p crossinvoc-bench --bin fuzz-diff -- \
    --smoke --corpus corpus --out target/fuzz-corpus
  run "$FUZZ_TIMEOUT" cargo run --release -q -p crossinvoc-bench --bin fuzz-diff -- \
    --smoke --start 100000 --fault-percent 100 --corpus corpus --out target/fuzz-corpus
  run "$FUZZ_TIMEOUT" cargo run --release -q -p crossinvoc-bench --bin fuzz-diff -- \
    --cases 2000 --corpus corpus --out target/fuzz-corpus
  run "$FUZZ_TIMEOUT" cargo run --release -q -p crossinvoc-bench --bin fuzz-diff -- \
    --max-tasks 96 --cases 1000 --corpus corpus --out target/fuzz-corpus
  run "$FUZZ_TIMEOUT" cargo run --release -q -p crossinvoc-bench --bin fuzz-diff -- \
    --start 100000 --fault-percent 100 --max-tasks 96 --cases 400 \
    --corpus corpus --out target/fuzz-corpus
}

# Observability smoke: a traced figure run must produce traces that survive
# strict analysis (non-zero exit on any ring overflow) and export to
# Chrome/Perfetto trace_event JSON (see docs/OBSERVABILITY.md). The text
# report and the chrome/ directory are the artifacts CI archives.
stage_trace() {
  build_bench
  run "$TRACE_TIMEOUT" env CROSSINVOC_TRACE=1 cargo bench -p crossinvoc-bench --bench fig4_3
  run "$TRACE_TIMEOUT" cargo run --release -q -p crossinvoc-bench --bin trace-report -- \
    --strict --chrome target/figures/chrome target/figures/*.trace.jsonl \
    >target/figures/trace-report.txt
  echo "    wrote target/figures/trace-report.txt + target/figures/chrome/"
}

case "${1:-all}" in
  build-test) stage_build_test ;;
  lint) stage_lint ;;
  docs-check) stage_docs_check ;;
  gates) stage_gates ;;
  fuzz) stage_fuzz ;;
  trace) stage_trace ;;
  all)
    stage_build_test
    stage_lint
    stage_docs_check
    stage_gates
    stage_fuzz
    stage_trace
    echo "CI passed."
    ;;
  *)
    echo "usage: scripts/ci.sh [build-test|lint|docs-check|gates|fuzz|trace|all]" >&2
    exit 2
    ;;
esac
