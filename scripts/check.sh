#!/usr/bin/env bash
# Full verification sweep: lints, configure, build, unit tests, a sanitizer
# pass over the whole test suite, then all benches.
#
# Usage: scripts/check.sh [build-dir]
#
# Environment knobs:
#   DWQA_SANITIZE       sanitizer list for the sanitizer pass
#                       (default "address,undefined"; "" skips the pass;
#                       "thread" runs the TSan flavour CI uses for the
#                       threads-labeled suite: thread pool, parallel
#                       indexation, views, federation and the concurrent
#                       serve drain and hot-path suites)
#   DWQA_SKIP_BENCHES=1 skip the bench sweep
#   DWQA_JOBS           bound build/test parallelism (default: unbounded -j,
#                       which OOMs small CI runners)
set -euo pipefail

BUILD_DIR="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SANITIZE="${DWQA_SANITIZE-address,undefined}"

GENERATOR=()
command -v ninja >/dev/null 2>&1 && GENERATOR=(-G Ninja)

JOBS=(-j)
[ -n "${DWQA_JOBS:-}" ] && JOBS=(-j "$DWQA_JOBS")

# Grep lints (shared with the CI lint job).
"$ROOT/scripts/lint.sh"

cmake -B "$ROOT/$BUILD_DIR" "${GENERATOR[@]}" -S "$ROOT"
cmake --build "$ROOT/$BUILD_DIR" "${JOBS[@]}"
ctest --test-dir "$ROOT/$BUILD_DIR" --output-on-failure

# Perf smoke: the fig3 phase study (--smoke) plus one repetition of each
# microbench, all merging into one bench-JSON artifact. Fails when a bench
# breaks, when the JSON reporter breaks, or when a smoke's deterministic
# shape check fails (fig3: identical parallel builds).
echo
echo "##### perf smoke (ctest -L perf) → $BUILD_DIR/BENCH_phase3.json #####"
DWQA_BENCH_JSON="$ROOT/$BUILD_DIR/BENCH_phase3.json" \
  ctest --test-dir "$ROOT/$BUILD_DIR" -L perf --output-on-failure

# The perf-regression gate CI runs, locally: gated benches (view reads,
# maintenance cost, cold replay) must stay within 2x of the committed
# baseline. Regenerate with `scripts/bench_compare.py ... --update` after
# an intentional perf change and commit the new bench/baseline.json.
python3 "$ROOT/scripts/bench_compare.py" \
  --current "$ROOT/$BUILD_DIR/BENCH_phase3.json" \
  --baseline "$ROOT/bench/baseline.json" \
  --report "$ROOT/$BUILD_DIR/bench_diff.md"

if [ -n "$SANITIZE" ]; then
  SAN_DIR="${BUILD_DIR}-san"
  echo
  echo "##### sanitizer pass (-fsanitize=$SANITIZE) #####"
  cmake -B "$ROOT/$SAN_DIR" "${GENERATOR[@]}" -S "$ROOT" \
    -DDWQA_SANITIZE="$SANITIZE" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$ROOT/$SAN_DIR" "${JOBS[@]}"
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
    ctest --test-dir "$ROOT/$SAN_DIR" --output-on-failure

  # Each labeled suite once more under the sanitizers, alone and loudly:
  # the label is the contract that the suite exists and runs sanitized.
  #   chaos       fault-injection sweeps over the whole pipeline
  #   serve       admission, answer cache, drain and concurrent asks
  #   durability  the WAL parser, recovery replay and the crash-point sweep
  #               (torn and bit-flipped inputs walk parsers off buffers),
  #               and the Fs seam: pwrite/fdatasync handle, directory syncs
  #   index       delta+varint decoding, block skipping, inline merges
  #   views       delta maintenance of shared AggStates under the catalog
  #               lock, the chaos-fed and crash-point view sweeps
  #   federation  cross-warehouse merges of partial aggregates, pool
  #               fan-out, chaos-degraded coverage
  # The exit status is propagated explicitly — `set -e` does not survive
  # callers that pipe this script (only the last pipeline member's status
  # counts), so a swallowed chaos failure here once faked a green sweep.
  for suite in chaos:chaos serve:serving durability:durability \
               index:segmented-index views:materialized-view \
               federation:federation; do
    label="${suite%%:*}"
    name="${suite#*:}"
    echo
    echo "##### $name suite under sanitizers (ctest -L $label) #####"
    if ! ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}" \
         UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
         ctest --test-dir "$ROOT/$SAN_DIR" -L "$label" --output-on-failure; then
      echo "check.sh: $name suite FAILED under -fsanitize=$SANITIZE" >&2
      exit 1
    fi
  done
fi

if [ "${DWQA_SKIP_BENCHES:-0}" != 1 ]; then
  for bench in "$ROOT/$BUILD_DIR"/bench/*; do
    [ -x "$bench" ] || continue
    echo
    echo "##### $(basename "$bench")"
    "$bench"
  done
fi
