#!/bin/sh
# Runs the kernel micro-bench suite and the serving benches, recording their
# JSON reports so the perf trajectory is tracked in-repo across PRs (see
# BENCH_kernels.json and BENCH_serve.json). BENCH_serve.json holds a
# `reports` array with one entry per transport: the in-process
# batcher-direct rows (serve_bench, `"transport": "in_process"`) and the
# TCP sustained-load rows (load_bench, `"transport": "tcp"` with the
# headline `sustained_qps_at_slo` under `slo_p99_ms`).
#
# The kernel rows include the Eq. 10 fusion GEMM of perfbench's train graph
# in all three layouts (BM_FusionMatMul*: forward X·W, dX = dY·Wᵀ,
# dW = Xᵀ·dY) at every level and at 1, 2 and 4 threads, one ADPA training
# step and forward (BM_AdpaTrainEpoch, BM_AdpaForward) and AMUD's analysis.
#
# Provenance guard: both binaries self-report whether THIS code was compiled
# with NDEBUG ("adpa_build_type" in the google-benchmark context,
# "build_type" in serve_bench's report). Numbers from a debug or sanitizer
# build are refused — they would silently poison the tracked trajectory —
# unless --allow-debug is given (for local experiments only; never commit
# such files). The stock "library_build_type" key is NOT consulted: it only
# describes the installed google-benchmark library.
#
# usage: tools/bench_to_json.sh [--allow-debug] [build-dir] [out-file] [serve-out-file]
set -eu

ALLOW_DEBUG=0
if [ "${1:-}" = "--allow-debug" ]; then
  ALLOW_DEBUG=1
  shift
fi

BUILD_DIR="${1:-build}"
OUT_FILE="${2:-BENCH_kernels.json}"
SERVE_OUT_FILE="${3:-BENCH_serve.json}"
BENCH_BIN="$BUILD_DIR/bench/bench_kernels"
SERVE_BIN="$BUILD_DIR/bench/serve_bench"
LOAD_BIN="$BUILD_DIR/bench/load_bench"

# check_release <file> <json-key>: refuse a report whose self-declared build
# type is not "release" (unless --allow-debug).
check_release() {
  if grep -q "\"$2\": \"release\"" "$1"; then
    return 0
  fi
  if [ "$ALLOW_DEBUG" = 1 ]; then
    echo "warning: $1 comes from a non-release build (kept: --allow-debug)" >&2
    return 0
  fi
  echo "error: $1 comes from a non-release build ($2 != \"release\");" >&2
  echo "       rebuild with the default Release preset, or pass --allow-debug" >&2
  echo "       to keep the numbers for local comparison (never commit them)" >&2
  rm -f "$1"
  exit 1
}

if [ ! -x "$BENCH_BIN" ]; then
  echo "error: $BENCH_BIN not built (run: cmake --build $BUILD_DIR)" >&2
  exit 1
fi

# Host provenance: a row that asks for more threads than the host has CPUs
# times the scheduler, not the kernel, so such rows are refused (left out,
# and named on stderr); the CPU count goes into the report's context as
# "adpa_nproc". serve_bench and load_bench apply the same rule themselves
# and record the count as "nproc".
NPROC="$(getconf _NPROCESSORS_ONLN)"
FILTER='BM_(MatMulSeedKernel512|MatMulBlocked512|MatMulDispatch512|SpMM|DenseMatMul|DpPropagation|HopChainUnfused|FusionMatMul|AdpaTrainEpoch|AdpaForward|AmudAnalysis)'
ROWS=""
for row in $("$BENCH_BIN" --benchmark_list_tests=true \
               --benchmark_filter="$FILTER"); do
  threads="$(printf '%s\n' "$row" | sed -n 's/.*threads:\([0-9]*\).*/\1/p')"
  if [ -n "$threads" ] && [ "$threads" -gt "$NPROC" ]; then
    echo "refused: $row (host has $NPROC CPUs)" >&2
  else
    ROWS="${ROWS:+$ROWS|}$row"
  fi
done

"$BENCH_BIN" \
  --benchmark_filter="^($ROWS)\$" \
  --benchmark_context="adpa_nproc=$NPROC" \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json > "$OUT_FILE"

check_release "$OUT_FILE" "adpa_build_type"
echo "wrote $OUT_FILE"

for bin in "$SERVE_BIN" "$LOAD_BIN"; do
  if [ ! -x "$bin" ]; then
    echo "error: $bin not built (run: cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
done

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$SERVE_BIN" > "$WORK/in_process.json"
check_release "$WORK/in_process.json" "build_type"
grep -q '"transport": "in_process"' "$WORK/in_process.json" || {
  echo "error: serve_bench report lacks the transport key" >&2
  exit 1
}

"$LOAD_BIN" > "$WORK/tcp.json"
check_release "$WORK/tcp.json" "build_type"
for key in '"transport": "tcp"' '"slo_p99_ms"' '"sustained_qps_at_slo"'; do
  grep -q "$key" "$WORK/tcp.json" || {
    echo "error: load_bench report lacks the $key key" >&2
    exit 1
  }
done

{
  echo '{'
  echo '"reports": ['
  cat "$WORK/in_process.json"
  echo ','
  cat "$WORK/tcp.json"
  echo ']'
  echo '}'
} > "$SERVE_OUT_FILE"
echo "wrote $SERVE_OUT_FILE"
