#!/bin/sh
# adpa_cli train and adpa_serve bound their integer flags, and train its
# real ones: a value outside a flag's range takes the usage path (exit 2)
# before anything loads. 4294967299 is 2^32 + 3, which a narrowing int cast
# reads as 3 epochs; -1 steps would otherwise be stored in a checkpoint that
# no loader accepts. A dropout outside [0, 1) fails a CHECK once training
# starts, and a learning rate of nan or 0 trains a model that cannot learn.
# A queue depth below 1 answers every query "overloaded", and a timeout past
# the int32 range overflows the steady-clock deadline. A seed outside
# 0..2^63-1 or a scale that is not a positive real would otherwise wrap,
# saturate or fall back to the default and build a different graph or model.
#
# usage: tools/cli_flags_smoke.sh [build-dir]
set -u

BUILD_DIR="${1:-build}"
CLI="$BUILD_DIR/tools/adpa_cli"
SERVE="$BUILD_DIR/tools/adpa_serve"

for bin in "$CLI" "$SERVE"; do
  if [ ! -x "$bin" ]; then
    echo "error: $bin not built (run: cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
done

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$CLI" generate --name=Texas --seed=7 --out="$WORK/texas.txt" > /dev/null ||
  exit 1

# expect_usage <flag>...: train with the flags must exit 2.
expect_usage() {
  status=0
  "$CLI" train --in="$WORK/texas.txt" --model=ADPA "$@" \
    > "$WORK/out.txt" 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "cli_flags_smoke: FAIL — train $* exited $status, want 2" >&2
    cat "$WORK/out.txt" >&2
    exit 1
  fi
}

# expect_generate_usage <flag>...: generate with the flags must exit 2.
expect_generate_usage() {
  status=0
  "$CLI" generate --name=Texas --out="$WORK/generated.txt" "$@" \
    > "$WORK/out.txt" 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "cli_flags_smoke: FAIL — generate $* exited $status, want 2" >&2
    cat "$WORK/out.txt" >&2
    exit 1
  fi
}

# expect_serve_usage <flag>...: adpa_serve with the flags must exit 2. The
# checkpoint and dataset paths do not exist, so a flag that is accepted
# reaches the dataset load and exits 1 instead.
expect_serve_usage() {
  status=0
  "$SERVE" --checkpoint="$WORK/missing.ckpt" --in="$WORK/missing.txt" "$@" \
    < /dev/null > "$WORK/out.txt" 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "cli_flags_smoke: FAIL — adpa_serve $* exited $status, want 2" >&2
    cat "$WORK/out.txt" >&2
    exit 1
  fi
}

expect_usage --epochs=4294967299
expect_usage --epochs=1 --steps=-1
expect_usage --epochs=1 --dropout=1
expect_usage --epochs=1 --dropout=-0.5
expect_usage --epochs=1 --lr=nan
expect_usage --epochs=1 --lr=0
expect_usage --epochs=1 --seed=xyz
expect_generate_usage --seed=abc
expect_generate_usage --seed=-1
expect_generate_usage --seed=99999999999999999999
expect_generate_usage --scale=abc
expect_serve_usage --max_queue_depth=0
expect_serve_usage --max_queue_depth=-1
expect_serve_usage --max_batch_nodes=0
expect_serve_usage --idle_timeout_ms=-1
expect_serve_usage --stall_timeout_ms=99999999999999999999
echo "cli_flags_smoke: ok"
