#!/bin/sh
# adpa_cli train bounds its integer flags: a value outside a flag's range
# takes the usage path (exit 2) before training starts. 4294967299 is
# 2^32 + 3, which a narrowing int cast reads as 3 epochs; -1 steps would
# otherwise be stored in a checkpoint that no loader accepts.
#
# usage: tools/cli_flags_smoke.sh [build-dir]
set -u

BUILD_DIR="${1:-build}"
CLI="$BUILD_DIR/tools/adpa_cli"

if [ ! -x "$CLI" ]; then
  echo "error: $CLI not built (run: cmake --build $BUILD_DIR)" >&2
  exit 1
fi

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

expect_usage --epochs=4294967299
expect_usage --epochs=1 --steps=-1
echo "cli_flags_smoke: ok"
