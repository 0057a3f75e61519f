#!/bin/sh
# End-to-end serving smoke test: generate a registry benchmark, train a
# small ADPA model, persist it (src/io/checkpoint.h), serve 100 JSON-lines
# queries over stdin/stdout (one connection of adpa_serve's event loop),
# and byte-diff the replies against the checked-in golden file. The query
# set includes one malformed line and one out-of-range node, so the
# parse-error and per-request-error paths are covered too.
#
# The golden stores integer class ids only (argmax of the logits), so it is
# stable across build modes; it was verified identical between the
# -march=native and portable (ADPA_NATIVE_ARCH=OFF) builds.
#
# The SIMD dispatch level is pinned to portable: the golden encodes a full
# 30-epoch training trajectory, which is chaotic in the kernel level (AVX2/
# AVX-512 GEMMs agree with portable only to rel-error, and 30 epochs amplify
# that). Pinning makes the replies byte-stable on every host CPU; the
# per-level kernels themselves are covered by tests/simd_test.
#
# usage: tools/serve_smoke.sh [build-dir]
set -eu

ADPA_SIMD_LEVEL=portable
export ADPA_SIMD_LEVEL

BUILD_DIR="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
CLI="$BUILD_DIR/tools/adpa_cli"
SERVE="$BUILD_DIR/tools/adpa_serve"
QUERIES="$ROOT/tests/golden/serve_smoke_queries.jsonl"
GOLDEN="$ROOT/tests/golden/serve_smoke_replies.jsonl"

for bin in "$CLI" "$SERVE"; do
  if [ ! -x "$bin" ]; then
    echo "error: $bin not built (run: cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
done

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$CLI" generate --name=Texas --seed=7 --out="$WORK/texas.txt" > /dev/null
"$CLI" train --in="$WORK/texas.txt" --model=ADPA --seed=42 --epochs=30 \
  --save_checkpoint="$WORK/model.ckpt" > /dev/null
"$SERVE" --checkpoint="$WORK/model.ckpt" --in="$WORK/texas.txt" \
  < "$QUERIES" > "$WORK/replies.jsonl" 2> "$WORK/serve.log"

if ! diff -u "$GOLDEN" "$WORK/replies.jsonl"; then
  echo "serve_smoke: FAIL — replies diverge from $GOLDEN" >&2
  echo "serve_smoke: server log follows" >&2
  cat "$WORK/serve.log" >&2
  exit 1
fi

echo "serve_smoke: OK ($(wc -l < "$GOLDEN") replies match golden)"
