#!/bin/sh
# End-to-end TCP serving smoke test: the same generate → train → serve →
# golden-diff loop as serve_smoke.sh, but over a real loopback socket
# (adpa_serve --listen) instead of stdin/stdout. Both transports run through
# the same net::Server loop, so the SAME golden file is the oracle: any
# divergence means the network layer reordered, dropped, or reframed a
# reply.
#
# A python3 client streams the full query file over one connection (half-
# closing the write side to flush the final unterminated line), collects
# replies until EOF, and the harness then SIGTERMs the server and asserts a
# clean drain (notice on stderr, exit 0). Skips with 77 when python3 is
# unavailable.
#
# The SIMD dispatch level is pinned to portable for the same reason as
# serve_smoke.sh: the golden encodes a 30-epoch training trajectory, which
# is chaotic in the kernel level.
#
# usage: tools/serve_tcp_smoke.sh [build-dir]
set -eu

ADPA_SIMD_LEVEL=portable
export ADPA_SIMD_LEVEL

BUILD_DIR="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
CLI="$BUILD_DIR/tools/adpa_cli"
SERVE="$BUILD_DIR/tools/adpa_serve"
QUERIES="$ROOT/tests/golden/serve_smoke_queries.jsonl"
GOLDEN="$ROOT/tests/golden/serve_smoke_replies.jsonl"

if ! command -v python3 > /dev/null 2>&1; then
  echo "serve_tcp_smoke: SKIP — python3 (the TCP test client) not found" >&2
  exit 77
fi

for bin in "$CLI" "$SERVE"; do
  if [ ! -x "$bin" ]; then
    echo "error: $bin not built (run: cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
done

WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2> /dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "serve_tcp_smoke: FAIL — $1" >&2
  echo "serve_tcp_smoke: server log follows" >&2
  cat "$WORK/serve.log" >&2
  exit 1
}

"$CLI" generate --name=Texas --seed=7 --out="$WORK/texas.txt" > /dev/null
"$CLI" train --in="$WORK/texas.txt" --model=ADPA --seed=42 --epochs=30 \
  --save_checkpoint="$WORK/model.ckpt" > /dev/null

"$SERVE" --checkpoint="$WORK/model.ckpt" --in="$WORK/texas.txt" \
  --listen=127.0.0.1:0 2> "$WORK/serve.log" &
SERVE_PID=$!

tries=0
until grep -q '^listening on 127\.0\.0\.1:' "$WORK/serve.log"; do
  tries=$((tries + 1))
  [ "$tries" -lt 100 ] || fail "server did not come up within 10s"
  sleep 0.1
done
PORT="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
  "$WORK/serve.log" | head -n 1)"
[ -n "$PORT" ] || fail "could not parse the listen port"

# Stream every query over one connection, half-close, read replies to EOF.
python3 - "$PORT" "$QUERIES" > "$WORK/replies.jsonl" <<'PYEOF' \
  || fail "TCP client failed"
import socket, sys
sock = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=30)
sock.settimeout(30)
with open(sys.argv[2], "rb") as queries:
    sock.sendall(queries.read())
sock.shutdown(socket.SHUT_WR)
while True:
    chunk = sock.recv(65536)
    if not chunk:
        break
    sys.stdout.buffer.write(chunk)
sys.stdout.buffer.flush()
PYEOF

if ! diff -u "$GOLDEN" "$WORK/replies.jsonl"; then
  fail "TCP replies diverge from $GOLDEN"
fi

kill -TERM "$SERVE_PID"
rc=0
wait "$SERVE_PID" || rc=$?
SERVE_PID=""
[ "$rc" -eq 0 ] || fail "server exited $rc after SIGTERM, want drain + 0"
grep -q 'draining: received signal' "$WORK/serve.log" \
  || fail "no drain notice on stderr"

echo "serve_tcp_smoke: OK ($(wc -l < "$GOLDEN") replies match golden" \
  "over TCP, SIGTERM drained)"
