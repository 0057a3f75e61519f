#!/bin/sh
# Every binary that reads flags refuses a value outside a flag's range, a
# malformed switch, a positional argument and a flag it never reads with an
# error line and exit 2, before it loads, listens, connects, starts a thread
# or writes a file. One binary of each family is driven; the paper benches
# share bench_table2_datasets' reader (bench_common.h). Each case runs
# under `timeout 20`, so a binary that stops refusing fails, not hangs.
#
# usage: tools/cli_flags_smoke.sh [build-dir]
set -u

BUILD_DIR="${1:-build}"
CLI="$BUILD_DIR/tools/adpa_cli"
SERVE="$BUILD_DIR/tools/adpa_serve"
PROXY="$BUILD_DIR/tools/chaos_proxy"
SOAK="$BUILD_DIR/bench/soak_harness"
SERVE_BENCH="$BUILD_DIR/bench/serve_bench"
LOAD_BENCH="$BUILD_DIR/bench/load_bench"
TABLE2="$BUILD_DIR/bench/bench_table2_datasets"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$CLI" generate --name=Texas --seed=7 --out="$WORK/texas.txt" > /dev/null ||
  exit 1

# refuses <text> <command>...: the command must exit 2 within 20 s with an
# error line that contains <text>. A binary that is not built exits 127.
refuses() {
  text="$1"
  shift
  status=0
  timeout 20 "$@" < /dev/null > "$WORK/out.txt" 2>&1 || status=$?
  if [ "$status" -ne 2 ] || ! grep -q "^error: .*$text" "$WORK/out.txt"; then
    echo "cli_flags_smoke: FAIL — $* exited $status, want 2 with an error" \
      "naming '$text'" >&2
    cat "$WORK/out.txt" >&2
    exit 1
  fi
}

# train, generate and adpa_serve with the given flags. The serve checkpoint
# and dataset do not exist, so a flag that is accepted reaches the dataset
# load and exits 1 instead.
expect_usage() {
  refuses "" "$CLI" train --in="$WORK/texas.txt" --model=ADPA "$@"
}
expect_generate_usage() {
  refuses "" "$CLI" generate --name=Texas --out="$WORK/generated.txt" "$@"
}
expect_serve_usage() {
  refuses "" "$SERVE" --checkpoint="$WORK/missing.ckpt" \
    --in="$WORK/missing.txt" "$@"
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

# A missing dataset or golden file exits 1, so each case below exits 2 only
# if the flag is refused before the file is read.
refuses --scale "$TABLE2" --scale=abc
refuses --scael "$TABLE2" --scael=0.5
refuses 0.3 "$TABLE2" 0.3
refuses --connections "$SOAK" --connect=127.0.0.1:1 \
  --golden="$WORK/missing.tsv" --connections=0
refuses --min_ok "$SOAK" --connect=127.0.0.1:1 --golden="$WORK/missing.tsv" \
  --min_ok=0
refuses --intensity "$PROXY" --upstream=127.0.0.1:1 --intensity=2
refuses --requests "$SERVE_BENCH" --name=NoSuch --requests=0
refuses --nodes_per_request "$LOAD_BENCH" --name=NoSuch --nodes_per_request=0
refuses --epoch "$CLI" train --in="$WORK/missing.txt" --epoch=1
refuses --undirect "$CLI" train --in="$WORK/missing.txt" --undirect=ture
refuses --max_queue_depht "$SERVE" --checkpoint="$WORK/missing.ckpt" \
  --in="$WORK/missing.txt" --max_queue_depht=0
refuses --no_reload "$SERVE" --checkpoint="$WORK/missing.ckpt" \
  --in="$WORK/missing.txt" --no_reload=maybe

# --no_reload=false keeps reload on: a stdin reload is acknowledged.
"$CLI" train --in="$WORK/texas.txt" --epochs=1 \
  --save_checkpoint="$WORK/model.ckpt" > /dev/null || exit 1
printf '{"id": 1, "reload": "%s"}\n' "$WORK/model.ckpt" |
  timeout 20 "$SERVE" --checkpoint="$WORK/model.ckpt" \
    --in="$WORK/texas.txt" --no_reload=false > "$WORK/out.txt" 2>&1
if ! grep -q '"reloaded"' "$WORK/out.txt"; then
  echo "cli_flags_smoke: FAIL — --no_reload=false refused a reload" >&2
  cat "$WORK/out.txt" >&2
  exit 1
fi
echo "cli_flags_smoke: ok"
