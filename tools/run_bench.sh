#!/usr/bin/env sh
# Runs one extension bench (bench/ext_NAME) and writes its JSON artifact
# (a "results" list of rows, the format tools/check_bench_trend.py
# compares).
#
#   tools/run_bench.sh NAME [build_dir] [output.json]
#
# NAME is one of capture, faults, learner, multi_cluster, net,
# sim_shards, transport; the artifact defaults to BENCH_NAME.json.
#
# Tunables via environment (unset: the bench's own defaults apply):
#   CAPES_BENCH_TICKS    --ticks: ticks per measured point
#   CAPES_BENCH_THREADS  --threads: worker pool size (faults,
#                        multi_cluster, sim_shards and transport only)
set -eu

if [ $# -lt 1 ]; then
  echo "usage: $0 NAME [build_dir] [output.json]" >&2
  exit 2
fi
NAME="$1"
BUILD_DIR="${2:-build}"
OUT="${3:-BENCH_$NAME.json}"
BENCH="$BUILD_DIR/bench/ext_$NAME"

if [ ! -x "$BENCH" ]; then
  echo "error: $BENCH not built (cmake --build $BUILD_DIR --target ext_$NAME)" >&2
  exit 1
fi

set -- --json="$OUT"
if [ -n "${CAPES_BENCH_TICKS:-}" ]; then
  set -- "$@" --ticks="$CAPES_BENCH_TICKS"
fi
if [ -n "${CAPES_BENCH_THREADS:-}" ]; then
  set -- "$@" --threads="$CAPES_BENCH_THREADS"
fi
if [ "$NAME" = capture ]; then
  # Keep the bench's scratch capture file out of the working tree.
  set -- "$@" --capture-file="$BUILD_DIR/bench_capture.cap"
fi
"$BENCH" "$@"
