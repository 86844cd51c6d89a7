#!/usr/bin/env bash
# One command for the benchmark: build wfbench (release, offline), run it.
#
#   benchmark/run.sh                         every workload untraced, then the
#                                            traced pass; result.json + trace.json
#   benchmark/run.sh --quick                 the same at smoke-test sizes
#   benchmark/run.sh --workload NAME         that workload only
#   benchmark/run.sh --seed N --out DIR --runs K
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                            one run, one result line (the form
#                                            BENCHMARK.json's command is run in)
#   benchmark/run.sh compare A.json B.json   did set B regress against set A?
#
# Run it from the root of the checkout. Everything it writes stays there:
# the build in $CARGO_TARGET_DIR (default .bench_build), scratch trees in
# .wfbench_work (about 600 MB at peak, removed on exit), records in --out
# (default .wfbench_out). Exits non-zero when the build fails, when a
# correctness check fails, or when `compare` finds a regression.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

# Scratch trees are removed by wfbench itself; this also covers a kill.
cleanup() { rm -rf .wfbench_work; }
trap cleanup EXIT INT TERM

# One run (the contract form) writes no record; anything else does.
single=0
out_dir=".wfbench_out"
prev=""
for arg in "$@"; do
    [ "$arg" = "--trace" ] && single=1
    [ "$prev" = "--out" ] && out_dir="$arg"
    prev="$arg"
done
probe_dir="."
if [ "$single" = 0 ] && [ "${1:-}" != "compare" ]; then
    mkdir -p "$out_dir"
    probe_dir="$out_dir"
fi
free_kb="$(df -Pk "$probe_dir" | awk 'NR == 2 { print $4 }')"
if [ "${free_kb:-0}" -lt 2097152 ]; then
    echo "run.sh: less than 2 GB free in the filesystem of $probe_dir; refusing to start" >&2
    exit 1
fi

# The build's own output goes to stderr: stdout carries only results.
cargo build --release --offline --locked \
    --manifest-path "$here/wfbench/Cargo.toml" --bin wfbench >&2

bin="$CARGO_TARGET_DIR/release/wfbench"
case "${1:-}" in
    compare | all) "$bin" "$@" ;;
    *)
        if [ "$single" = 1 ]; then
            "$bin" "$@"
        else
            "$bin" all "$@"
        fi
        ;;
esac
