#!/usr/bin/env bash
# The repository's benchmark, one command. See README.md next to this file.
#
#   benchmark/run.sh [--seed N] [--seconds S]       all five workloads: 3 repetitions + a traced pass
#   benchmark/run.sh --smoke                        the same at OPS_SCALE 1/20, one repetition (< 20 s)
#   benchmark/run.sh --compare A.json B.json        regression gate over two result files
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                   one run; last stdout line is the result object
#   benchmark/run.sh --definition                   what BENCHMARK.json must hold
#
# Builds first (release, offline; build time is outside every metric) into
# $CARGO_TARGET_DIR, or the repository's target/ when that is unset.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
case "${CARGO_TARGET_DIR:-}" in
    "") export CARGO_TARGET_DIR="$root/target" ;;
    /*) ;;
    *) export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/cas-bench"

mode=suite
for arg in "$@"; do
    case "$arg" in
        --workload) mode=run ;;
        --compare) mode=compare ;;
        --definition) mode=definition ;;
    esac
done

case "$mode" in
    run) exec "$bin" run --out "$here/out" "$@" ;;
    compare)
        [ "$1" = "--compare" ] && [ $# -eq 3 ] || { echo "usage: run.sh --compare A.json B.json" >&2; exit 2; }
        exec "$bin" compare "$2" "$3"
        ;;
    definition) exec "$bin" definition ;;
    suite)
        commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
        exec "$bin" suite --out "$here/out" --commit "$commit" "$@"
        ;;
esac
