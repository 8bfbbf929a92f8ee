#!/usr/bin/env bash
# Rewrites tests/goldens/<name>.txt from the `figures` binary at Quick scale
# (seed 20070107), one file per experiment that tests/figure_goldens.rs pins.
#
# Usage: scripts/regen_goldens.sh
#
# Each golden is the binary's output for one target without its two header
# lines and its closing "done." line, i.e. the experiment's render plus one
# newline. A change that moves a figure reruns this and records the
# before → after of every moved golden.
set -euo pipefail

cd "$(dirname "$0")/.."
cargo build --release -q -p bench --bin figures
figures="${CARGO_TARGET_DIR:-target}/release/figures"
for pair in table1:table1 table2:table2 fig7_9:fig7 fig10:fig10 fig11_12:fig11 \
    fig13_14:fig13 fig15:fig15 fig16:fig16 condor_crash:large-condor; do
    name="${pair%%:*}"
    "$figures" "${pair#*:}" | sed '1,2d;$d' > "tests/goldens/$name.txt"
done
