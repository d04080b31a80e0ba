#!/usr/bin/env bash
# What CI asks of every gated report section, as one command: two separate
# `report` processes must write byte-equal BENCH_<section>.json files (plain
# cmp — the files hold no wall clocks, so nothing is normalised), and the
# result must pass bench_gate against the checked-in baselines.
#
#   scripts/bench_verify.sh <section>…      # e.g. runtime gather, or scale profile
set -euo pipefail

[ $# -ge 1 ] || { echo "usage: scripts/bench_verify.sh <section>…" >&2; exit 2; }
cd "$(git rev-parse --show-toplevel)"
cargo build --release -p mfd-bench --bin report --bin bench_gate
files=("${@/#/BENCH_}")
files=("${files[@]/%/.json}")
rm -f "${files[@]}"
target/release/report "$@"
mkdir -p bench-run-a
mv "${files[@]}" bench-run-a/
target/release/report "$@"
for f in "${files[@]}"; do cmp "bench-run-a/$f" "$f"; done
echo "byte-for-byte reproducible across two processes: ${files[*]}"
target/release/bench_gate benches/baselines.json "${files[@]}"
