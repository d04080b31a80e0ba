#!/usr/bin/env bash
# The alternating-pair protocol every perf claim follows (ROADMAP "Open items";
# perf/README.md says why the box needs it), as a script: build a base revision and the working tree once each, run PAIRS
# pairs per workload — the two runs of a pair back to back, sharing a seed,
# the side that goes first alternating — and print, per workload and
# end-to-end metric, both medians with quartiles, the pairs the change won and
# BENCHMARK.json's bound for the metric: a ratio of medians worse than the bound
# is marked REGRESSED, one better by more than the bound CLEARS (the bar a
# claimed gain has to clear).
#
#   scripts/perf_pairs.sh <base-rev> [workload…]        # default: every workload
#   PAIRS=10 SECONDS_PER_RUN=10 SEED=1 scripts/perf_pairs.sh HEAD~1 ldd_mesh bfs_mesh
#
# The base is exported (git archive) into the git-ignored .bench_build/<rev>;
# the change is the working tree as it stands. Both build offline. Every run's
# output check must pass, and every run is printed, not only the summary.
# Counts are exact: the script exits 1, naming the pair, as soon as base and
# change disagree on congest_rounds, messages, the state checksum note or, on
# a workload that prints one, the digest head note (a change that alters a
# graph but keeps its counts still fails).
#
# Every summary row is also appended, as one JSON line, to the tracked ledger
# benches/perf_ledger.jsonl: the base and change revs (the change is HEAD,
# marked "dirty" when the tree has uncommitted changes), the machine (nproc,
# CPU model, rustc), the protocol (pairs, seconds, seeds), both medians with
# their quartiles, the ratio, the wins and the exact counts of the first pair.
# Building perf/ may rewrite perf/Cargo.lock; the script puts the tracked file
# back, so a run leaves the tree as it found it apart from the ledger.
# (ROADMAP item 1's `perf ab` is what replaces this.)
set -euo pipefail

[ $# -ge 1 ] || { sed -n '2,30p' "$0"; exit 2; }
cd "$(git rev-parse --show-toplevel)"
base_rev=$(git rev-parse --verify --short "$1^{commit}")
shift
pairs=${PAIRS:-10}
seconds=${SECONDS_PER_RUN:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
seed0=${SEED:-1}
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(sed -n '/"workloads"/,/\]/s/.*{"name": "\([a-z0-9_]*\)".*/\1/p' BENCHMARK.json)
fi
# "name better bound" per end-to-end metric, as BENCHMARK.json declares them.
mapfile -t metrics < <(sed -n '/"end_to_end"/,/\]/s/.*"name": "\([a-z_]*\)".*"better": "\([a-z]*\)".*"bound": \([0-9.]*\).*/\1 \2 \3/p' BENCHMARK.json)

base_dir=.bench_build/$base_rev
if [ ! -d "$base_dir" ]; then
    mkdir -p "$base_dir"
    git archive "$base_rev" | tar -x -C "$base_dir"
fi
tmp=$(mktemp -d)
runs=$tmp/runs
cp perf/Cargo.lock "$tmp/Cargo.lock"
trap 'cp "$tmp/Cargo.lock" perf/Cargo.lock; rm -rf "$tmp"' EXIT
echo "building base $base_rev and the working tree (release, offline)…" >&2
cargo build --release --quiet --offline --manifest-path "$base_dir/perf/Cargo.toml"
cargo build --release --quiet --offline --manifest-path perf/Cargo.toml
cp "$tmp/Cargo.lock" perf/Cargo.lock
declare -A bin=([base]="$base_dir/perf/target/release/perf" [change]="perf/target/release/perf")
touch "$runs"
# One run: appends "workload side pair metric value" lines to $runs, the
# end-to-end metrics, the run's "state checksum" note and its "digest head"
# note if it prints one.
run_one() { # workload side pair seed
    local out json checksum head
    out=$("${bin[$2]}" --workload "$1" --seed "$4" --seconds "$seconds" --trace 0)
    json=$(tail -n 1 <<<"$out")
    checksum=$(sed -n 's/.*note: state checksum \([0-9a-f]*\).*/\1/p' <<<"$out")
    case $json in
        '{"correct": true,'*) ;;
        *) echo "$1 ($2, pair $3): output check failed: $json" >&2; exit 1 ;;
    esac
    [ -n "$checksum" ] || { echo "$1 ($2, pair $3): no state checksum note" >&2; exit 1; }
    local m value
    for m in "${metrics[@]}"; do
        value=$(sed -E 's/.*"'"${m%% *}"'": \{"value": ([^,}]+).*/\1/' <<<"$json")
        echo "$1 $2 $3 ${m%% *} $value" >>"$runs"
    done
    echo "$1 $2 $3 checksum $checksum" >>"$runs"
    head=$(sed -n 's/.*note: digest head \([0-9a-f]*\).*/\1/p' <<<"$out")
    [ -z "$head" ] || echo "$1 $2 $3 digest_head $head" >>"$runs"
    echo "run $1 pair $3 seed $4 $2: $(grep "^$1 $2 $3 " "$runs" | awk '{printf "%s=%s ", $4, $5}')"
}

# The counts, state checksums and digest heads of a pair's two runs must be
# identical (a head one side printed and the other did not differs too).
check_counts() { # workload pair
    local m base change
    for m in congest_rounds messages checksum digest_head; do
        base=$(awk -v k="$1 base $2 $m" '$1 " " $2 " " $3 " " $4 == k { print $5 }' "$runs")
        change=$(awk -v k="$1 change $2 $m" '$1 " " $2 " " $3 " " $4 == k { print $5 }' "$runs")
        if [ "$base" != "$change" ]; then
            echo "$1 pair $2: $m differs (base $base, change $change)" >&2
            exit 1
        fi
    done
}

for w in "${workloads[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then order=(base change); else order=(change base); fi
        for side in "${order[@]}"; do
            run_one "$w" "$side" "$i" $((seed0 + i))
        done
        check_counts "$w" "$i"
    done
done

change_rev=$(git rev-parse --short HEAD)
dirty=false
[ -z "$(git status --porcelain --untracked-files=no)" ] || dirty=true
cpu=$(awk -F': *' '/^model name/ { gsub(/["\\]/, "", $2); print $2; exit }' /proc/cpuinfo)
rustc_v=$(rustc -V)
ledger=benches/perf_ledger.jsonl
echo
echo "base $base_rev vs working tree: $pairs pairs, $seconds s per run, seeds $((seed0 + 1))..$((seed0 + pairs))"
printf '%-16s %-15s %12s %25s %12s %25s %7s %6s %6s %s\n' \
    workload metric base_median '[q1, q3]' change_median '[q1, q3]' ratio wins bound verdict
for w in "${workloads[@]}"; do
    for m in "${metrics[@]}"; do
        read -r name better bound <<<"$m"
        awk -v w="$w" -v m="$name" -v better="$better" -v bound="$bound" -v ledger="$ledger" \
            -v base_rev="$base_rev" -v change_rev="$change_rev" -v dirty="$dirty" \
            -v nproc="$(nproc)" -v cpu="$cpu" -v rustc_v="$rustc_v" -v pairs="$pairs" \
            -v seconds="$seconds" -v seed_lo=$((seed0 + 1)) -v seed_hi=$((seed0 + pairs)) '
            function quantile(v, n, q,    h, lo) {   # linear interpolation on sorted v[1..n]
                h = 1 + (n - 1) * q; lo = int(h)
                return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
            }
            function sorted(src, dst, n,    i, j, t) {
                for (i = 1; i <= n; i++) dst[i] = src[i]
                for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
            }
            $1 == w && $4 == m { if ($2 == "base") b[$3] = $5; else c[$3] = $5; if ($3 > n) n = $3 }
            # The exact counts, equal on both sides of every pair (check_counts).
            $1 == w && $2 == "base" && $3 == 1 && $4 ~ /^(congest_rounds|messages)$/ { exact = exact sprintf(", \"%s\": %s", $4, $5) }
            $1 == w && $2 == "base" && $3 == 1 && $4 ~ /^(checksum|digest_head)$/ { exact = exact sprintf(", \"%s\": \"%s\"", $4, $5) }
            END {
                for (i = 1; i <= n; i++) {
                    if (better == "lower" ? c[i] < b[i] : c[i] > b[i]) wins++
                    else if (c[i] == b[i]) ties++
                }
                sorted(b, sb, n); sorted(c, sc, n)
                bm = quantile(sb, n, 0.5); cm = quantile(sc, n, 0.5)
                # The change in the better direction, as a fraction of the base median.
                gain = bm ? (better == "lower" ? bm - cm : cm - bm) / bm : 0
                verdict = gain < -bound ? "REGRESSED" : gain > bound ? "CLEARS" : ""
                printf "%-16s %-15s %12.6g %25s %12.6g %25s %7s %3d/%d%s %6s %s\n", w, m,
                    bm, sprintf("[%.6g, %.6g]", quantile(sb, n, 0.25), quantile(sb, n, 0.75)),
                    cm, sprintf("[%.6g, %.6g]", quantile(sc, n, 0.25), quantile(sc, n, 0.75)),
                    bm ? sprintf("%.3f", cm / bm) : "-", wins, n - ties, ties ? " (" ties " tied)" : "",
                    bound, verdict
                printf "{\"workload\": \"%s\", \"metric\": \"%s\", \"better\": \"%s\", " \
                    "\"base\": {\"rev\": \"%s\", \"median\": %.10g, \"q1\": %.10g, \"q3\": %.10g}, " \
                    "\"change\": {\"rev\": \"%s\", \"dirty\": %s, \"median\": %.10g, \"q1\": %.10g, \"q3\": %.10g}, " \
                    "\"ratio\": %s, \"wins\": %d, \"ties\": %d, " \
                    "\"machine\": {\"nproc\": %d, \"cpu\": \"%s\", \"rustc\": \"%s\"}, " \
                    "\"protocol\": {\"pairs\": %d, \"seconds\": %s, \"seeds\": [%d, %d]}, " \
                    "\"exact\": {%s}}\n",
                    w, m, better, base_rev, bm, quantile(sb, n, 0.25), quantile(sb, n, 0.75),
                    change_rev, dirty, cm, quantile(sc, n, 0.25), quantile(sc, n, 0.75),
                    bm ? sprintf("%.6f", cm / bm) : "null", wins, ties, nproc, cpu, rustc_v,
                    n, seconds, seed_lo, seed_hi, substr(exact, 3) >> ledger
            }' "$runs"
    done
done
