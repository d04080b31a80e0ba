#!/usr/bin/env bash
# The alternating-pair protocol every perf claim follows (ROADMAP "Open items";
# perf/README.md says why the box needs it), as a script: build a base revision and the working tree once each, run PAIRS
# pairs per workload — the two runs of a pair back to back, sharing a seed,
# the side that goes first alternating — and print, per workload and
# end-to-end metric, both medians with quartiles and the pairs the change won.
#
#   scripts/perf_pairs.sh <base-rev> [workload…]        # default: every workload
#   PAIRS=10 SECONDS_PER_RUN=10 SEED=1 scripts/perf_pairs.sh HEAD~1 ldd_mesh bfs_mesh
#
# The base is exported (git archive) into the git-ignored .bench_build/<rev>;
# the change is the working tree as it stands. Both build offline. Every run's
# output check must pass, and every run is printed, not only the summary.
# Counts are exact: the script exits 1, naming the pair, as soon as base and
# change disagree on congest_rounds, messages or the state checksum note (a
# change that alters a graph but keeps its counts still fails).
# (ROADMAP item 1's `perf ab` is what replaces this.)
set -euo pipefail

[ $# -ge 1 ] || { sed -n '2,17p' "$0"; exit 2; }
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
# "name better" per end-to-end metric, as BENCHMARK.json declares them.
mapfile -t metrics < <(sed -n '/"end_to_end"/,/\]/s/.*"name": "\([a-z_]*\)".*"better": "\([a-z]*\)".*/\1 \2/p' BENCHMARK.json)

base_dir=.bench_build/$base_rev
if [ ! -d "$base_dir" ]; then
    mkdir -p "$base_dir"
    git archive "$base_rev" | tar -x -C "$base_dir"
fi
echo "building base $base_rev and the working tree (release, offline)…" >&2
cargo build --release --quiet --offline --manifest-path "$base_dir/perf/Cargo.toml"
cargo build --release --quiet --offline --manifest-path perf/Cargo.toml
declare -A bin=([base]="$base_dir/perf/target/release/perf" [change]="perf/target/release/perf")

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
# One run: appends "workload side pair metric value" lines to $runs, the
# end-to-end metrics and the run's "state checksum" note.
run_one() { # workload side pair seed
    local out json checksum
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
        value=$(sed -E 's/.*"'"${m% *}"'": \{"value": ([^,}]+).*/\1/' <<<"$json")
        echo "$1 $2 $3 ${m% *} $value" >>"$runs"
    done
    echo "$1 $2 $3 checksum $checksum" >>"$runs"
    echo "run $1 pair $3 seed $4 $2: $(grep "^$1 $2 $3 " "$runs" | awk '{printf "%s=%s ", $4, $5}')"
}

# The counts and state checksums of a pair's two runs must be identical.
check_counts() { # workload pair
    local m base change
    for m in congest_rounds messages checksum; do
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

echo
echo "base $base_rev vs working tree: $pairs pairs, $seconds s per run, seeds $((seed0 + 1))..$((seed0 + pairs))"
printf '%-16s %-15s %12s %25s %12s %25s %7s %6s\n' \
    workload metric base_median '[q1, q3]' change_median '[q1, q3]' ratio wins
for w in "${workloads[@]}"; do
    for m in "${metrics[@]}"; do
        awk -v w="$w" -v m="${m% *}" -v better="${m#* }" '
            function quantile(v, n, q,    h, lo) {   # linear interpolation on sorted v[1..n]
                h = 1 + (n - 1) * q; lo = int(h)
                return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
            }
            function sorted(src, dst, n,    i, j, t) {
                for (i = 1; i <= n; i++) dst[i] = src[i]
                for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
            }
            $1 == w && $4 == m { if ($2 == "base") b[$3] = $5; else c[$3] = $5; if ($3 > n) n = $3 }
            END {
                for (i = 1; i <= n; i++) {
                    if (better == "lower" ? c[i] < b[i] : c[i] > b[i]) wins++
                    else if (c[i] == b[i]) ties++
                }
                sorted(b, sb, n); sorted(c, sc, n)
                bm = quantile(sb, n, 0.5); cm = quantile(sc, n, 0.5)
                printf "%-16s %-15s %12.6g %25s %12.6g %25s %7s %3d/%d%s\n", w, m,
                    bm, sprintf("[%.6g, %.6g]", quantile(sb, n, 0.25), quantile(sb, n, 0.75)),
                    cm, sprintf("[%.6g, %.6g]", quantile(sc, n, 0.25), quantile(sc, n, 0.75)),
                    bm ? sprintf("%.3f", cm / bm) : "-", wins, n - ties, ties ? " (" ties " tied)" : ""
            }' "$runs"
    done
done
