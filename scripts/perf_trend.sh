#!/usr/bin/env bash
# One workload's end-to-end metric across the perf ledger
# (benches/perf_ledger.jsonl, appended by scripts/perf_pairs.sh): one row per
# ledger entry, oldest first, with the base rev, the change rev ("+dirty"
# when the change was measured before it was committed), the ratio of the
# change's median to the base's, the pairs the change won (ties left out,
# as perf_pairs.sh prints them), and the running product of the ratios.
#
#   scripts/perf_trend.sh <workload> <metric>      # e.g. edt_mesh wall_s
#
# Only ratios chain: each comes from one perf_pairs.sh run, which measures
# both sides on the same box at the same time, and absolute medians from
# different runs cannot be compared. The product reads as
# "the metric now, as a multiple of where the first entry's base stood"
# when each entry's base is the previous entry's change.
set -euo pipefail

[ $# -eq 2 ] || { sed -n '2,15p' "$0"; exit 2; }
cd "$(dirname "${BASH_SOURCE[0]}")/.."
ledger=benches/perf_ledger.jsonl

sed -nE 's/^\{"workload": "'"$1"'", "metric": "'"$2"'",.*"base": \{"rev": "([^"]*)".*"change": \{"rev": "([^"]*)", "dirty": ([a-z]*).*"ratio": ([^,]*), "wins": ([0-9]*), "ties": ([0-9]*),.*"pairs": ([0-9]*),.*/\1 \2 \3 \4 \5 \6 \7/p' "$ledger" |
    awk -v w="$1" -v m="$2" '
        NR == 1 { product = 1; printf "%-8s %-14s %7s %9s %9s\n", "base", "change", "ratio", "wins", "product" }
        {
            change = $2 ($3 == "true" ? "+dirty" : "")
            if ($4 != "null") product *= $4
            printf "%-8s %-14s %7s %5d/%-3d %9.3f\n", $1, change, $4 == "null" ? "-" : sprintf("%.3f", $4), $5, $7 - $6, product
        }
        END { if (NR == 0) { print "no ledger entry for " w " " m > "/dev/stderr"; exit 1 } }'
