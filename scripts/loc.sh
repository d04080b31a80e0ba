#!/usr/bin/env bash
# Non-test lines of Rust, per crate and in total, over one fixed scope so that
# size claims chain from change to change:
#
#   * every `.rs` file under `crates/` and `src/`, except those inside a
#     `tests/` directory (integration tests are not library code);
#   * each file counted up to, not including, its first `#[cfg(test)]` line
#     (unit-test modules sit at the end of the file they test);
#   * every line counts — blank lines and comments included.
#
# `perf/`, `examples/` and the repo-level `tests/` are outside the scope.
#
#   scripts/loc.sh
set -euo pipefail

# The repository root is this script's parent directory, so the count also
# works in an export without `.git` (`git archive`), from any directory.
cd "$(dirname "${BASH_SOURCE[0]}")/.."

count() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

total=0
for dir in . $(find crates -name Cargo.toml -not -path '*/target/*' -exec dirname {} \; | sort); do
    if [ "$dir" = . ]; then roots=(src); name=mfd; else roots=("$dir/src"); name=${dir#crates/}; fi
    lines=0
    while IFS= read -r f; do
        lines=$((lines + $(count "$f")))
    done < <(find "${roots[@]}" -name '*.rs' -not -path '*/tests/*' | sort)
    printf '%-16s %6d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-16s %6d\n' total "$total"
