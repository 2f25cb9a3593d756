#!/usr/bin/env bash
# Counts the workspace's non-test code lines: every `crates/*/src/**/*.rs`
# line that is neither blank nor a `//` comment (`///` and `//!` docs
# included), with each file cut at its first column-0 `#[cfg(test)]`.
# Prints one line per crate, then the total. Run from anywhere:
#   scripts/count_lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for crate in crates/*/; do
    n=$(find "$crate/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { cut = 0 }
        /^#\[cfg\(test\)\]/ { cut = 1 }
        !cut && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        END { print n + 0 }')
    printf '%-10s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
