#!/usr/bin/env bash
# Non-test lines per crate: for every .rs file under crates/<name>/src,
# the lines before its first line-initial `#[cfg(test)]` (the whole file
# when it has none). The rule PRs 12-14 report their before/after counts
# with, so every simplicity PR counts the same way.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/src; do
    n=$(find "$dir" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }')
    printf '%-22s %6d\n' "$(dirname "$dir")" "$n"
    total=$((total + n))
done
printf '%-22s %6d\n' "total" "$total"
