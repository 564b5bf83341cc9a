#!/usr/bin/env bash
# `pub` / `pub(crate)` functions nothing calls: for every such `fn` in the
# non-test region of crates/{mpc,core,gwas,linalg,stats,obs}/src, print it
# when its name occurs nowhere else as a whole word in the non-test
# regions of crates/*/src, benchmark/src and examples/. "Non-test region"
# is scripts/loc.sh's rule (the lines before a file's first line-initial
# `#[cfg(test)]`); comment lines are skipped, so a doc mention is not a
# caller. A name defined twice or shared with a field or local
# under-reports, which is the safe direction; scripts/check.sh holds the
# count (the last line's first field) under a ceiling.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src benchmark/src examples -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { counting = 1 }
    /^#\[cfg\(test\)\]/ { counting = 0 }
    !counting || /^[ \t]*\/\// { next }
    {
        line = $0
        if (FILENAME ~ /^crates\/(mpc|core|gwas|linalg|stats|obs)\/src\// &&
            match(line, /^[ \t]*pub(\(crate\))?[ \t]+((const|unsafe)[ \t]+)*fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr(line, RSTART, RLENGTH)
            sub(/.*fn[ \t]+/, "", name)
            defs[name]++
            if (!(name in at)) { at[name] = FILENAME ":" FNR; order[++n] = name }
        }
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
            seen[substr(line, RSTART, RLENGTH)]++
            line = substr(line, RSTART + RLENGTH)
        }
    }
    END {
        for (i = 1; i <= n; i++) {
            name = order[i]
            if (seen[name] == defs[name]) { printf "%s  %s\n", at[name], name; unused++ }
        }
        printf "%d of %d pub fn names have no non-test caller\n", unused + 0, n
    }'
