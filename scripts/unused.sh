#!/usr/bin/env bash
# `pub` / `pub(crate)` functions nothing calls, counted two ways over the
# non-test region of crates/{mpc,core,gwas,linalg,stats,obs}/src against
# the non-test regions of crates/*/src, benchmark/src and examples/.
# "Non-test region" is scripts/loc.sh's rule (the lines before a file's
# first line-initial `#[cfg(test)]`); comment lines are skipped, so a doc
# mention is not a caller.
#
# 1. By name: a `pub fn` whose name occurs nowhere else as a whole word.
#    A name defined twice or shared with a field or local under-reports,
#    which is the safe direction.
# 2. By method: a `pub fn` inside a top-level inherent `impl Type` block
#    with no `Type::name`, no `Self::name` inside that block and no
#    `.name(` anywhere. This sees the methods a shared name hides from 1
#    (`new`, `reset`, `zeros`, `with_capacity`); a `.name(` of another
#    type's method still under-reports.
#
# scripts/check.sh holds each count line's first field under its own
# ceiling. What keeps each method the second count still flags:
#   PartyCtx::rng_mut - the per-party draw of ROADMAP's key-material
#     item (b).
#   Constructors that check what a struct literal would not, the only
#     way to build their type (private fields) or to build it valid:
#     SparseParty::new (the sparse `SummandSource`, which ROADMAP's input
#     item puts beside `StreamedParty`; its own tests build it),
#     MultiPartyData::new (row counts; tests/generalizations.rs).
#   Integration tests in another crate, which need it `pub`:
#     DisclosureLog::per_party_scalars (tests/leakage.rs),
#     GenotypeMatrix::observed_maf, SparseMatrix::col_dense
#       (crates/gwas/tests/props.rs),
#     DisclosureLog::per_party_disclosures (the dash-core `secure::` unit
#       tests), Matrix::from_rows (the dash-gwas reader's test oracle and
#       the dash-linalg crate example).
#   Their own crate's tests, pinning what the method states:
#     DisclosureLog::total_scalars (the log's sum),
#     FixedPointCodec::sum_capacity (the wrap bound `max_abs_ring`'s doc
#       points to).
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src benchmark/src examples -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { counting = 1; impl = "" }
    /^#\[cfg\(test\)\]/ { counting = 0 }
    !counting || /^[ \t]*\/\// { next }
    {
        line = $0
        audited = FILENAME ~ /^crates\/(mpc|core|gwas|linalg|stats|obs)\/src\//
        # A top-level inherent impl block opens at `impl` and closes at
        # the next line-initial `}`; `impl Trait for Type` is not counted.
        if (line ~ /^impl[ \t<]/) {
            head = line
            sub(/^impl/, "", head)
            if (head ~ /^</) {
                depth = 0
                for (i = 1; i <= length(head); i++) {
                    ch = substr(head, i, 1)
                    if (ch == "<") depth++
                    else if (ch == ">" && --depth == 0) break
                }
                head = substr(head, i + 1)
            }
            impls++
            impl = ""
            if (head !~ /[ \t]for[ \t]/ && match(head, /[A-Za-z_][A-Za-z0-9_]*/))
                impl = substr(head, RSTART, RLENGTH)
        } else if (line ~ /^}/) {
            impl = ""
        }
        if (audited &&
            match(line, /^[ \t]*pub(\(crate\))?[ \t]+((const|unsafe)[ \t]+)*fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr(line, RSTART, RLENGTH)
            sub(/.*fn[ \t]+/, "", name)
            defs[name]++
            if (!(name in at)) { at[name] = FILENAME ":" FNR; order[++n] = name }
            if (impl != "") {
                methods[++nm] = impl "::" name
                m_at[nm] = FILENAME ":" FNR
                m_impl[nm] = impls
                m_name[nm] = name
            }
        }
        rest = line
        while (match(rest, /[A-Za-z_][A-Za-z0-9_]*::[A-Za-z_][A-Za-z0-9_]*/)) {
            pair = substr(rest, RSTART, RLENGTH)
            split(pair, part, "::")
            if (part[1] == "Self") { if (impl != "") selfs[impls, part[2]]++ }
            else paths[pair]++
            rest = substr(rest, RSTART + length(part[1]) + 2)
        }
        rest = line
        while (match(rest, /\.[A-Za-z_][A-Za-z0-9_]*[ \t]*\(/)) {
            call = substr(rest, RSTART + 1, RLENGTH - 1)
            sub(/[ \t]*\($/, "", call)
            dots[call]++
            rest = substr(rest, RSTART + RLENGTH)
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
        for (i = 1; i <= nm; i++) {
            if (paths[methods[i]] + selfs[m_impl[i], m_name[i]] + dots[m_name[i]] == 0) {
                printf "%s  %s\n", m_at[i], methods[i]
                stranded++
            }
        }
        printf "%d of %d pub methods have no non-test caller\n", stranded + 0, nm
    }'
