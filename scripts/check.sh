#!/usr/bin/env bash
# Full verification sweep: build, tests, docs, experiments.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (all targets)"
cargo build --workspace --all-targets --release

echo "== lint (clippy, warnings are errors)"
# The secure scope's panic-free, indexing and print rules are denies in
# source, at its two roots (crates/mpc/src/lib.rs and `pub mod secure;` in
# crates/core/src/lib.rs), where an #[allow] must state a reason.
cargo clippy --workspace --all-targets --release -- -D warnings

echo "== seeded fixtures fail the build (exactly the marked sites, in both scope roots)"
# The fixtures of scripts/seeded/ (not compiled by cargo) state each rule
# of the secure scope, crates/mpc/src and crates/core/src/secure, by a
# site that breaks it. A line that ends in `// seeded: <mark> ...` must
# fail with each of its marks, once per mark, and nothing else may fail.
#
# Constant time is the element type's: outside crates/mpc/src/ring.rs an
# `R64` has no readable word and no `==`, `<`, `/` or constant pattern.
# ring.rs itself, the one file that sees the word, is held to no branch,
# comparison, `/` or `%` in its non-test code by a textual check (E14
# times the compiled arithmetic), and the word leaves an element only
# through `declassify`, called from exactly three files: the wire encode,
# the opened totals and the fixed-point decode. Both textual checks run
# first, over the tree, and the ring one also over ct_violations.rs,
# where it must reject exactly the `ring_text` lines.
#
# Then each fixture is compiled as a module of a copy of dash-mpc, then
# of the copy's dash-core `secure` module (a fixture's `use crate::` read
# as `use dash_mpc::`). The marks and the pass that proves each:
#   compile_error  an `assert!` that the root's shadow macro turns into a
#                  build error (reported at the `:::` invocation line; the
#                  `-->` line is the shadow's definition);
#   type           a read of an element's word, or a comparison, division
#                  or pattern on elements: a type error at its own `-->`
#                  line (a following `-->` note on ring.rs is not a site);
#   path_assert    an assert named by its path (`std::assert!`,
#                  `::core::assert_eq!`), which the shadow does not reach
#                  and a textual check of the root's directory rejects
#                  (comment lines and compile-time `const _` items aside);
#   tag_range      a `const` named with a whole `TAG` word outside
#                  crates/mpc/src/tags.rs, which a textual check of the
#                  root's directory rejects;
#   clippy::<lint> a deny at the root that fails clippy.
# A build error stops clippy before any lint runs, and a type error may
# hide another, so each build pass compiles the fixtures with the other
# build pass's lines blanked (every type line is a statement): the
# compile_error pass, the type pass, then the clippy pass with both
# blanked, where the CLEAN shapes must build. A deny, shadow or private
# word that drops off a root, or a site that stops failing, fails here.
# The copy keeps a fixed path under target/ so its build stays
# incremental.

# ring_text <file>...: non-test, non-comment lines that branch, compare,
# divide or take a remainder, as "<file>:<line> ring_text".
ring_text() {
    awk 'FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        !counting || /^[[:space:]]*\/\// { next }
        { code = $0; sub(/[[:space:]]*\/\/.*/, "", code) }
        code ~ /(^|[^[:alnum:]_])(if|match|while|loop)([^[:alnum:]_]|$)/ ||
        code ~ /==|!=|<=|>=| < | > | % | \// { print FILENAME ":" FNR, "ring_text" }' "$@"
}
# marked <mark> <file> [<as>]: the lines of <file> that carry <mark> (a
# clippy mark counts for the pass `clippy`), as "<as>:<line> <mark>".
marked() {
    awk -v f="${3:-$2}" -v pass="$1" '/\/\/ seeded: / && !/^ *\/\// {
        s = $0; sub(/.*\/\/ seeded: /, "", s); n = split(s, l, " ")
        for (i = 1; i <= n; i++)
            if ((l[i] ~ /^clippy::/ ? "clippy" : l[i]) == pass) print f ":" FNR, l[i]
    }' "$2"
}
# same <what> <expected> <found> [<label>]: prints what was found and
# fails the stage unless it is what was expected.
same() {
    echo "$3" | sed "/^$/d; s/^/  ${4:+[$4] }/"
    if [ "$2" != "$3" ]; then
        echo "error: $1 differ from their marks" >&2
        diff <(echo "$2") <(echo "$3") >&2 || true
        exit 1
    fi
}
RING=crates/mpc/src/ring.rs
same "ring.rs's branches, comparisons and divisions" "" "$(ring_text "$RING")"
same "the textual ring check's hits in ct_violations.rs" \
    "$(marked ring_text scripts/seeded/ct_violations.rs | sort)" \
    "$(ring_text scripts/seeded/ct_violations.rs | sort)"
EXIT_CALLERS=$(find crates/*/src -name '*.rs' | sort | xargs awk -v ring="$RING" '
    FNR == 1 { counting = 1 }
    /^#\[cfg\(test\)\]/ { counting = 0 }
    counting && !/^[[:space:]]*\/\// && /(^|[^[:alnum:]_])declassify([^[:alnum:]_]|$)/ &&
        FILENAME != ring { print FILENAME }' | sort -u)
same "the files that call R64::declassify" "crates/mpc/src/fixed.rs
crates/mpc/src/party.rs
crates/mpc/src/protocol/masked.rs" "$EXIT_CALLERS"

SEEDED_TREE=target/seeded-fixtures
SEEDED_ROOTS="crates/mpc/src/lib.rs crates/core/src/secure/mod.rs"
rm -rf "$SEEDED_TREE"
mkdir -p "$SEEDED_TREE"
cp -a Cargo.toml Cargo.lock crates src "$SEEDED_TREE"/
# seeded_pass <package> <module root> <compile_error|type|path_assert|tag_range|clippy>
seeded_pass() {
    local pkg=$1 root=$2 pass=$3 dir expect="" found name src dest r
    dir=$(dirname "$root")
    for r in $SEEDED_ROOTS; do
        cp "$r" "$SEEDED_TREE/$r"
        rm -f "$SEEDED_TREE/$(dirname "$r")"/seeded_*.rs
    done
    for name in panics indexing prints ct_violations stray_tag; do
        src="scripts/seeded/$name.rs"
        dest="$dir/seeded_$name.rs"
        awk -v keep="$pass" -v core="$([ "$pkg" = dash-core ] && echo 1)" '
            core { sub(/^use crate::/, "use dash_mpc::") }
            /\/\/ seeded: / {
                s = $0; sub(/.*\/\/ seeded: /, "", s); n = split(s, l, " ")
                for (i = 1; i <= n; i++)
                    if ((l[i] == "compile_error" || l[i] == "type") && l[i] != keep) { print ""; next }
            }
            { print }' "$src" > "$SEEDED_TREE/$dest"
        printf '#[allow(dead_code, reason = "compiled, never called")]\nmod seeded_%s;\n' \
            "$name" >> "$SEEDED_TREE/$root"
        expect+=$(marked "$pass" "$src" "$dest")$'\n'
    done
    case $pass in
    path_assert)
        found=$( (cd "$SEEDED_TREE" && grep -rnE '\b(std|core)::assert(_eq|_ne)?\b' \
            --include='*.rs' "$dir" || true) |
            awk -F: '{ code = $0; sub(/^[^:]*:[0-9]+:[[:space:]]*/, "", code) }
                code !~ /^(\/\/|const _)/ { print $1 ":" $2, "path_assert" }' | sort) ;;
    tag_range)
        found=$( (cd "$SEEDED_TREE" && grep -rnE \
            '\bconst[[:space:]]+([A-Z0-9]+_)*TAG(_[A-Z0-9]+)*[[:space:]]*:' \
            --include='*.rs' "$dir" || true) |
            awk -F: '{ code = $0; sub(/^[^:]*:[0-9]+:[[:space:]]*/, "", code) }
                $1 != "crates/mpc/src/tags.rs" && code !~ /^\/\// { print $1 ":" $2, "tag_range" }' |
            sort) ;;
    *)
        found=$( (cd "$SEEDED_TREE" && CARGO_TARGET_DIR=../seeded-fixtures-target \
            cargo clippy -p "$pkg" --lib --release 2>&1 || true) | awk '
            /^error/ && !/^error: (could not compile|aborting)/ {
                n++; msg[n] = $0; arrow[n] = ""; call[n] = ""; lint[n] = ""; next
            }
            n && arrow[n] == "" && /^ *--> / { split($2, a, ":"); arrow[n] = a[1] ":" a[2] }
            n && call[n] == "" && /^ *::: / { split($2, a, ":"); call[n] = a[1] ":" a[2] }
            n && lint[n] == "" && /index\.html#/ { sub(/.*index\.html#/, ""); lint[n] = "clippy::" $0 }
            END {
                for (i = 1; i <= n; i++)
                    if (lint[i] != "") print arrow[i], lint[i]
                    else if (msg[i] ~ /aborts a party mid-round/) print call[i], "compile_error"
                    else print arrow[i], "type"
            }' | sort) ;;
    esac
    expect=$(sort <<<"${expect%$'\n'}" | sed '/^$/d')
    if [ -z "$expect" ]; then
        echo "error: no $pass marks in the seeded fixtures" >&2
        exit 1
    fi
    same "the seeded fixtures' $pass errors in $dir" "$expect" "$found" "$pass"
}
for pass in compile_error type path_assert tag_range clippy; do
    seeded_pass dash-mpc crates/mpc/src/lib.rs "$pass"
done
for pass in compile_error type path_assert tag_range clippy; do
    seeded_pass dash-core crates/core/src/secure/mod.rs "$pass"
done

echo "== format"
cargo fmt --all --check

echo "== tests"
cargo test --workspace --release

echo "== block-size invariance property and the parties-agree digest (debug build)"
# The secure scan must give the same bits for every block size ('off' is
# one block of M); DASH_BLOCKED_CASES bounds the randomized sweep so CI
# stays fast (raise it locally for a deeper search). Both runs are debug
# builds: the blocked run exercises the debug assertion that per-block
# traffic counters partition the total, and the `secure::` unit tests fold
# every in-process party's opened statistics into its digest under
# overflow checks, so a plain `*` in the fold fails here, not in someone's
# debug run.
DASH_BLOCKED_CASES=16 cargo test -p dash-core --test blocked_secure
cargo test -p dash-core --lib secure::

echo "== link machine: every seeded schedule delivers exactly once or ends in one verdict"
# Two pure `Link` machines joined by in-memory queues under seeded
# send / duplicate / reorder / cut / reconnect / checkpoint / restart
# schedules (no sockets, no threads, no clock): what each machine's
# `frame_arrived` hands back — the one receive buffer a TCP link has — is
# every frame exactly once and in order, or the run ends in PeerCrashed /
# ResumeMismatch for a stated reason.
# DASH_LINK_SCHEDULES bounds the case count (default 1024, ~10 ms; raise
# it locally for a deeper search).
DASH_LINK_SCHEDULES=4096 cargo test -p dash-mpc --release --lib link::tests

echo "== TSV reader and streamed party: bit-equal to their references or the same structured error"
# The byte-level reader (gwas/src/io.rs) against the lines()/split/trim/
# parse reader it replaced, kept as the test oracle: generated tables
# (every number spelling on and off the exact cell path, CRLF, blank
# lines, one defect per table) read with 1-byte to 1-MiB chunks give the
# same matrix bit for bit or the same error with the same line, column
# and token; the exact path equals str::parse on 2e5 tokens and declines
# past its limits; arbitrary bytes never panic. The same stage pins the
# streamed source `dash party` runs on (`StreamedParty`, which reads x.tsv
# a block of columns at a time from a byte cursor per row and never holds
# X): for every N mod 4 up to N = 40, M in {1, 5, 13}, K in {0, 1, 3},
# blocks of 1, 3, 5 or M asked in order from block 0 or a later one (as a
# resume asks), CRLF and 1-byte reads, a row count other than y's is a
# ShapeMismatch first, and otherwise every block's summands equal the
# resident load's bit for bit or the error is the reader's.
# DASH_TSV_CASES bounds the generated tables (default 256; raise it
# locally for a deeper search).
DASH_TSV_CASES=2048 cargo test -p dash-gwas --release --lib io::tests

echo "== TSV writer: shortest digits equal \`{}\` byte for byte"
# The cell writer's fast path (gwas/src/io/shortest.rs, Ryu's e2 < 0
# half with ties up) against `format!("{}")`: random bit patterns,
# exponent-uniform normals, every power of two and 1e{k} with their
# neighbours, integers and fractions, exact ties k + {.25, .5, .75} for
# 2^50 <= k < 2^51, and the edges of the fast path's domain, where `{}`
# itself writes the cell. DASH_FMT_CASES bounds each random family
# (default 20,000, ~0.1 s; here ~20 s).
DASH_FMT_CASES=10000000 cargo test -p dash-gwas --release --lib io::shortest::tests

echo "== p-values: a slice evaluated in lock step equals the scalar oracle bit for bit"
# `StudentT::two_sided_p_into` (stats/src/{tdist,special}.rs: the
# incomplete-beta continued fractions of a slice run four at a time)
# against the scalar evaluation it replaced, kept as the test oracle:
# fixed tables of awkward statistics and lengths, and generated slices
# mixing central, tail and awkward t in any order. DASH_PVALUE_CASES bounds
# the generated slices (default 64; raise it locally for a deeper search).
DASH_PVALUE_CASES=4096 cargo test -p dash-stats --release

echo "== benchmark smoke (benchmark/ builds against this tree and every operation passes)"
# benchmark/ is its own package outside the workspace, so nothing above
# compiles it: a signature drift against benchmark/src/adapter.rs would
# otherwise surface only in the benchmark pipeline. Tiny shapes, ~10 s
# after the build; exits non-zero on any failed operation.
#
# The smoke's supervised TCP scans also gate teardown: with a timer back
# under `Drop` none can finish below 0.05 s + connect (the heartbeat step
# alone; 0.061 / 0.137 s sampled before the close record), and as events
# they take 0.004-0.02 s, so 0.045 s cannot pass by luck or regress
# silently.
SMOKE_OUT=$(bash benchmark/run.sh --smoke)
grep -E '^total:' <<<"$SMOKE_OUT"
grep -E '^tcp_scan_s = ' <<<"$SMOKE_OUT" | awk '
    { print "  " $0; n++; if ($3 + 0 >= 0.045) slow++ }
    END {
        if (n < 3) { print "error: expected a tcp_scan_s line per smoke workload, saw " n + 0; exit 1 }
        if (slow) { print "error: " slow " smoke tcp_scan_s >= 0.045 s: teardown is waiting on a timer again"; exit 1 }
    }'

echo "== trace smoke (scan --trace-out, then schema/invariant validation)"
# A tiny end-to-end observability round trip: simulate a 2-party study,
# run a blocked secure scan with tracing on, and validate the emitted
# dash-trace/1 JSON (schema, counter conservation, span monotonicity).
TRACE_TMP=$(mktemp -d)
trap 'rm -rf "$TRACE_TMP"' EXIT
./target/release/dash simulate --out "$TRACE_TMP" --samples 40,50 \
    --variants 12 --causal 3 --covariates 2 --seed 7
./target/release/dash secure-scan --dir "$TRACE_TMP" --block-size 4 \
    --audit false --metrics true --trace-out "$TRACE_TMP/trace.json" \
    --out "$TRACE_TMP/ref.tsv"
./target/release/dash trace check "$TRACE_TMP/trace.json"
# Counters are read as exact integers: a hand-made two-party trace whose
# byte counters pass 2^53 and differ by one must fail conservation (an
# f64 reading rounds both to 2^53 and passes it).
trace_row() { # party, bytes_sent, bytes_received
    printf '{"party": %s, "bytes_sent": %s, "bytes_received": %s, "messages_sent": 1, "messages_received": 1, "retries": 0, "timeouts": 0, "triples_consumed": 0, "opened_scalars": 0, "heartbeats_sent": 0, "reconnects": 0, "resumes": 0}' "$@"
}
printf '{"schema": "dash-trace/1", "n_parties": 2, "dropped_spans": 0, "counters": [%s, %s], "spans": []}\n' \
    "$(trace_row 0 9007199254740993 0)" "$(trace_row 1 0 9007199254740992)" \
    > "$TRACE_TMP/past-2-53.json"
set +e
PAST_253_ERR=$(./target/release/dash trace check "$TRACE_TMP/past-2-53.json" 2>&1 >/dev/null)
PAST_253=$?
set -e
PAST_253_WANT="trace invalid: byte conservation violated: 9007199254740993 sent vs 9007199254740992 received"
if [ "$PAST_253" != 1 ] || [ "$PAST_253_ERR" != "$PAST_253_WANT" ]; then
    echo "error: a trace one byte apart past 2^53 must exit 1 with exactly" >&2
    echo "  $PAST_253_WANT" >&2
    echo "exited $PAST_253 with:" >&2
    echo "$PAST_253_ERR" >&2
    exit 1
fi
echo "$PAST_253_ERR (exit 1, as required)"

echo "== multi-process TCP smoke (3 real party processes over loopback)"
# The same workload again, but as three OS processes talking real TCP:
# results must be byte-identical to the in-process reference above, each
# party must exit 0 within its watchdog, and party 0's emitted trace must
# pass the same schema/conservation validation as the in-process one.
# The reference workload above is 2-party (party0/ and party1/), so the
# TCP run is two processes on a randomized loopback port pair.
PORT_BASE=$((20000 + RANDOM % 20000))
PEERS2="127.0.0.1:$PORT_BASE,127.0.0.1:$((PORT_BASE + 1))"
TCP_PIDS=()
for i in 0 1; do
    timeout 120 ./target/release/dash party --id "$i" --peers "$PEERS2" \
        --dir "$TRACE_TMP/party$i" --block-size 4 --audit false \
        --out "$TRACE_TMP/tcp$i.tsv" \
        $([ "$i" = 0 ] && echo "--trace-out $TRACE_TMP/tcp-trace.json") \
        > "$TRACE_TMP/party$i.log" 2>&1 &
    TCP_PIDS+=($!)
done
for pid in "${TCP_PIDS[@]}"; do
    if ! wait "$pid"; then
        echo "error: a dash party process failed; logs follow" >&2
        cat "$TRACE_TMP"/party*.log >&2
        exit 1
    fi
done
for i in 0 1; do
    cmp "$TRACE_TMP/ref.tsv" "$TRACE_TMP/tcp$i.tsv" || {
        echo "error: party $i TCP results differ from in-process reference" >&2
        exit 1
    }
done
./target/release/dash trace check "$TRACE_TMP/tcp-trace.json"

echo "== disclosure audit is deterministic (two secure-scan runs, byte-compare)"
# The in-process parties record into one shared log in thread-arrival
# order; the printed audit is sorted by source party (aggregates first,
# each party's entries in its own protocol order), so two runs' stdout
# must be byte-identical.
AUDIT_TMP="$TRACE_TMP/audit"
./target/release/dash simulate --out "$AUDIT_TMP" --samples 20,25,15 \
    --variants 12 --causal 3 --covariates 2 --seed 5 > /dev/null
for run in 1 2; do
    ./target/release/dash secure-scan --dir "$AUDIT_TMP" --block-size 4 \
        --audit true > "$AUDIT_TMP/stdout$run.txt"
done
cmp "$AUDIT_TMP/stdout1.txt" "$AUDIT_TMP/stdout2.txt" || {
    echo "error: two runs printed different disclosure audits" >&2
    exit 1
}

echo "== max-mode multi-process smoke (3 dash party --mode max, byte-compare)"
# The strictest rung as three OS processes: each process runs the whole
# dealer stream itself from the public seed and keeps only its own slice
# (the lone-process dealer path, which no benchmark workload runs). Every
# party's results must be byte-identical to the in-process `--mode max`
# reference, three blocks of Beaver rounds included.
MAX_TMP="$TRACE_TMP/max"
./target/release/dash simulate --out "$MAX_TMP" --samples 20,25,15 \
    --variants 12 --causal 3 --covariates 2 --seed 9 > /dev/null
./target/release/dash secure-scan --dir "$MAX_TMP" --mode max --block-size 5 \
    --audit false --out "$MAX_TMP/ref.tsv" > /dev/null
MAX_BASE=$((20000 + RANDOM % 20000))
PEERS_MAX="127.0.0.1:$MAX_BASE,127.0.0.1:$((MAX_BASE + 1)),127.0.0.1:$((MAX_BASE + 2))"
MAX_PIDS=()
for i in 0 1 2; do
    timeout 120 ./target/release/dash party --id "$i" --peers "$PEERS_MAX" \
        --dir "$MAX_TMP/party$i" --mode max --block-size 5 --audit false \
        --out "$MAX_TMP/res$i.tsv" > "$MAX_TMP/party$i.log" 2>&1 &
    MAX_PIDS+=($!)
done
for pid in "${MAX_PIDS[@]}"; do
    if ! wait "$pid"; then
        echo "error: a dash party --mode max process failed; logs follow" >&2
        cat "$MAX_TMP"/party*.log >&2
        exit 1
    fi
done
for i in 0 1 2; do
    cmp "$MAX_TMP/ref.tsv" "$MAX_TMP/res$i.tsv" || {
        echo "error: party $i --mode max results differ from in-process reference" >&2
        exit 1
    }
done

echo "== crash/resume chaos smoke (mid-stream RST, kill a party, resume, byte-compare)"
# Three real party processes, checkpointing at every block boundary. Party
# 2 dials party 0 through the `dash chaos` proxy, which resets the first
# connection mid-stream (past the 96-byte hello exchange) so supervision
# has to reconnect and replay. Party 2 also kills itself right after block
# 0's checkpoint is durable (the --crash-after-block hook stands in for a
# well-timed kill -9) and is restarted with --resume inside the reconnect
# window. Before the restart a partial row is appended to its results
# file, as a crash between the file's fsync and the checkpoint's rename
# leaves rows the checkpoint does not count; the resume must cut them off.
# All three result files must still be byte-identical to the in-process
# reference — recovery must be invisible in the results.
CHAOS_TMP="$TRACE_TMP/chaos"
./target/release/dash simulate --out "$CHAOS_TMP" --samples 20,25,15 \
    --variants 12 --causal 3 --covariates 2 --seed 5
./target/release/dash secure-scan --dir "$CHAOS_TMP" --block-size 4 \
    --audit false --out "$CHAOS_TMP/ref.tsv"
CHAOS_BASE=$((20000 + RANDOM % 20000))
PEERS3="127.0.0.1:$CHAOS_BASE,127.0.0.1:$((CHAOS_BASE + 1)),127.0.0.1:$((CHAOS_BASE + 2))"
PROXY_ADDR="127.0.0.1:$((CHAOS_BASE + 3))"
# Party 2's view of the mesh routes its party-0 link through the proxy.
PEERS3_PROXIED="$PROXY_ADDR,127.0.0.1:$((CHAOS_BASE + 1)),127.0.0.1:$((CHAOS_BASE + 2))"
./target/release/dash chaos --listen "$PROXY_ADDR" \
    --upstream "127.0.0.1:$CHAOS_BASE" --fault rst-after=200 \
    --policy first-connection > "$CHAOS_TMP/chaos.log" 2>&1 &
CHAOS_PROXY_PID=$!
CHAOS_PIDS=()
for i in 0 1; do
    timeout 180 ./target/release/dash party --id "$i" --peers "$PEERS3" \
        --dir "$CHAOS_TMP/party$i" --block-size 4 --audit false \
        --checkpoint-dir "$CHAOS_TMP/ckpt" --out "$CHAOS_TMP/res$i.tsv" \
        > "$CHAOS_TMP/party$i.log" 2>&1 &
    CHAOS_PIDS+=($!)
done
timeout 180 ./target/release/dash party --id 2 --peers "$PEERS3_PROXIED" \
    --dir "$CHAOS_TMP/party2" --block-size 4 --audit false \
    --checkpoint-dir "$CHAOS_TMP/ckpt" --crash-after-block 0 \
    --out "$CHAOS_TMP/res2.tsv" > "$CHAOS_TMP/party2-crash.log" 2>&1 &
if wait $!; then
    echo "error: party 2 should have died after block 0's checkpoint" >&2
    cat "$CHAOS_TMP/party2-crash.log" >&2
    exit 1
fi
printf '4\t0.125\t0.5' >> "$CHAOS_TMP/res2.tsv"
timeout 180 ./target/release/dash party --id 2 --peers "$PEERS3_PROXIED" \
    --dir "$CHAOS_TMP/party2" --block-size 4 --audit false \
    --checkpoint-dir "$CHAOS_TMP/ckpt" --resume true \
    --out "$CHAOS_TMP/res2.tsv" > "$CHAOS_TMP/party2-resume.log" 2>&1 &
CHAOS_PIDS+=($!)
for pid in "${CHAOS_PIDS[@]}"; do
    if ! wait "$pid"; then
        echo "error: a party in the chaos smoke failed; logs follow" >&2
        cat "$CHAOS_TMP"/party*.log >&2
        exit 1
    fi
done
kill "$CHAOS_PROXY_PID" 2>/dev/null || true
grep -q "resuming from block 1" "$CHAOS_TMP/party2-resume.log" || {
    echo "error: party 2 did not resume from its checkpoint; log follows" >&2
    cat "$CHAOS_TMP/party2-resume.log" >&2
    exit 1
}
for i in 0 1 2; do
    cmp "$CHAOS_TMP/ref.tsv" "$CHAOS_TMP/res$i.tsv" || {
        echo "error: party $i chaos-smoke results differ from reference" >&2
        exit 1
    }
done

echo "== timing-leak smoke (E14, bounded samples, enforced)"
# The dudect harness must see no class split in the R64 arithmetic (add,
# sub, mul, neg, signed encode, the Beaver share combination). The
# bounded sample count keeps CI fast (raise DASH_TIMING_SAMPLES locally
# for a deeper scan); the loosened threshold absorbs shared-runner noise.
# The in-run positive control is reported but not enforced here — a noisy
# host can drown it without invalidating the negatives' machinery.
DASH_TIMING_SAMPLES=2000 DASH_TIMING_THRESHOLD=8 DASH_TIMING_ENFORCE=1 \
    ./target/release/exp14_timing

echo "== docs (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== experiments (run_all: every E-binary)"
cargo run --release -p dash-bench --bin run_all

echo "== non-test lines per crate (scripts/loc.sh)"
scripts/loc.sh

echo "== pub fns with no non-test caller (scripts/unused.sh, two ceilings)"
# The sweep a simplicity PR starts from, by loc.sh's rule for what is
# test code, counted by name and by method. Names shared with another
# item under-report (the safe direction); the method count sees the
# shared names, and unused.sh says what keeps each method it still
# lists. Each count may fall, not rise: a PR that strands a `pub fn`
# gives it a caller, deletes it, or raises the ceiling and says why.
# Names: 7 since the helpers no open item needed went (`norm2`,
# `is_enabled`, `messages_sent_by`, `variance_population`,
# `missing_fraction`). Methods: 10 since `Secret::ct_select` went with
# the constant-time pass whose remedy it was (11 before, since
# `TransientBlock::new` (its fields are pub),
# `FixedPointCodec::encode_ring` and `Normal::new` went; 14 before,
# since the test-only mpsc shorthands `Network::{run_parties,
# endpoints}` became `#[cfg(test)]`; 16 before that; 31 before
# `Welford`, the getters nothing read and the other methods nothing
# called went).
UNUSED_CEILING=7
UNUSED_METHOD_CEILING=10
UNUSED_OUT=$(scripts/unused.sh)
echo "$UNUSED_OUT"
UNUSED_NOW=$(grep -E 'pub fn names have no non-test caller$' <<<"$UNUSED_OUT" | awk '{ print $1 }')
UNUSED_METHODS=$(grep -E 'pub methods have no non-test caller$' <<<"$UNUSED_OUT" | awk '{ print $1 }')
if [ "$UNUSED_NOW" -gt "$UNUSED_CEILING" ]; then
    echo "error: $UNUSED_NOW pub fn names without a non-test caller, ceiling is $UNUSED_CEILING" >&2
    exit 1
fi
if [ "$UNUSED_METHODS" -gt "$UNUSED_METHOD_CEILING" ]; then
    echo "error: $UNUSED_METHODS pub methods without a non-test caller, ceiling is $UNUSED_METHOD_CEILING" >&2
    exit 1
fi

echo "== done"
