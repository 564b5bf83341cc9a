#!/usr/bin/env bash
# Full verification sweep: build, tests, docs, experiments.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (all targets)"
cargo build --workspace --all-targets --release

echo "== lint (clippy, warnings are errors)"
# indexing_slicing stays advisory at the clippy layer: dash-analyze below
# denies direct indexing in the secure scope, where it matters; a blanket
# clippy error would only force blanket module allows in the non-secure
# crates.
cargo clippy --workspace --all-targets --release -- -D warnings -A clippy::indexing-slicing

echo "== static analysis (dash-analyze: token lints, cross-function taint, constant-time)"
# Any finding fails the build; the only suppression is an inline pragma
# with a written reason. Covers the single-token lints plus the call-graph
# taint pass: any path from a Secret-producing function to a formatter
# that never goes through an audited open (open_via/open_local). The set
# includes the constant-time lint: data-dependent branches, comparisons,
# `%`/`/`, and table lookups on share material in the mpc arithmetic
# modules.
./target/release/dash-analyze

echo "== analyzer runtime budget (E15)"
# The gate runs uncached on every sweep, so its own runtime is pinned:
# E15 asserts the median full-workspace analysis stays under 1.5 s.
./target/release/exp15_analyze

echo "== format"
cargo fmt --all --check

echo "== tests"
cargo test --workspace --release

echo "== block-size invariance property (bounded case count)"
# The secure scan must give the same bits for every block size ('off' is
# one block of M); DASH_BLOCKED_CASES bounds the randomized sweep so CI
# stays fast (raise it locally for a deeper search). The run also
# exercises the debug assertion that per-block traffic counters partition
# the total.
DASH_BLOCKED_CASES=16 cargo test -p dash-core --test blocked_secure

echo "== link machine: every seeded schedule delivers exactly once or ends in one verdict"
# Two pure `Link` machines joined by in-memory queues under seeded
# send / cut / reconnect / checkpoint / restart schedules (no sockets, no
# threads, no clock): every frame arrives exactly once and in order, or
# the run ends in PeerCrashed / ResumeMismatch for a stated reason.
# DASH_LINK_SCHEDULES bounds the case count (default 1024, ~10 ms; raise
# it locally for a deeper search).
DASH_LINK_SCHEDULES=4096 cargo test -p dash-mpc --release --lib link::tests

echo "== TSV reader: bit-equal to the line-based reference or the same structured error"
# The byte-level reader (gwas/src/io.rs) against the lines()/split/trim/
# parse reader it replaced, kept as the test oracle: generated tables
# (every number spelling on and off the exact cell path, CRLF, blank
# lines, one defect per table) read with 1-byte to 1-MiB chunks give the
# same matrix bit for bit or the same error with the same line, column
# and token; the exact path equals str::parse on 2e5 tokens and declines
# past its limits; arbitrary bytes never panic. DASH_TSV_CASES bounds the
# generated tables (default 256; raise it locally for a deeper search).
DASH_TSV_CASES=2048 cargo test -p dash-gwas --release --lib io::tests

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
./target/release/dash-analyze --validate-trace "$TRACE_TMP/trace.json"

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
./target/release/dash-analyze --validate-trace "$TRACE_TMP/tcp-trace.json"

echo "== crash/resume chaos smoke (mid-stream RST, kill a party, resume, byte-compare)"
# Three real party processes, checkpointing at every block boundary. Party
# 2 dials party 0 through the `dash chaos` proxy, which resets the first
# connection mid-stream (past the 96-byte hello exchange) so supervision
# has to reconnect and replay. Party 2 also kills itself right after block
# 0's checkpoint is durable (the --crash-after-block hook stands in for a
# well-timed kill -9) and is restarted with --resume inside the reconnect
# window. All three result files must still be byte-identical to the
# in-process reference — recovery must be invisible in the results.
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
# The dudect harness must see no class split in the F61 arithmetic. The
# bounded sample count keeps CI fast (raise DASH_TIMING_SAMPLES locally
# for a deeper scan); the loosened threshold absorbs shared-runner noise.
# The in-run positive control is reported but not enforced here — a noisy
# host can drown it without invalidating the negatives' machinery.
DASH_TIMING_SAMPLES=2000 DASH_TIMING_THRESHOLD=8 DASH_TIMING_ENFORCE=1 \
    ./target/release/exp14_timing

echo "== docs (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== experiments (E1..E15)"
cargo run --release -p dash-bench --bin run_all

echo "== non-test lines per crate (scripts/loc.sh)"
scripts/loc.sh

echo "== pub fns with no non-test caller (scripts/unused.sh, ceiling)"
# The sweep a simplicity PR starts from, by loc.sh's rule for what is
# test code. Names shared with another item under-report (the safe
# direction); the test-side inverse `decode_field` and `PartyCtx::rng_mut`
# are listed on purpose. The count may fall, not rise: a PR that strands a
# `pub fn` gives it a caller, deletes it, or raises the ceiling and says
# why. 14 since PR 21 (17 before it: `share::reconstruct_field{,_iter}`
# and `Secret::zip_with` went).
UNUSED_CEILING=14
UNUSED_OUT=$(scripts/unused.sh)
echo "$UNUSED_OUT"
UNUSED_NOW=$(tail -n 1 <<<"$UNUSED_OUT" | awk '{ print $1 }')
if [ "$UNUSED_NOW" -gt "$UNUSED_CEILING" ]; then
    echo "error: $UNUSED_NOW pub fn names without a non-test caller, ceiling is $UNUSED_CEILING" >&2
    exit 1
fi

echo "== done"
