#!/usr/bin/env bash
# Builds `dash` and the benchmark from source, then runs the benchmark.
# Arguments are passed through; see README.md or `run.sh --help`.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# A relative CARGO_TARGET_DIR is relative to where the caller stands.
if [[ -n "${CARGO_TARGET_DIR:-}" && "$CARGO_TARGET_DIR" != /* ]]; then
    export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
fi
dash_target="${CARGO_TARGET_DIR:-$root/target}"
bench_target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr: stdout carries the metrics and ends with
# the result line.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p dash-cli >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

export DASH_BIN="$dash_target/release/dash"
export DASH_BENCH_DIR="$here"
exec "$bench_target/release/dash-benchmark" "$@"
