#!/usr/bin/env bash
# Builds the benchmark from source (release) and runs it with the given
# arguments. Build output goes to stderr so the result line stays the
# last line of stdout. Run from the repository root:
#   bash perfbench/run.sh --workload fleet_slo --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
# Symbol hashes, and with them the placement of every function, depend on
# the directory the crates are built in. The SLO watchdog's series scan
# (the bulk of fleet_slo's host time) moved by 20-30 % between two builds
# of the same source in different directories; aligning every function
# and loop to a 64 B line makes host time independent of the placement.
export RUSTFLAGS="${RUSTFLAGS:+$RUSTFLAGS }-C llvm-args=-align-all-functions=6 -C llvm-args=-align-loops=64"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2
exec "$target/release/nesc-perfbench" "$@"
