#!/usr/bin/env bash
# The repo benchmark, one command: builds this package (offline, release,
# its own Cargo.lock) and runs the five workloads, each pinned to one CPU
# in a process of its own. Prints every end-to-end metric by name and unit,
# writes out/results.json, exits non-zero if any check fails.
#
#   run.sh [--seed N] [--workload NAME] [--trace] [--selfcheck]
#
# The driver's spelling is accepted too (--seconds S, --trace 0|1); given
# one --workload, the last line of standard output is its JSON object.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

build() { # <target dir> [cargo flags...]
    cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" \
        --target-dir "$@" >&2
}

# The second build compiles every probe out; a traced pipeline_matmul run
# compares the two for probe.overhead_pct. Both are built up front so that
# only the first run in a checkout ever waits for the compiler.
build "$target"
build "$target/noprobe" --no-default-features

exec "$target/release/benchmark" --out "$here/out" \
    --noprobe-bin "$target/noprobe/release/benchmark" "$@"
