#!/usr/bin/env bash
# Builds wrsn's `exp` and `wrsnd` binaries and this benchmark from source,
# then runs the benchmark with the given arguments (see README.md).
#
#   bash crates/bench/examples/perf/run.sh --workload suite --seed 1 --seconds 15 --trace 0
#   bash crates/bench/examples/perf/run.sh --seed 1 --json target/perf/run.json
#
# Build output goes to stderr, so the last line of stdout is the result.
# Artifacts go to $CARGO_TARGET_DIR (default: `target` at the repository
# root); scratch files and traces go to its `perf/` directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p wrsn-bench --bin exp --bin wrsnd >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/wrsn-perf" "$@"
