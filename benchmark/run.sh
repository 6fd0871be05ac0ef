#!/usr/bin/env bash
# Builds the benchmark (and the real vrr-server) from source, then runs
# vrr-loadgen with the given arguments. Run from the repository root:
#
#   benchmark/run.sh [--seed N] [--quick]          the whole suite
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh --manifest                    prints BENCHMARK.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to where cargo is started, so
# cargo and the path to its output both use the caller's directory.
target="${CARGO_TARGET_DIR:-$here/target}"
CARGO_NET_OFFLINE=true cargo build --release --quiet \
    --manifest-path "$here/Cargo.toml" \
    -p vrr-loadgen -p vrr-net --bin vrr-loadgen --bin vrr-server >&2
exec "$target/release/vrr-loadgen" \
    --server-bin "$target/release/vrr-server" --out-dir "$here/out" "$@"
