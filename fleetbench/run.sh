#!/usr/bin/env bash
# Build the dasd daemon (from the repository's workspace) and the
# benchmark harness (its own workspace), then run the harness.
#
#   bash fleetbench/run.sh --workload strip-io --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: target/ at the
# repository root); daemon logs and span files to
# $CARGO_TARGET_DIR/fleetbench-out/.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p das-net --bin dasd >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/fleetbench" --dasd "$target/release/dasd" --out "$target/fleetbench-out" "$@"
