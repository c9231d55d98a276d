#!/usr/bin/env bash
# Runs N sets of every workload (default 5), alternating the workload
# order, and prints per metric x workload the set medians, quartiles and
# relative spread against the bound. Extra arguments go to the binary,
# e.g. `benchmark/repeat.sh 10 --workload read-scan-cold --seed 7`.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
sets="${1:-5}"
shift || true
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- --repeat "$sets" "$@"
