#!/usr/bin/env bash
# Runs the whole benchmark twice on one build and fails if the two sets
# disagree: an end-to-end median pair further apart than its bound, or an
# exact count that moved. Usage: benchmark/check_repeat.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --seed "${1:-1}" --seconds "${2:-10}" --check-repeat
