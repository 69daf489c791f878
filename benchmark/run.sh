#!/usr/bin/env bash
# One command for the whole benchmark, from anywhere:
#   benchmark/run.sh --seed 7            every workload, untraced then traced
#   benchmark/run.sh --check             the ten-second smoke against BENCHMARK.json
#   benchmark/run.sh --repeat 10         two sets of ten runs, spread against the bounds
# It builds into the repo's own target/ (already ignored) unless
# CARGO_TARGET_DIR says otherwise.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    --target-dir "${CARGO_TARGET_DIR:-target}" -- run "$@"
