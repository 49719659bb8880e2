#!/usr/bin/env bash
# Print every metric of every workload: the end-to-end metrics (untraced
# run) and the per-layer metrics (traced run), at the default seeds.
#
#   bash benchmark/run_all.sh [seconds-per-run]
set -euo pipefail
cd "$(dirname "$0")/.."
seconds="${1:-30}"
for workload in paper-healthy faulted-deep chaos-sweep; do
  for trace in 0 1; do
    cargo run --quiet --offline --release --manifest-path benchmark/Cargo.toml -- \
      --workload "$workload" --seconds "$seconds" --trace "$trace"
  done
done
