#!/bin/sh
# Run every workload once, untraced then traced, and print each run's result
# line (every metric by name and unit, and whether the outputs checked out).
#   sh perfbench/all.sh [seed] [seconds]
set -e
cd "$(dirname "$0")/.."
for workload in fixture_run scale_run forecast_long; do
    for trace in 0 1; do
        printf '%s trace=%s: ' "$workload" "$trace"
        python3 perfbench/run.py --workload "$workload" --seed "${1:-1}" --seconds "${2:-35}" --trace "$trace" | tail -n 1
    done
done
