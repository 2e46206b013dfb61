#!/bin/sh
# Print every end-to-end metric of every workload, by name and with its
# unit, and check every certificate against its golden answer.
#
#     sh perfbench/all.sh [seed]
#
# Each workload runs in its own fresh process.
set -e
cd "$(dirname "$0")/.."
seed=${1:-1}
for w in subpair-lines so-p2-model catalog-battery; do
    python3 perfbench/run.py --workload "$w" --seed "$seed" --seconds 40 \
        --trace 0
done
