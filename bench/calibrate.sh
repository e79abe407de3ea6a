#!/usr/bin/env bash
# Runs every workload once per seed, untraced, for BENCHMARK.json's
# run_seconds (20), and appends each run's result as one JSONL record
# for `sdembench compare`. Seeds run in the outer loop so drift in the
# host spreads over all workloads. From the repository root:
#
#   bash bench/calibrate.sh bench/calibration/A.jsonl 1 2 3 4 5 6 7 8 9 10
set -euo pipefail

out=$1
shift
for seed in "$@"; do
	for w in hot-simulate cold-simulate offline-solve stream-soak; do
		line=$(bash bench/run.sh --workload "$w" --seed "$seed" --seconds 20 --trace 0 | tail -n 1)
		printf '{"workload":"%s","seed":%s,"trace":0,"result":%s}\n' "$w" "$seed" "$line" >>"$out"
	done
done
