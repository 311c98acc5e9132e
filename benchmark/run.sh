#!/bin/bash
# A/A mode: the acceptance tool for the benchmark itself, and the thing to
# run before trusting any later reading.
#
#   benchmark/run.sh [N]      (default 5)
#
# Builds once, then runs every workload N times as set A and N times as set
# B, alternating which side goes first, both sides on the same code and the
# same seeds. Prints each side's median and quartiles per end-to-end metric
# and exits non-zero if any pair of medians differs by more than the
# metric's bound in BENCHMARK.json. Takes about N x 3.5 minutes.
set -euo pipefail
cd "$(dirname "$0")/.."
n=${1:-5}
seconds=$(grep -o '"run_seconds": *[0-9]*' BENCHMARK.json | grep -o '[0-9]*$')
workloads=$(tr -d '\n' < BENCHMARK.json | grep -o '"name": *"[^"]*", *"why"' | sed 's/"name": *"\([^"]*\)".*/\1/')

out=benchmark/out
mkdir -p "$out"
: > "$out/aa-A.jsonl"
: > "$out/aa-B.jsonl"
for w in $workloads; do
	for i in $(seq 1 "$n"); do
		if [ $((i % 2)) -eq 1 ]; then order="A B"; else order="B A"; fi
		for side in $order; do
			echo "run.sh: $w run $i side $side" >&2
			line=$(bash benchmark/bench.sh --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 | tail -n 1)
			echo "{\"workload\":\"$w\",\"result\":$line}" >> "$out/aa-$side.jsonl"
		done
	done
done
.bench_build/bench -compare "$out/aa-A.jsonl,$out/aa-B.jsonl"
