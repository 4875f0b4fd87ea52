#!/usr/bin/env bash
# Runs paired benchmark runs of two checkouts, alternating which side
# runs first, and writes each run's output under OUT/base and OUT/new
# for perfbench/compare.py.
#
#   bash perfbench/pairs.sh BASE_CHECKOUT NEW_CHECKOUT OUT SEEDS...
#
# Every workload runs once per seed on each side, with the run length
# from BENCHMARK.json.
set -euo pipefail

if [ $# -lt 4 ]; then
	echo "usage: $0 BASE_CHECKOUT NEW_CHECKOUT OUT SEED..." >&2
	exit 2
fi
base="$(cd "$1" && pwd)"
new="$(cd "$2" && pwd)"
out="$3"
shift 3
mkdir -p "$out/base" "$out/new"
out="$(cd "$out" && pwd)"

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
read -r seconds workloads < <(python3 -c '
import json, sys
b = json.load(open(sys.argv[1]))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))
' "$here/../BENCHMARK.json")

run() { # side checkout workload seed
	(cd "$2" && bash perfbench/run.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace 0) \
		>"$out/$1/$3-$4.out" 2>"$out/$1/$3-$4.err"
}

i=0
for seed in "$@"; do
	for w in $workloads; do
		if [ $((i % 2)) -eq 0 ]; then
			run base "$base" "$w" "$seed"
			run new "$new" "$w" "$seed"
		else
			run new "$new" "$w" "$seed"
			run base "$base" "$w" "$seed"
		fi
		i=$((i + 1))
		echo "seed $seed $w done" >&2
	done
done
python3 "$here/compare.py" "$out/base" "$out/new"
