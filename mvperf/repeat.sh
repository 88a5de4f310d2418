#!/usr/bin/env bash
# Runs the benchmark once per seed 1..RUNS on each named workload (the
# two BENCHMARK.json lists by default) and prints, per workload and
# metric, the median, the quartiles and the quartile spread as a share
# of the median.
#
#	bash mvperf/repeat.sh RUNS TRACE [WORKLOAD...]
#
# Run length comes from MVPERF_SECONDS (default 45). The result lines
# are kept in .bench_build/repeat/<workload>-t<trace>.jsonl.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
runs=${1:-10}
trace=${2:-0}
shift $(($# < 2 ? $# : 2))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(hot_mix churn_mix)
fi
out="$root/.bench_build/repeat"
mkdir -p "$out"
files=()
for wl in "${workloads[@]}"; do
	f="$out/$wl-t$trace.jsonl"
	: >"$f"
	for seed in $(seq 1 "$runs"); do
		bash "$here/run.sh" --workload "$wl" --seed "$seed" --seconds "${MVPERF_SECONDS:-45}" --trace "$trace" | tail -n 1 >>"$f"
	done
	files+=("$f")
done
python3 - "${files[@]}" <<'EOF'
import json, statistics, sys
for path in sys.argv[1:]:
    rows = [json.loads(line) for line in open(path) if line.strip()]
    print(f"{path}: {len(rows)} runs, all correct: {all(r['correct'] for r in rows)}")
    for name in sorted(rows[0]["metrics"]):
        vals = [r["metrics"][name]["value"] for r in rows]
        unit = rows[0]["metrics"][name]["unit"]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:36s} {med:14.6g} {unit:11s} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:6.3f}")
EOF
