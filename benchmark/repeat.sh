#!/usr/bin/env bash
# repeat.sh N [first-seed [workload]] — N runs of every workload (or the one
# named), each with its own seed,
# then per (workload, end-to-end metric): median, quartiles, and the spread
# (Q3 − Q1) ÷ median next to the metric's bound, computed the way the driver
# computes it (Python's statistics.quantiles(values, n=4)).
#
# Run it twice and compare the medians: the second may not be worse than the
# first by more than the bound. Raw result lines go to out/repeat-<stamp>.jsonl,
# the runs' own progress lines to out/repeat-<stamp>.err.
set -euo pipefail
cd "$(dirname "$0")"
runs="${1:?usage: repeat.sh N [first-seed [workload]]}"
first="${2:-1}"
only="${3:-}"
seconds="$(python3 -c 'import json; print(json.load(open("../BENCHMARK.json"))["run_seconds"])')"
cargo build --release --offline --quiet
bin="${CARGO_TARGET_DIR:-target}/release/mips-benchmark"
mkdir -p out
stamp="$(date +%Y%m%d-%H%M%S)"
log="out/repeat-$stamp.jsonl"
for workload in ${only:-$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("../BENCHMARK.json"))["workloads"]))')}; do
  for ((i = 0; i < runs; i++)); do
    seed=$((first + i))
    started=$(date +%s.%N)
    line="$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>>"out/repeat-$stamp.err" | tail -n 1)"
    wall=$(python3 -c "import time; print(round(time.time() - $started, 2))")
    echo "{\"workload\": \"$workload\", \"seed\": $seed, \"wall_s\": $wall, \"result\": $line}" >>"$log"
    echo "$workload seed $seed: ${wall} s" >&2
  done
done
python3 - "$log" <<'PY'
import json, statistics, sys
spec = json.load(open("../BENCHMARK.json"))
rows = [json.loads(line) for line in open(sys.argv[1])]
print(f"{'workload':<12} {'metric':<14} {'unit':>5} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
worst = 0.0
for w in spec["workloads"]:
    mine = [r for r in rows if r["workload"] == w["name"]]
    if not mine:
        continue
    bad = [r["seed"] for r in mine if not r["result"]["correct"]]
    for m in spec["end_to_end"]:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in mine]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med
        third = m["bound"] / 3
        verdict = "steady" if spread <= third else ("within bound" if spread <= m["bound"] else "TOO WIDE")
        if m["name"] == "setup_s":
            verdict += " (spread not judged)"
        else:
            worst = max(worst, spread / m["bound"])
        print(f"{w['name']:<12} {m['name']:<14} {m['unit']:>5} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>7.3f} {m['bound']:>6.2f}  {verdict}")
    walls = [r["wall_s"] for r in mine]
    print(f"{w['name']:<12} wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s; incorrect seeds: {bad or 'none'}")
print(f"worst spread is {worst:.2f} of its bound; raw lines in {sys.argv[1]}")
PY
