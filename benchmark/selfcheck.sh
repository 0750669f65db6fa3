#!/usr/bin/env bash
# Two sets of runs of one build, the way the benchmark's driver makes them:
# RUNS seeds per workload per set, `--trace 0`. Prints, per workload and
# end-to-end metric, both medians, their relative gap in the metric's worse
# direction, and each set's spread (interquartile distance over median), and
# exits non-zero if a gap exceeds the metric's bound in BENCHMARK.json.
#
#   benchmark/selfcheck.sh                 # 2 x 10 runs x 4 workloads, ~40 min
#   RUNS=4 WORKLOADS="commit" benchmark/selfcheck.sh
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS="${RUNS:-10}"
WORKLOADS="${WORKLOADS:-maintain commit read restart}"
OUT="benchmark/out/selfcheck"
mkdir -p "$OUT"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

readarray -t CMD < <(python3 -c '
import json
for part in json.load(open("BENCHMARK.json"))["command"]:
    print(part)')
SECONDS_PER_RUN="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

for set in 1 2; do
  for w in $WORKLOADS; do
    for i in $(seq 1 "$RUNS"); do
      seed=$(( set * 1000 + i ))
      echo "set $set  $w  seed $seed" >&2
      "${CMD[@]}" --workload "$w" --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0 \
        | tail -n 1 > "$OUT/$set-$w-$i.json"
    done
  done
done

python3 - "$OUT" "$RUNS" $WORKLOADS <<'EOF'
import json, statistics, sys

out, runs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
spec = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}

def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

bad = 0
for w in workloads:
    sets = []
    for s in (1, 2):
        results = [json.load(open(f"{out}/{s}-{w}-{i}.json")) for i in range(1, runs + 1)]
        wrong = [r for r in results if not r["correct"] or r["failed"]]
        if wrong:
            print(f"{w}: set {s} has {len(wrong)} incorrect run(s)")
            bad += 1
        sets.append(results)
    print(f"\n{w}")
    print(f"  {'metric':<28}{'median 1':>12}{'median 2':>12}{'gap':>8}{'spread 1':>10}{'spread 2':>10}{'bound':>7}")
    for name, m in spec.items():
        v = [[r["metrics"][name]["value"] for r in results] for results in sets]
        m1, m2 = (statistics.median(x) for x in v)
        worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
        sp = [spread(x) if len(x) > 1 else float("nan") for x in v]
        flag = ""
        if worse > m["bound"]:
            flag = "  GAP EXCEEDS BOUND"
            bad += 1
        elif name != "setup_s" and max(sp) > m["bound"]:
            flag = "  spread exceeds bound"
        print(f"  {name:<28}{m1:>12.4f}{m2:>12.4f}{worse:>8.3f}{sp[0]:>10.3f}{sp[1]:>10.3f}{m['bound']:>7.2f}{flag}")
sys.exit(1 if bad else 0)
EOF
