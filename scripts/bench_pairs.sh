#!/usr/bin/env bash
# Alternated parent/change pairs of one repo-benchmark workload, judged
# by the benchmark's own rule for a claimed gain.
#
#   scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS] [SEED]
#
# PARENT_DIR and CHANGE_DIR are two checkouts of this repository (the
# parent made with `git clone` or `git archive`, never a worktree of the
# directory being measured). Each side's `benchmark/` is built once, into
# that checkout's own `benchmark/target`, before any timing starts, so
# nothing compiles while a run is going; the build goes through
# scripts/bench_build.sh, which puts the tracked `benchmark/Cargo.lock`
# back as it was and warns if anything under the frozen benchmark is
# modified. Then PAIRS (default 10) pairs of untraced runs at the
# benchmark's default run length, each from its own checkout, alternating
# which side goes first. WORKLOAD is one of the names in BENCHMARK.json;
# SEED defaults to 1.
#
# For every end-to-end metric it prints each pair, both medians, the
# parent's interquartile range, the change's win count (ties count for
# neither side) and a verdict: "gain" needs wins on at least nine tenths
# of the pairs and medians further apart than the parent's interquartile
# range, "worse" is the same rule the other way round, anything else is
# "no change shown"; fewer than ten pairs get no verdict, as the rule
# asks for ten. Exits non-zero only if a run failed its own
# correctness checks. Every run's full record is kept in
# CHANGE_DIR/benchmark/out/pairs/<workload>.{parent,change}.jsonl.
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '2,27p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seed=${5:-1}

for dir in "$parent" "$change"; do
    "$(dirname "$0")/bench_build.sh" "$dir"
done

out="$change/benchmark/out/pairs"
mkdir -p "$out"
log="$out/$workload"
rm -f "$log.parent.jsonl" "$log.change.jsonl"

run() { # side dir
    (cd "$2" && ./benchmark/target/release/nox-benchmark run \
        --workload "$workload" --seed "$seed" --out "$log.$1.jsonl" >/dev/null)
}

for i in $(seq "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$parent"
        run change "$change"
    else
        run change "$change"
        run parent "$parent"
    fi
    echo "pair $i/$pairs done" >&2
done

python3 - "$log" "$change/BENCHMARK.json" "$workload" "$seed" <<'PY'
import json, statistics, sys

log, bench, workload, seed = sys.argv[1:5]
runs = {"parent": [], "change": []}
failed = 0
for side, records in runs.items():
    for line in open(f"{log}.{side}.jsonl"):
        r = json.loads(line)
        failed += not r["result"]["correct"]
        records.append({n: m["value"] for n, m in r["result"]["metrics"].items()})

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print(f"{workload}, seed {seed}, {len(runs['parent'])} alternated pairs")
for m in json.load(open(bench))["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    p = [r[name] for r in runs["parent"]]
    c = [r[name] for r in runs["change"]]
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    losses = sum((b > a) if lower else (b < a) for a, b in zip(p, c))
    pm, cm = statistics.median(p), statistics.median(c)
    q1, q3 = quartiles(p)
    apart = abs(cm - pm) > q3 - q1
    need = 0.9 * len(p)
    better = (cm < pm) if lower else (cm > pm)
    if len(p) < 10:
        verdict = "no verdict below ten pairs"
    elif wins >= need and apart and better:
        verdict = "gain"
    elif losses >= need and apart and not better:
        verdict = "worse"
    else:
        verdict = "no change shown"
    print(f"\n{name} ({m['unit']}, {m['better']} is better, bound {m['bound']:.0%})")
    print("  pairs parent/change: " + "  ".join(f"{a:.6g}/{b:.6g}" for a, b in zip(p, c)))
    print(f"  parent median {pm:.6g}  quartiles {q1:.6g}..{q3:.6g}  (range {q3 - q1:.3g})")
    cq1, cq3 = quartiles(c)
    print(f"  change median {cm:.6g}  quartiles {cq1:.6g}..{cq3:.6g}  ({cm / pm - 1:+.1%} of parent)")
    print(f"  change wins {wins}/{len(p)}, loses {losses}/{len(p)}: {verdict}")
if failed:
    print(f"\nFAIL: {failed} runs failed their correctness checks")
sys.exit(1 if failed else 0)
PY
