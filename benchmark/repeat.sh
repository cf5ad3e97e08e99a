#!/usr/bin/env bash
# The benchmark's acceptance check: two sets of runs of the same code
# must agree within the benchmark's own bounds.
#
#   benchmark/repeat.sh            # from anywhere inside the repo
#   SEED=7 RUNS=5 benchmark/repeat.sh
#
# Each set is RUNS (default 3) untraced runs of every workload, whose
# per-metric median is the set's value, plus one traced run for the
# exact counts. Exits non-zero if any end-to-end metric is worse in one
# set than in the other by more than its bound in BENCHMARK.json, if any
# exact metric differs at all, or if any run fails its correctness
# checks. About 16 minutes at the defaults.
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${SEED:-1}"
runs="${RUNS:-3}"
out=benchmark/out/repeat
rm -rf "$out"
mkdir -p "$out"

bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --workload all --seed "$seed")
for set in 1 2; do
    for _ in $(seq "$runs"); do
        "${bench[@]}" --out "$out/set$set.jsonl" >"$out/last.log"
    done
    "${bench[@]}" --traced --out "$out/set$set.jsonl" >"$out/last.log"
done

python3 - "$out/set1.jsonl" "$out/set2.jsonl" BENCHMARK.json <<'PY'
import json, statistics, sys

def load(path):
    timed, exact = {}, {}
    for line in open(path):
        r = json.loads(line)
        for name, m in r["result"]["metrics"].items():
            if not r["traced"]:
                timed.setdefault((r["workload"], name), []).append(m["value"])
            elif name in r["exact"]:
                exact[(r["workload"], name)] = m["value"]
    return {k: statistics.median(v) for k, v in timed.items()}, exact

(timed1, exact1), (timed2, exact2) = load(sys.argv[1]), load(sys.argv[2])
bench = json.load(open(sys.argv[3]))
bad = 0
for m in bench["end_to_end"]:
    for w in (w["name"] for w in bench["workloads"]):
        a, b = timed1[(w, m["name"])], timed2[(w, m["name"])]
        # How much worse the worse set is, as a share of the better one.
        worse = max(a, b) / min(a, b) - 1
        ok = worse <= m["bound"]
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {w:15s} {m['name']:13s} {a:12.6g} {b:12.6g} {m['unit']:4s}"
              f" differ {worse:6.1%} (bound {m['bound']:.0%})")
differ = sorted(k for k in exact1 if exact1[k] != exact2.get(k))
for w, name in differ:
    print(f"FAIL {w:15s} {name} {exact1[(w, name)]} != {exact2.get((w, name))}")
print(f"{len(exact1) - len(differ)} of {len(exact1)} exact metrics identical")
sys.exit(1 if bad or differ or len(exact1) != len(exact2) else 0)
PY
