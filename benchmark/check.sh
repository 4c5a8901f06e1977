#!/usr/bin/env bash
# Agreement check: runs every workload twice on the same tree and fails
# unless the second set of end-to-end metrics is within the bounds of
# ../BENCHMARK.json of the first, with every sim_* metric and sim_digest
# identical; then runs once at seed 7, a seed not used for sizing, to
# show that the checks and regime guards hold there and the digests
# move. Takes about twelve minutes.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
bin="${CARGO_TARGET_DIR:-target}/release/itask-benchmark"

for set in a b seed7; do
    seed=42
    [ "$set" = seed7 ] && seed=7
    "$bin" all --seed "$seed"
    rm -rf "out/check-$set"
    mkdir -p "out/check-$set"
    mv out/*.json "out/check-$set/"
done

python3 - <<'PY'
import json, sys

spec = json.load(open("../BENCHMARK.json"))
bad = []
for w in (w["name"] for w in spec["workloads"]):
    a, b, other = (json.load(open(f"out/check-{s}/{w}.untraced.json")) for s in ("a", "b", "seed7"))
    for run in (a, b, other):
        if not run["regime_ok"]:
            bad.append(f"{w} seed {run['seed']}: regime guard failed")
    if a["sim_digest"] != b["sim_digest"]:
        bad.append(f"{w}: sim_digest {a['sim_digest']} != {b['sim_digest']}")
    if other["sim_digest"] == a["sim_digest"]:
        bad.append(f"{w}: sim_digest does not depend on the seed")
    for m in spec["end_to_end"]:
        x, y = (r["metrics"][m["name"]]["value"] for r in (a, b))
        if m["name"].startswith("sim_"):
            ok, how = x == y, "exact"
        else:
            ok, how = abs(y - x) <= m["bound"] * x, f"within {m['bound']:.0%}"
        print(f"{w:15s} {m['name']:20s} {x:14.6f} {y:14.6f}  {how:12s} {'ok' if ok else 'FAIL'}")
        if not ok:
            bad.append(f"{w}: {m['name']} {x} vs {y} ({how})")
    for run in (a, b, other):
        layers = json.load(open(f"out/check-{'seed7' if run is other else 'a' if run is a else 'b'}/{w}.traced.json"))["metrics"]
        missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
        if missing:
            bad.append(f"{w}: traced run lacks {missing}")
for line in bad:
    print("FAIL:", line)
sys.exit(1 if bad else 0)
PY
echo "check.sh: the two sets agree"
