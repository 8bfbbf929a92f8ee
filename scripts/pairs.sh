#!/usr/bin/env bash
# The ROADMAP's gate for a perf (or deletion) PR, written once: alternating
# parent/change runs of the end-to-end benchmark, checked and summarised.
#
# Usage: scripts/pairs.sh <parent-checkout> <workload|all> [pairs=10] [seconds=10] [seed=20070107]
#
#   <parent-checkout>  a second copy of the repository at the parent commit
#                      (git clone / git archive, not this working tree)
#   <workload>         a name from BENCHMARK.json, or `all` for every one
#
# Each side is run through its own `benchmark/run.sh --workload W --seed N
# --seconds S --trace 0` — the documented single-run form, which builds into
# that checkout's own target/ (never two checkouts into one target dir) —
# with CARGO_TARGET_DIR unset so neither side inherits the other's. Pair i
# runs parent first when i is odd and change first when i is even. Every
# run must report `correct: true` and 0 failed, and every run of a workload,
# on both sides, must print the same op-stream hash; the script exits
# non-zero otherwise. Then, per end-to-end metric: each side's median and
# quartiles, change/parent, in how many pairs the change read better, and a
# verdict by the rule of BENCHMARK.json's bounds — `gain` when the change
# wins at least nine tenths of the pairs and the medians differ by more than
# the parent's interquartile distance, `WORSE` when its median is worse than
# the parent's by more than the metric's bound. Then, per op kind, the p50
# every round prints (`#   agg ×150 p50 452.1 us, …`): each run's median
# over its rounds, summarised per side the same way, so a gain can be put
# down to the kinds that moved. A run that exits non-zero does not stop
# the others: it is recorded (side, pair, workload, exit code, log), every
# workload whose runs all completed is still summarised, each failed run
# is printed as a `FAILED RUN` line instead of its workload's summary, and
# the script exits non-zero. Whole-run logs are kept in the directory
# printed at the end.
set -euo pipefail

[ $# -ge 2 ] || { sed -n '2,32p' "$0" >&2; exit 2; }
change="$(cd "$(dirname "$0")/.." && pwd)"
parent="$(cd "$1" && pwd)"
workload="$2"
pairs="${3:-10}"
seconds="${4:-10}"
seed="${5:-20070107}"
[ "$parent" != "$change" ] || { echo "error: the parent checkout is this working tree" >&2; exit 2; }
unset CARGO_TARGET_DIR

if [ "$workload" = all ]; then
    workloads="$(python3 -c 'import json, sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$change/BENCHMARK.json")"
else
    workloads="$workload"
fi
logs="$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")"
failed="$logs/failed-runs"
: > "$failed"

run() { # side checkout workload pair
    local log="$logs/$3.$4.$1.log" code=0
    "$2/benchmark/run.sh" --workload "$3" --seed "$seed" --seconds "$seconds" --trace 0 \
        > "$log" || code=$?
    if [ "$code" -ne 0 ]; then
        echo "$1 $4 $3 $code $log" >> "$failed"
        echo "# FAILED RUN: $3 pair $4 $1 exited $code, log $log" >&2
    fi
}

for w in $workloads; do
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then
            run parent "$parent" "$w" "$i"; run change "$change" "$w" "$i"
        else
            run change "$change" "$w" "$i"; run parent "$parent" "$w" "$i"
        fi
        echo "# $w pair $i/$pairs done" >&2
    done
done

python3 - "$change/BENCHMARK.json" "$logs" "$failed" "$pairs" "$seed" "$seconds" $workloads <<'EOF'
import json, re, statistics, sys

definition, logs, failed, pairs, seed, seconds, *workloads = sys.argv[1:]
pairs = int(pairs)
metrics = json.load(open(definition))["end_to_end"]
# workload -> the (side, pair, exit code, log) of each run that exited non-zero
failures = {}
for line in open(failed):
    side, pair, workload, code, log = line.split(maxsplit=4)
    failures.setdefault(workload, []).append((side, pair, code, log.strip()))
ok = not failures
# (workload, side) -> one {op kind: median per-round p50} per run
kinds = {(w, side): [] for w in workloads for side in ("parent", "change")}

def read(workload, pair, side):
    global ok
    lines = open(f"{logs}/{workload}.{pair}.{side}.log").read().splitlines()
    hashes = [l.split()[4].rstrip(",") for l in lines if l.startswith("# op stream hash")]
    result = json.loads(lines[-1])
    # `#   agg ×150 p50 452.1 us, filter ×150 p50 135.1 us, … | peak RSS …`
    rounds = {}
    for l in lines:
        if l.startswith("#   "):
            for kind, p50 in re.findall(r"(\w+) ×\d+ p50 ([\d.]+) us", l.split("|")[0]):
                rounds.setdefault(kind, []).append(float(p50))
    kinds[(workload, side)].append({k: statistics.median(v) for k, v in rounds.items()})
    if result["correct"] is not True or result["failed"] != 0 or not hashes:
        print(f"FAILED CHECK: {workload} pair {pair} {side}: correct={result['correct']} "
              f"failed={result['failed']} hash={hashes[:1]}")
        ok = False
    return hashes[0] if hashes else None, {k: v["value"] for k, v in result["metrics"].items()}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

def summarise(name, p, c, lower=True):
    """One row: each side's median [q1, q3], change/parent, pairs won."""
    (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    ratio = cm / pm if pm else float("nan")
    print(f"{name:<15} {pm:>14.4g} [{p1:>8.4g}, {p3:>8.4g}] {cm:>14.4g} [{c1:>8.4g}, {c3:>8.4g}] {ratio:>6.3f} {wins:>4}/{len(p):<2}", end="")
    return (p1, pm, p3), cm, wins

for w in workloads:
    if w in failures:
        print(f"\n## {w}: not summarised")
        for side, pair, code, log in failures[w]:
            print(f"FAILED RUN: {w} pair {pair} {side} exited {code}, log {log}")
        continue
    runs = {side: [read(w, i, side) for i in range(1, pairs + 1)] for side in ("parent", "change")}
    hashes = {h for side in runs.values() for h, _ in side}
    if len(hashes) != 1:
        print(f"FAILED CHECK: {w}: op-stream hashes differ: {sorted(map(str, hashes))}")
        ok = False
    print(f"\n## {w}: {pairs} alternating pairs, seed {seed}, {seconds} s, op-stream hash {'/'.join(sorted(map(str, hashes)))}")
    print(f"{'metric':<15} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36} {'ratio':>6} {'better':>7}  verdict")
    for m in metrics:
        name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
        p = [r[name] for _, r in runs["parent"] if name in r]
        c = [r[name] for _, r in runs["change"] if name in r]
        if len(p) != pairs or len(c) != pairs:
            continue
        (p1, pm, p3), cm, wins = summarise(name, p, c, lower)
        losses = sum((b > a) if lower else (b < a) for a, b in zip(p, c))
        better_by = (pm - cm) if lower else (cm - pm)
        verdict = "-"
        if wins >= 0.9 * pairs and better_by > (p3 - p1):
            verdict = "gain"
        elif pm and -better_by / abs(pm) > bound:
            verdict = f"WORSE (bound {bound:.0%})"
        elif losses >= 0.9 * pairs and -better_by > (p3 - p1):
            verdict = "worse, inside its bound"
        print(f"  {verdict}")
    names = sorted({k for side in ("parent", "change") for run in kinds[(w, side)] for k in run})
    if names:
        print("per-kind p50, us (each run's median over its rounds)")
        for k in names:
            p = [run[k] for run in kinds[(w, "parent")] if k in run]
            c = [run[k] for run in kinds[(w, "change")] if k in run]
            if len(p) == pairs and len(c) == pairs:
                summarise(k, p, c)
                print()

print(f"\nlogs: {logs}")
sys.exit(0 if ok else 1)
EOF
