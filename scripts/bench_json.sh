#!/usr/bin/env bash
# Run every bench target and write their medians to a JSON file.
#
# Usage: scripts/bench_json.sh [OUT [TARGET...]]   (or OUT=path scripts/bench_json.sh)
#
# Sweeps every [[bench]] target declared in crates/bench/Cargo.toml (so a
# new bench is picked up without editing this script), or only the TARGETs
# named after OUT, pulls the median time out of every "time: [lo med hi]"
# line, and writes OUT — by default
# the next free BENCH_<n>.json in the repo root — with one entry per bench,
# all times normalised to nanoseconds, stamped with the commit and host the
# numbers were taken on. Targets that produced no median are listed under
# "unmeasured" (and on stderr). The file is the durable record of a bench run;
# regenerate it on a quiet machine when the numbers need refreshing.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-${OUT:-}}"
if [ $# -gt 0 ]; then shift; fi
if [ -z "$out" ]; then
    last="$(ls "$repo_root" | sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$/\1/p' | sort -n | tail -1)"
    out="$repo_root/BENCH_$(( ${last:-0} + 1 )).json"
fi
log="$(mktemp)"
trap 'rm -f "$log"' EXIT

cd "$repo_root"
benches="$(awk '/^\[\[bench\]\]/ { want = 1; next }
                want && /^name = / { gsub(/"/, "", $3); print $3; want = 0 }' \
           crates/bench/Cargo.toml)"
if [ $# -gt 0 ]; then
    for bench in "$@"; do
        printf '%s\n' $benches | grep -qx "$bench" || { echo "error: no bench target $bench" >&2; exit 2; }
    done
    benches="$*"
fi
for bench in $benches; do
    echo "== cargo bench -p bench --bench $bench ==" >&2
    # Tag every output line with its bench target so the parser can
    # namespace the medians: two targets may legitimately measure the
    # same function name (relstore_ops and obs_overhead both time
    # prepared_point_select), and JSON keys must be unique.
    cargo bench -p bench --bench "$bench" 2>&1 | sed "s|^|$bench\t|" | tee -a "$log" >&2
done

# Criterion prints, for each bench:
#   <name>                 time:   [410.2 ns 440.0 ns 471.3 ns]
# possibly with the name on its own line when it is long. Walk the log,
# remember the last non-time line as the pending name, and emit
# name + median (converted to ns) for every time line.
awk -F'\t' '
    function to_ns(v, unit) {
        if (unit == "ps") return v / 1000.0
        if (unit == "ns") return v
        if (unit == "us" || unit == "\xc2\xb5s") return v * 1000.0
        if (unit == "ms") return v * 1000000.0
        if (unit == "s")  return v * 1000000000.0
        return -1
    }
    NF >= 2 && $2 ~ /time:/ {
        # The bench name is everything before "time:" if present on the
        # same line, else the last line we saw; prefixed with the bench
        # target so medians are namespaced.
        bench = $1
        name = $2
        sub(/[[:space:]]*time:.*/, "", name)
        gsub(/^[[:space:]]+|[[:space:]]+$/, "", name)
        if (name == "") name = pending
        # Extract "[lo u med u hi u]".
        line = $2
        sub(/.*\[/, "", line)
        sub(/\].*/, "", line)
        n = split(line, f, /[[:space:]]+/)
        if (n >= 4 && name != "") {
            ns = to_ns(f[3] + 0, f[4])
            if (ns >= 0) printf "%s/%s\t%.1f\n", bench, name, ns
        }
        next
    }
    NF >= 2 && $2 ~ /^[A-Za-z_][A-Za-z0-9_\/.-]*([[:space:]]|$)/ {
        pending = $2
        sub(/[[:space:]].*/, "", pending)
    }
' "$log" > "$log.medians"

if ! [ -s "$log.medians" ]; then
    echo "error: no criterion time lines found in bench output" >&2
    exit 1
fi

# A target that printed no criterion time line measured nothing: name it
# here and in the record, so a print-only bench is visible the day it lands.
unmeasured=""
for bench in $benches; do
    if ! grep -q "^$bench/" "$log.medians"; then
        echo "warning: bench target $bench produced no median" >&2
        unmeasured="$unmeasured $bench"
    fi
done

{
    echo '{'
    echo '  "generated_by": "scripts/bench_json.sh",'
    # "+dirty": the numbers are of uncommitted changes on top of that commit.
    printf '  "commit": "%s%s",\n' "$(git -C "$repo_root" rev-parse HEAD 2>/dev/null || echo unknown)" \
        "$(git -C "$repo_root" diff --quiet HEAD 2>/dev/null || echo +dirty)"
    printf '  "host": {"nproc": %s, "kernel": "%s"},\n' "$(nproc)" "$(uname -sr)"
    printf '  "benches": [%s],\n' "$(printf '%s\n' $benches | sed 's/.*/"&"/' | paste -sd, -)"
    printf '  "unmeasured": [%s],\n' "$(printf '%s\n' $unmeasured | sed '/^$/d; s/.*/"&"/' | paste -sd, -)"
    echo '  "unit": "ns",'
    echo '  "medians": {'
    total=$(wc -l < "$log.medians")
    i=0
    while IFS=$'\t' read -r name median; do
        i=$((i + 1))
        comma=','
        [ "$i" -eq "$total" ] && comma=''
        printf '    "%s": %s%s\n' "$name" "$median" "$comma"
    done < "$log.medians"
    echo '  }'
    echo '}'
} > "$out"
rm -f "$log.medians"

echo "wrote $out" >&2
