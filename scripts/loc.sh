#!/usr/bin/env bash
# Lines of Rust under crates/, counted one way for every PR that quotes them.
#
# Usage: scripts/loc.sh [<rev>]
#
# Per crate and in total, two counts of every `*.rs` file under `crates/`
# that is not in a `tests/` directory:
#
#   raw       every line of those files
#   filtered  non-test, non-comment, non-blank lines: the file up to its
#             `#[cfg(test)] mod …` (a column-0 `#[cfg(test)]` directly
#             followed by a `mod` line, taken to run to the end of the
#             file, as every test module in this repository does), minus
#             blank lines and lines that hold only a `//` comment (doc
#             comments included; `/* … */` blocks are not recognised)
#
# The working tree is counted as it stands (tracked and untracked files,
# ignored ones excepted). With <rev>, the same two counts are taken of that
# revision through `git show` and printed beside the tree's with the
# difference — "net lines under crates/ since <rev>" is the last line's
# filtered delta.
set -euo pipefail

cd "$(dirname "$0")/.."
rev="${1:-}"
[ -z "$rev" ] || git rev-parse --verify --quiet "$rev^{commit}" > /dev/null \
    || { echo "error: unknown revision $rev" >&2; exit 2; }

# Prints "<crate> <raw> <filtered>" per file of one side: the working tree
# when $1 is empty, else that revision.
count() {
    local side="$1" f
    if [ -z "$side" ]; then
        git ls-files --cached --others --exclude-standard -- 'crates/*.rs'
    else
        git ls-tree -r --name-only "$side" -- crates | grep '\.rs$'
    fi | grep -v '/tests/' | while read -r f; do
        if [ -z "$side" ]; then
            [ -f "$f" ] || continue # deleted in the tree, still in the index
            cat "$f"
        else
            git show "$side:$f"
        fi | awk -v crate="$(echo "$f" | cut -d/ -f2)" '
            { raw++ }
            done_ { next }
            pending { pending = 0; if ($0 ~ /^(pub(\([a-z]+\))? )?mod /) { done_ = 1; kept -= held; next } }
            /^#\[cfg\(test\)\]/ { pending = 1; held = 1; kept++; next }
            /^[ \t]*$/ || /^[ \t]*\/\// { next }
            { kept++ }
            END { print crate, raw + 0, kept + 0 }'
    done
}

{
    count "" | sed 's/^/tree /'
    [ -z "$rev" ] || count "$rev" | sed 's/^/rev /'
} | awk -v rev="$rev" '
    { raw[$1, $2] += $3; kept[$1, $2] += $4; crates[$2] = 1
      raw[$1, "total"] += $3; kept[$1, "total"] += $4 }
    function row(order, c) {
        if (rev == "")
            printf "%d %-14s %8d %9d\n", order, c, raw["tree", c], kept["tree", c]
        else
            printf "%d %-14s %8d %9d   %8d %9d   %+7d %+9d\n", order, c,
                raw["rev", c], kept["rev", c], raw["tree", c], kept["tree", c],
                raw["tree", c] - raw["rev", c], kept["tree", c] - kept["rev", c]
    }
    END {
        if (rev == "")
            printf "0 %-14s %8s %9s\n", "crate", "raw", "filtered"
        else
            printf "0 %-14s %8s %9s   %8s %9s   %7s %9s\n", "crate",
                "raw@" substr(rev, 1, 7), "filtered", "raw", "filtered", "d.raw", "d.filtered"
        for (c in crates) row(1, c)
        row(2, "total")
    }' | sort -s -k1,1n -k2,2 | cut -d' ' -f2-
