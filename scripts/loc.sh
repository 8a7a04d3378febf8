#!/bin/sh
# Source lines per workspace crate: the lines of every src/**/*.rs file
# before its first `#[cfg(test)]` (blank lines and comments included, unit
# tests excluded). A file whose `mod` declaration sits under `#[cfg(test)]`
# (a test-support module) is all test code and is not counted. Size claims
# in issues, PRs and reviews use this table.
#
#   scripts/loc.sh            per-crate table and total, then the vendored
#                             stand-ins under third_party/ (not in the total)
#   scripts/loc.sh DIR...     the same count over the given directories
#   scripts/loc.sh --files N  the N largest files by the same count
set -eu
cd "$(dirname "$0")/.."

# Prints "<lines> <file>" for every .rs file under the given directories.
per_file() {
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { order[++nf] = FILENAME; gated = 0; tests = 0 }
        # A `mod name;` right under `#[cfg(test)]`: its file is test code.
        gated && match($0, /^[[:space:]]*(pub(\(crate\))? )?mod [A-Za-z0-9_]+;/) {
            name = $0
            sub(/^[[:space:]]*(pub(\(crate\))? )?mod /, "", name)
            sub(/;.*/, "", name)
            dir = FILENAME
            sub(/[^\/]*$/, "", dir)
            base = substr(FILENAME, length(dir) + 1)
            if (base != "lib.rs" && base != "main.rs" && base != "mod.rs") {
                sub(/\.rs$/, "", base)
                dir = dir base "/"
            }
            skip[dir name ".rs"] = 1
            skip[dir name "/mod.rs"] = 1
        }
        { gated = ($0 ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/) }
        /^#\[cfg\(test\)\]/ { tests = 1 }
        !tests { n[FILENAME]++ }
        END {
            for (i = 1; i <= nf; i++) {
                f = order[i]
                if (!(f in skip)) print n[f] + 0, f
            }
        }'
}

count() {
    per_file "$1" | awk '{ s += $1 } END { print s + 0 }'
}

if [ "${1:-}" = "--files" ]; then
    per_file src crates/*/src |
        sort -k1,1nr -k2,2 | head -n "${2:?--files needs a count}" |
        awk '{ printf "%8d  %s\n", $1, $2 }'
    exit
fi

vendored=
if [ "$#" -eq 0 ]; then
    set -- src crates/*/src
    vendored=third_party
fi
total=0
printf '%-24s %8s\n' crate lines
for dir in "$@"; do
    n=$(count "$dir")
    total=$((total + n))
    name=${dir%/src}
    printf '%-24s %8d\n' "${name#crates/}" "$n"
done
printf '%-24s %8d\n' total "$total"
if [ -n "$vendored" ]; then
    printf '%-24s %8d\n' "$vendored" "$(count "$vendored")"
fi
