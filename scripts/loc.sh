#!/bin/sh
# Source lines per workspace crate: the lines of every src/**/*.rs file
# before its first `#[cfg(test)]` (blank lines and comments included, unit
# tests excluded). Size claims in issues, PRs and reviews use this table.
#
#   scripts/loc.sh            per-crate table and total, then the vendored
#                             stand-ins under third_party/ (not in the total)
#   scripts/loc.sh DIR...     the same count over the given directories
#   scripts/loc.sh --files N  the N largest files by the same count
set -eu
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk \
        'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n+0}'
}

if [ "${1:-}" = "--files" ]; then
    find src crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR==1 { if (f) print n, f; f=FILENAME; n=0; t=0 }
        /^#\[cfg\(test\)\]/ { t=1 }
        !t { n++ }
        END { if (f) print n, f }' |
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
