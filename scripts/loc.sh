#!/bin/sh
# Source lines per workspace crate: the lines of every src/**/*.rs file
# before its first `#[cfg(test)]` (blank lines and comments included, unit
# tests excluded). Size claims in issues, PRs and reviews use this table.
#
#   scripts/loc.sh          per-crate table and total, then the vendored
#                           stand-ins under third_party/ (not in the total)
#   scripts/loc.sh DIR...   the same count over the given directories
set -eu
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk \
        'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n+0}'
}

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
