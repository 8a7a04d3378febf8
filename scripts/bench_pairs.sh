#!/bin/sh
# Alternating parent/change benchmark pairs (choosing-metrics section 8):
# the evidence a PR that claims a gain on a BENCHMARK.json workload owes.
#
#   scripts/bench_pairs.sh <parent-ref> <workload>[,<workload>...] [pairs=10] [first-seed=101]
#
# Extracts <parent-ref> (git archive) into a scratch directory under the
# ignored .amrbench_out/, builds amrbench on both sides once, then, for
# each listed workload in turn, runs <pairs> pairs of parent and change
# (this working tree) through BENCHMARK.json's own command line and run
# length — one fresh --seed per pair, shared by its two sides, and the
# side that runs first alternating. Per workload it prints every run,
# then per end-to-end metric each side's median and quartiles, the pairs
# the change won, the choosing-metrics section 8 verdict — a gain holds
# only when the change is better in at least nine tenths of the pairs
# (ties count for neither side) and its median is better than the
# parent's by more than the parent's q3 - q1 — and the regression check:
# the change's median against the parent's, within BENCHMARK.json's
# bound or outside it, and "unresolved" when the parent's own q3 - q1 is
# wider than the bound and the runs do not separate. Then each side's
# median of every workload detail line (wide_resume's phase rates, say),
# and whether every run was correct with one digest. Exits non-zero when
# any workload had a failed run or more than one digest. On exit puts
# back amrbench/Cargo.lock, which building amrbench rewrites, and removes
# its scratch directory; nothing else is written.
set -eu
cd "$(dirname "$0")/.."
[ "$#" -ge 2 ] || {
    echo "usage: $0 <parent-ref> <workload>[,<workload>...] [pairs=10] [first-seed=101]" >&2
    exit 2
}
ref=$1 workloads=$(echo "$2" | tr ',' ' ') pairs=${3:-10} seed0=${4:-101}
unset CARGO_TARGET_DIR # each side builds into its own amrbench/target

cmd=$(awk '/"command"/{f=1; next} f && /\]/{exit} f{gsub(/[",]/, ""); printf "%s ", $1}' BENCHMARK.json)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
metrics=$(awk '/"end_to_end"/{f=1} f && /\]/{exit} f && /"name"/{gsub(/[",]/, ""); print $2}' BENCHMARK.json)
# Field $2 ("better" or "bound") of end-to-end metric $1.
field() {
    awk -v m="$1" -v k="\"$2\"" '/"end_to_end"/{f=1} f && /\]/{exit}
        f && /"name"/{gsub(/[",]/, ""); n = $2}
        f && $1 == k":" && n == m {gsub(/[",]/, ""); print $2; exit}' BENCHMARK.json
}

change=$PWD
scratch=$change/.amrbench_out/bench_pairs.$$
parent=$scratch/parent
trap '[ ! -f "$scratch/Cargo.lock" ] || cp "$scratch/Cargo.lock" "$change/amrbench/Cargo.lock"; rm -rf "$scratch"' EXIT
trap 'exit 130' INT TERM
mkdir -p "$parent"
cp "$change/amrbench/Cargo.lock" "$scratch/Cargo.lock"
git archive "$ref" | tar -x -C "$parent"

# One run: the full output lands in $out, the workload's directory, as <side>.<pair>.
run() {
    (cd "$1" && $cmd --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0) \
        >"$out/$2.$4" || echo "  $2 pair $4: exit status $?" >&2
}
# A metric's value on the driver's (last) line of one run.
value() {
    tail -n 1 "$1" | sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p"
}

echo "building $ref and the working tree ..." >&2
for dir in "$parent" "$change"; do
    (cd "$dir" && $cmd list >/dev/null)
done

# The pairs of one workload, $workload, and their report; returns non-zero
# unless every run was correct with one digest.
report() {
    i=1
    while [ "$i" -le "$pairs" ]; do
        seed=$((seed0 + i - 1))
        if [ $((i % 2)) -eq 1 ]; then
            run "$parent" parent "$seed" "$i"
            run "$change" change "$seed" "$i"
        else
            run "$change" change "$seed" "$i"
            run "$parent" parent "$seed" "$i"
        fi
        for m in $metrics; do
            echo "pair $i seed $seed $m parent $(value "$out/parent.$i" "$m") change $(value "$out/change.$i" "$m")"
        done
        i=$((i + 1))
    done

    echo
    for m in $metrics; do
        for side in parent change; do
            i=1
            while [ "$i" -le "$pairs" ]; do
                value "$out/$side.$i" "$m"
                i=$((i + 1))
            done >"$out/$side.$m"
        done
        # Quartiles by linear interpolation between order statistics; each
        # side's "median q1 q3" also lands in $out/<side>.<metric>.q.
        for side in parent change; do
            sort -g "$out/$side.$m" | awk -v side="$side" -v m="$m" -v qfile="$out/$side.$m.q" '
                { v[NR] = $1 }
                function q(p,  h, lo) { h = (NR - 1) * p; lo = int(h); return lo + 2 > NR ? v[NR] : v[lo + 1] + (h - lo) * (v[lo + 2] - v[lo + 1]) }
                END { printf "%-12s %-6s n=%d median %.6g  q1 %.6g  q3 %.6g  min %.6g  max %.6g\n", m, side, NR, q(0.5), q(0.25), q(0.75), v[1], v[NR]
                      printf "%.17g %.17g %.17g\n", q(0.5), q(0.25), q(0.75) > qfile }'
        done
        paste "$out/parent.$m" "$out/change.$m" | awk -v m="$m" -v better="$(field "$m" better)" \
            -v bound="$(field "$m" bound)" \
            -v parent="$(cat "$out/parent.$m.q")" -v change="$(cat "$out/change.$m.q")" '
            { d = (better == "higher") ? $1 - $2 : $2 - $1
              pv[NR] = $1; cv[NR] = $2 }
            d < 0 { win++ } d > 0 { loss++ }
            END {
                split(parent, p, " "); split(change, c, " ")
                worse = (better == "higher") ? "lower" : "higher"
                gap = (better == "higher") ? c[1] - p[1] : p[1] - c[1]
                iqr = p[3] - p[2]
                ratio = (p[1] == 0) ? 0 : c[1] / p[1]
                need = int((9 * NR + 9) / 10)
                verdict = (win + 0 >= need && gap > iqr) ? "GAIN" : "no gain"
                printf "%-12s change %s in %d of %d pairs, %s in %d\n", m, better, win, NR, worse, loss
                printf "%-12s median change/parent %.4g; better by %.6g against parent q3-q1 %.6g\n", m, ratio, gap, iqr
                printf "%-12s verdict: %s (needs %d of %d pairs and a median gap over q3-q1)\n", m, verdict, need, NR
                # Regression check: the change median against the parent
                # median and the bound in BENCHMARK.json; unresolved when
                # the parent spread exceeds the bound and not every change
                # run beats every parent run.
                limit = (better == "higher") ? 1 - bound : 1 + bound
                inside = (better == "higher") ? ratio >= limit : ratio <= limit
                spread = (p[1] == 0) ? 0 : iqr / p[1]
                apart = 1
                for (i = 1; i <= NR; i++) for (j = 1; j <= NR; j++)
                    if ((better == "higher") ? cv[i] <= pv[j] : cv[i] >= pv[j]) apart = 0
                state = inside ? "within bound" : "OUTSIDE bound"
                if (spread > bound && !apart) state = state ", unresolved: parent q3-q1 is " sprintf("%.0f%%", 100 * spread) " of its median"
                printf "%-12s bound: change/parent %.4g against %.4g: %s\n", m, ratio, limit, state
            }'
    done

    # Every other "<workload> <name> <value> <unit>" line a run prints is a
    # workload detail (wide_resume's execute_cells_per_s, query_ms, ...):
    # each side's median of it over the same runs, so a phase split comes
    # from the runs that carry the verdicts.
    echo
    skip=" $(echo $metrics) fail_share FAILED "
    names=$(cat "$out"/parent.[0-9]* "$out"/change.[0-9]* |
        awk -v w="$workload" '$1 == w && NF >= 4 { print $2 }' | sort -u)
    for d in $names; do
        case $skip in *" $d "*) continue ;; esac
        unit=$(cat "$out"/parent.[0-9]* "$out"/change.[0-9]* |
            awk -v w="$workload" -v d="$d" '$1 == w && $2 == d { print $4; exit }')
        for side in parent change; do
            i=1
            while [ "$i" -le "$pairs" ]; do
                awk -v w="$workload" -v d="$d" '$1 == w && $2 == d { print $3 }' "$out/$side.$i"
                i=$((i + 1))
            done | sort -g | awk '{ v[NR] = $1 }
                END { h = (NR - 1) / 2; lo = int(h)
                      print (NR == 0 ? "-" : (lo + 2 > NR ? v[NR] : v[lo + 1] + (h - lo) * (v[lo + 2] - v[lo + 1]))) }' \
                >"$out/$side.$d.median"
        done
        awk -v d="$d" -v unit="$unit" -v p="$(cat "$out/parent.$d.median")" -v c="$(cat "$out/change.$d.median")" '
            function show(x) { return x == "-" ? "-" : sprintf("%.6g", x) }
            BEGIN {
                ratio = (p == "-" || c == "-" || p == 0) ? "-" : sprintf("%.4g", c / p)
                printf "%-24s median parent %s  change %s %s  change/parent %s\n", d, show(p), show(c), unit, ratio
            }'
    done

    correct=$(cat "$out"/parent.[0-9]* "$out"/change.[0-9]* | grep -c '^{"correct":true,' || true)
    digests=$(cat "$out"/parent.[0-9]* "$out"/change.[0-9]* | sed -n 's/.*; digest \([0-9a-f]*\);.*/\1/p' | sort -u | tr '\n' ' ')
    echo "correct runs: $correct of $((2 * pairs)); digests seen: ${digests:-none}"
    if [ "$correct" -eq $((2 * pairs)) ] && [ "$(echo "$digests" | wc -w)" -eq 1 ]; then
        echo "every run correct, every digest equal"
    else
        echo "NOT every run correct with one digest" >&2
        return 1
    fi
}

status=0
for workload in $workloads; do
    out=$scratch/$workload
    mkdir -p "$out"
    echo
    echo "== $workload"
    report || status=1
done
exit $status
