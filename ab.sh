#!/usr/bin/env bash
# Paired A/B runs of one benchmark workload at two commits.
#
# Usage: ./ab.sh <base> <change> <workload> <metric> [pairs] [seed]
#
# Extracts each commit with `git archive` into $AB_DIR (default
# ${TMPDIR:-/tmp}/tutel-ab, one tree per commit hash, reused when its
# benchmark binary is already built), builds that tree's benchmark
# there, then runs `<pairs>` (default 10) pairs of single-workload runs,
# each as long as its benchmark's default. The side that runs first
# alternates from pair to pair, so a host that drifts over the session
# loads both sides alike. For an uncommitted tree, pass
# `$(git stash create)` as <change>.
#
# Prints one line per run (pair, side, metric, the host's steal time in
# jiffies during the run from /proc/stat), then the change's wins, both
# medians, the base's interquartile range and the verdict a claimed gain
# is held to: better on at least 9 pairs in 10 and a median better by
# more than the base's IQR. The metric's direction comes from the
# change's BENCHMARK.json. Each run's JSON line, after its side's name,
# goes to a log in $AB_DIR for the other metrics; a run that is not
# `correct` or has a failed operation stops the script.
set -euo pipefail

if [ "$#" -lt 4 ]; then
    awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' "$0" >&2
    exit 2
fi
base=$1 change=$2 workload=$3 metric=$4 pairs=${5:-10} seed=${6:-1}
repo=$(cd "$(dirname "$0")" && pwd)
dir=${AB_DIR:-${TMPDIR:-/tmp}/tutel-ab}
mkdir -p "$dir"
log="$dir/$workload-$(git -C "$repo" rev-parse --short "$base")-$(git -C "$repo" rev-parse --short "$change").jsonl"
: > "$log"

# Extracts and builds commit $1; prints the benchmark binary's path.
build() {
    local hash tree
    hash=$(git -C "$repo" rev-parse --verify "$1^{commit}")
    tree="$dir/$hash"
    if [ ! -x "$tree/benchmark/target/release/tutel-benchmark" ]; then
        rm -rf "$tree"
        mkdir -p "$tree"
        git -C "$repo" archive --format=tar "$hash" | tar -x -C "$tree"
        echo "building $1 ($hash) in $tree" >&2
        cargo build --release --offline --quiet \
            --manifest-path "$tree/benchmark/Cargo.toml" >&2
    fi
    echo "$tree/benchmark/target/release/tutel-benchmark"
}

bin_base=$(build "$base")
bin_change=$(build "$change")
better=$(grep -A3 "\"name\": \"$metric\"" "${bin_change%/benchmark/*}/BENCHMARK.json" \
    | sed -n 's/.*"better": "\([a-z]*\)".*/\1/p' | head -n 1)
if [ -z "$better" ]; then
    echo "ab.sh: $metric is not a metric of BENCHMARK.json" >&2
    exit 2
fi

# The host's total steal jiffies so far.
steal() {
    awk '$1 == "cpu" { print $9; exit }' /proc/stat
}

# Runs binary $1 once; prints "<metric value> <steal delta>".
run() {
    local before out value
    before=$(steal)
    out=$("$1" --workload "$workload" --seed "$seed" --trace 0 | tail -n 1)
    echo "$side $out" >> "$log"
    case $out in *'"correct":true,'*'"failed":0,'*) ;; *)
        echo "ab.sh: $side run not correct or has failures: $out" >&2
        exit 1 ;;
    esac
    value=$(printf '%s\n' "$out" \
        | sed -n "s/.*\"$metric\":{\"value\":\([^,}]*\).*/\1/p")
    if [ -z "$value" ]; then
        echo "ab.sh: no $metric in: $out" >&2
        exit 1
    fi
    echo "$value $(($(steal) - before))"
}

results=$(mktemp)
trap 'rm -f "$results"' EXIT
echo "pair side $metric steal_jiffies"
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
    for side in $order; do
        if [ "$side" = base ]; then bin=$bin_base; else bin=$bin_change; fi
        measured=$(run "$bin")
        echo "$i $side $measured" | tee -a "$results"
    done
done

awk -v better="$better" -v metric="$metric" '
    function sort(a, n,    i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) {
                t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
            }
    }
    # Linear interpolation between the closest ranks.
    function quantile(a, n, p,    h, lo) {
        h = (n - 1) * p + 1
        lo = int(h)
        return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    { v[$2, $1] = $3; pairs = $1 > pairs ? $1 : pairs }
    END {
        for (i = 1; i <= pairs; i++) {
            b[i] = v["base", i]; c[i] = v["change", i]
            d = c[i] - b[i]
            wins += better == "higher" ? d > 0 : d < 0
        }
        sort(b, pairs); sort(c, pairs)
        mb = quantile(b, pairs, 0.5); mc = quantile(c, pairs, 0.5)
        iqr = quantile(b, pairs, 0.75) - quantile(b, pairs, 0.25)
        gain = better == "higher" ? mc - mb : mb - mc
        need = int((9 * pairs + 9) / 10)
        printf "%s (%s is better): change wins %d of %d pairs\n", metric, better, wins, pairs
        printf "median base %g, change %g (%+.2f%%); base IQR %g\n", mb, mc, 100 * (mc - mb) / mb, iqr
        verdict = wins >= need && gain > iqr ? "GAIN" : "no gain"
        printf "verdict: %s (needs %d wins and a median gain above the base IQR)\n", verdict, need
    }' "$results"
echo "each run's JSON line: $log"
