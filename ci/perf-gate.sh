#!/usr/bin/env bash
# The perf gate: benchmarks a base revision and the working tree with
# eend-benchmark in interleaved pairs, then fails when
# `eend-benchmark compare` finds an end-to-end metric of any workload
# worse than its bound in BENCHMARK.json (or when either side fails to
# build, to run, or to match its expected digests).
#
#   ci/perf-gate.sh BASE_REV
#
# The base is checked out into a temporary git worktree and built from
# source there. Timings are CPU time, so the two sides share one host
# and the pairs alternate which side runs first.
set -euo pipefail

# Five pairs of five-second runs of every workload: about a minute of
# benchmarking per pair, long enough for `compare` to flag a slowdown
# beyond the 25 % bounds, short enough for every push.
PAIRS=5
RUN_SECONDS=5

base_rev=${1:?usage: ci/perf-gate.sh BASE_REV}
head=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
base="$work/base"
cleanup() {
    git -C "$head" worktree remove --force "$base" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

git -C "$head" worktree add --quiet --detach "$base" "$base_rev"
for tree in "$base" "$head"; do
    echo "perf-gate: building $(git -C "$tree" rev-parse --short HEAD) in $tree"
    cargo build --release --quiet --offline --manifest-path "$tree/eend-benchmark/Cargo.toml"
done

# One run of all four workloads; its log is shown only when it fails.
bench() {
    local side=$1 tree=$2 out="$work/$1-$3.json"
    echo "perf-gate: pair $3, $side"
    (cd "$tree" && eend-benchmark/target/release/eend-benchmark \
        --seconds "$RUN_SECONDS" --out "$out" >"$out.log" 2>&1) || {
        cat "$out.log"
        echo "perf-gate: the $side run failed"
        exit 1
    }
}

base_files=() head_files=()
for i in $(seq 1 "$PAIRS"); do
    if [ $((i % 2)) -eq 1 ]; then
        bench base "$base" "$i"
        bench head "$head" "$i"
    else
        bench head "$head" "$i"
        bench base "$base" "$i"
    fi
    base_files+=("$work/base-$i.json")
    head_files+=("$work/head-$i.json")
done

"$head/eend-benchmark/target/release/eend-benchmark" compare \
    --base "${base_files[@]}" --head "${head_files[@]}" --benchmark "$head/BENCHMARK.json"
