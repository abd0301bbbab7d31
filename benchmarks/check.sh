#!/usr/bin/env bash
# Self-test of the benchmark.
#
#  1. Names: every workload and metric BENCHMARK.json lists is printed
#     exactly once per workload, well-formed, with the listed unit, and
#     nothing BENCHMARK.json does not list is printed (`failed_share`
#     excepted: it travels in the result line's attempted/failed keys).
#  2. Repeatability: two full runs on the same build agree on every
#     end-to-end metric within that metric's own bound.
#
#   benchmarks/check.sh [--names-only] [--seed N]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
names_only=0
seed=2003
while [ $# -gt 0 ]; do
    case "$1" in
        --names-only) names_only=1 ;;
        --seed) seed="$2"; shift ;;
        *) echo "usage: check.sh [--names-only] [--seed N]" >&2; exit 2 ;;
    esac
    shift
done

mkdir -p "$here/out"
work="$(mktemp -d "$here/out/check.XXXXXX")"
trap 'rm -rf "$work"' EXIT

echo "check: names (quick end-to-end run of every workload, one traced run)" >&2
"$here/run.sh" --quick --seed "$seed" > "$work/e2e.txt"
"$here/run.sh" --quick --seed "$seed" --workload table1-cold --trace 1 > "$work/layers.txt"
python3 "$here/check_names.py" "$here/../BENCHMARK.json" "$work/e2e.txt" "$work/layers.txt"

if [ "$names_only" -eq 1 ]; then
    echo "check: names ok" >&2
    exit 0
fi

echo "check: repeatability (two full runs, seed $seed)" >&2
"$here/run.sh" --seed "$seed" > "$work/first.txt"
"$here/run.sh" --seed "$seed" > "$work/second.txt"
python3 "$here/check_names.py" "$here/../BENCHMARK.json" --compare "$work/first.txt" "$work/second.txt"
echo "check: ok" >&2
