#!/usr/bin/env bash
# The one command: builds the benchmark package (release, offline) and
# hands every argument to its driver.
#
#   benchmarks/run.sh                        all six workloads, rounds interleaved
#   benchmarks/run.sh --traced               ... then the traced run of each workload
#   benchmarks/run.sh --quick                a tenth of the measuring time (smoke)
#   benchmarks/run.sh --workload W --seed N --seconds S --trace 0|1
#                                            one workload; the last stdout line is
#                                            the JSON result (the BENCHMARK.json form)
#
# stdout: one `workload metric value unit` line per metric.  Progress and
# the ungated statistics go to stderr; benchmarks/out/ gets results.json,
# and layers.<workload>.json + trace.<workload>.json from traced runs.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to the caller's directory, for
# cargo and for us alike, so cargo runs from here without a `cd`.
target="${CARGO_TARGET_DIR:-$here/target}"

CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

TACO_PERF_GIT_REV="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)" \
    exec "$target/release/taco-perf" "$@"
