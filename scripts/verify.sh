#!/usr/bin/env bash
# Tier-1 verification for the taco workspace.
#
# The main workspace has zero registry dependencies, so the tier-1 gate
# runs fully offline.  When the crates.io registry is reachable we
# additionally build/test the workspace-excluded crates/proptests package
# (proptest property suites + Criterion benches), which is the only place
# registry dependencies are allowed — see the dependency policy in
# README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: format check =="
cargo fmt --check

echo
echo "== tier-1: clippy (warnings are errors) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo
echo "== tier-1: offline build + tests =="
cargo build --release --offline
cargo test -q --offline
cargo test -q --offline --workspace

echo
echo "== tier-1: golden + differential + fault suites (explicit) =="
# Already part of the workspace run above; named here so a failure in the
# pinned Table 1 fixture, the reference-vs-cycle differential (including
# the malformed drop-class agreement test), or the fault-replay
# determinism contract is unmistakable in the log.  Regenerate fixtures
# after an intentional change with:
#   BLESS=1 cargo test -p taco-core --test golden_table1
#   BLESS=1 cargo test -p taco-core --test golden_scaling
cargo test -q --offline -p taco-core --test golden_table1
cargo test -q --offline -p taco-core --test golden_scaling
cargo test -q --offline -p taco-workload --test differential
cargo test -q --offline -p taco-workload --test differential malformed_frames_drop_in_the_same_class_on_both_routers
cargo test -q --offline -p taco-core --test fault_determinism

echo
echo "== tier-1: scenario golden + FIB-follows-RIB suites (explicit) =="
# The 30-line scenario fixture (six builtin workloads x five table kinds,
# `tests/golden/scenarios.json`) is the before/after guard for anything
# that touches the router, the RIPng engine or an LPM table; regenerate
# an intentional change with
#   BLESS=1 cargo test --test golden_scenarios
# The FIB-sync suite pins the contract that makes skipping idle syncs
# safe: every RIB change (learn, better gateway, withdrawal, timeout)
# reaches the forwarding table on its own tick, idle ticks never write
# the table, and `reload` leaves every engine exactly as clear + inserts.
cargo test -q --offline --test golden_scenarios
cargo test -q --offline -p taco-router --test fib_sync
cargo test -q --offline -p taco-routing --lib reload_leaves_the_state_of_clear_then_inserts

echo
echo "== tier-1: cross-engine LPM oracle + internet-scale churn suites (explicit) =="
# The randomized five-kind LPM differential oracle (every organisation
# agrees with a reference longest-prefix scan at 10k BGP-shaped prefixes)
# and the 20k-prefix churn regression proving the arena engines' footprint
# high-water mark does not move when the churn window doubles.
cargo test -q --offline -p taco-router --test lpm_oracle
cargo test -q --offline -p taco-workload --test churn_scale

echo
echo "== tier-1: decoded schedule vs reference interpreter (explicit) =="
# The schedule Processor executes must agree with the instruction-word
# interpreter (taco-sim/src/reference.rs) on statistics, trace events,
# registers and forwarded bytes: every table kind x {Table 1 machines,
# 2-bus, 4-bus, 2-MMU} x {10, 100} entries x {no faults, periodic stalls},
# hand-written programs up to six moves wide and every run-time error,
# each also through the untraced run().  The guard keeps what was deleted
# for having a simpler equal from growing back (the brackets stop the
# pattern from matching this file): the step-loop switch and the
# deprecated shape parser (PR 14), the shard coordinator and the wire
# cache exchange (PR 15 — the pool is the one way a sweep is parallelised,
# simulation plus the boot snapshot the one way into the cache), and the
# typed per-FU state with its string-port API and the four decoded enums
# the port file replaced (PR 17 — one flat file, one `apply`).
cargo test -q --offline --test step_reference
if grep -rnE '[S]tepMode|TACO_STEP_[M]ODE|set_step_[m]ode|parse_machine_[s]hape|sharded_[s]weep|Sweep[S]hard|Shard[R]esult|Cache[E]xport|Cache[I]mport|Cache[S]napshot|Cache[L]oaded|cache_[e]xport|cache_[i]mport' crates src tests examples scripts; then exit 1; fi
if grep -rnE '[D]atapathFu|\b[D]Src\b|\b[D]Guard\b|\b[D]Dst\b|\b[D]Trig\b|read_[r]esult\(|write_[o]perand\(' crates src tests examples scripts; then exit 1; fi

echo
echo "== tier-1: evaluate once per input (explicit) =="
# One shared PreparedInput per table size, one compiled program per
# (kind, machine, options, size), one router per evaluation, re-armed by
# the CAM fixed point: evaluate_request must equal a from-scratch
# for_kind build (5 kinds x 6 sizes x 3 machines, cold, warm, raced and
# after eviction), a re-armed router must equal a fresh one, the datagram
# slots must sit above any table image, and a warm evaluation's
# allocation count must stay under its ceiling -- the stopwatch-free gate
# against a return to rebuild-per-round.  The guard keeps the deleted
# second construction path from growing back (brackets as above): neither
# the per-round build helper nor the traced twin of measure anywhere, and
# evaluate.rs never builds from routes.
cargo test -q --offline --test prepared_input
cargo test -q --offline --test rearm
cargo test -q --offline --test table_overlap
cargo test -q --offline --test eval_allocs
if grep -rnE 'build_[r]outer|traced_[m]easure' crates src tests examples scripts; then exit 1; fi
if grep -nE 'for_[k]ind|TableImage::[n]ew|benchmark_[r]outes\(' crates/core/src/evaluate.rs; then
    echo "evaluate.rs must build routers only through PreparedInput::router"
    exit 1
fi
if [[ "$(grep -c 'from_[i]mage(' crates/core/src/prepared.rs)" != 1 ]]; then
    echo "prepared.rs must hold exactly one router construction site"
    exit 1
fi

echo
echo "== tier-1: trace-replay suites (explicit) =="
# The binary flow-trace pipeline: the blessed reference trace and its
# replay metrics (regenerate intentional changes with
#   BLESS=1 cargo test -p taco-workload --test golden_trace
# ), the strict-reader rejection tests, and the byte-identity of
# trace-replay metrics across thread counts and cache hits.
cargo test -q --offline -p taco-workload --test golden_trace
cargo test -q --offline -p taco-workload --lib trace
cargo test -q --offline -p taco-core --test scenario_determinism trace_replay

echo
echo "== tier-1: multicore determinism (explicit) =="
# The coherent multicore layer must be as deterministic as the rest of
# the simulator: a multicore sweep (cores x topology x protocol, with
# coherence traffic from table churn) is byte-identical across worker
# counts, the MachineSpec wire grid round-trips exhaustively, and a
# single-core request keeps the exact pre-multicore bytes.  The
# release-built `scenarios` bin then re-measures 2- and
# 4-core cells under its hard wall-clock timeout, so a coherence
# livelock fails loudly here instead of hanging a later job.
cargo test -q --offline -p taco-core --test parallel_equivalence \
    multicore_sweep_is_byte_identical_across_threads
cargo test -q --offline -p taco-core --test api_roundtrip every_machine_spec_combination_round_trips
cargo test -q --offline -p taco-core --test api_roundtrip single_core_machine_specs_keep_the_flat_wire_form
cargo build --release --offline -q -p taco-bench --bin scenarios
if ! timeout 180 ./target/release/scenarios > /dev/null; then
    echo "multicore scenarios smoke FAILED (non-zero exit or 180 s timeout)"
    exit 1
fi
echo "multicore determinism ok"

echo
echo "== tier-1: wire API round-trip + daemon loopback suites (explicit) =="
# The wire schema's identity property over every builtin combination,
# the daemon's golden-fixture/admission/persistence contract, and the
# framing robustness suite (split reads, pipelined frames, oversized
# rejection, mid-request disconnects, v2 sessions, served sweeps).
cargo test -q --offline -p taco-core --test api_roundtrip
cargo test -q --offline -p taco-served --test daemon
cargo test -q --offline -p taco-served --test framing

echo
echo "== perf gate: disabled-tracer table1 smoke =="
# The tracer — and the fault-injection hooks, which share its
# monomorphisation discipline — must cost nothing when off.
# `trace --smoke N` runs N
# uncached twelve-cell Table 1 sweeps with the NullTracer and prints the
# wall time in ms; the best of three runs must stay within 5% (+25 ms
# measurement grace) of the checked-in baseline.  The iteration count is
# deliberately low so offline CI pays ~1 s for the gate.  (The grace is
# wider than a whole sweep costs, so this gate does not see a return to
# rebuild-per-round; the allocation ceiling in tests/eval_allocs.rs does.
# Re-blessed 8 -> 6 ms with the port-file step loop, PR 17: the parent
# reads 10 ms on the same machine, and 10 ms is still inside 6 ms + 5 % +
# 25 ms, so a full regression of that change passes here too -- the
# seq-scan-1k benchmark smoke below and BENCHMARK.json are what see it.)
#
#   PERF_GATE=off    skip (e.g. on emulated/shared hardware)
#   PERF_GATE=bless  re-baseline on this machine, then review the diff
baseline_file=scripts/table1-smoke-baseline.txt
if [[ "${PERF_GATE:-on}" == "off" ]]; then
    echo "PERF_GATE=off: skipped"
else
    cargo build --release --offline -q -p taco-bench --bin trace
    best=
    runs=()
    for _ in 1 2 3; do
        ms=$(./target/release/trace --smoke 10)
        runs+=("$ms")
        if [[ -z "$best" || "$ms" -lt "$best" ]]; then
            best=$ms
        fi
    done
    if [[ "${PERF_GATE:-on}" == "bless" ]]; then
        echo "$best" > "$baseline_file"
        echo "blessed new baseline: ${best} ms"
    else
        baseline=$(cat "$baseline_file")
        limit=$((baseline * 105 / 100 + 25))
        if [[ "$best" -gt "$limit" ]]; then
            echo "perf gate FAILED: best-of-3 ${best} ms > limit ${limit} ms (baseline ${baseline} ms)"
            echo "  runs: ${runs[*]} ms; limit = baseline ${baseline} ms + 5% + 25 ms grace"
            echo "  slower machine? PERF_GATE=bless re-baselines; PERF_GATE=off skips"
            exit 1
        fi
        echo "perf gate ok: best-of-3 ${best} ms <= ${limit} ms (baseline ${baseline} ms; runs ${runs[*]} ms)"
    fi
fi

echo
echo "== churn gate: 100k-prefix bounded-arena smoke =="
# Internet-scale churn end-to-end: the release-built `churn` bin seeds a
# 100k-prefix BGP-shaped table, withdraws/re-advertises routes under live
# traffic, and exits non-zero if the arena engines' footprint high-water
# mark moves when the churn window doubles.  Its --json output is
# all-integer and seeded, hence byte-stable across machines, so it is
# diffed against a committed baseline.  The hard timeout turns a
# scaling regression (or livelock) into a loud failure, not a hung job.
#
#   CHURN_GATE=off    skip (e.g. when iterating on unrelated code)
#   CHURN_GATE=bless  re-baseline after an intentional metrics change
churn_baseline=scripts/churn-smoke-baseline.json
if [[ "${CHURN_GATE:-on}" == "off" ]]; then
    echo "CHURN_GATE=off: skipped"
else
    cargo build --release --offline -q -p taco-bench --bin churn
    if ! churn_actual=$(timeout 300 ./target/release/churn --json); then
        echo "churn gate FAILED (unbounded arena, non-zero exit, or 300 s timeout)"
        exit 1
    fi
    if [[ "${CHURN_GATE:-on}" == "bless" ]]; then
        printf '%s\n' "$churn_actual" > "$churn_baseline"
        echo "blessed new churn baseline: $churn_baseline"
    elif ! diff "$churn_baseline" <(printf '%s\n' "$churn_actual"); then
        echo "churn gate FAILED: 100k-prefix churn metrics drifted from $churn_baseline"
        echo "  intentional change? CHURN_GATE=bless re-baselines, then review the diff"
        exit 1
    else
        echo "churn gate ok: 100k-prefix churn matches $churn_baseline byte for byte"
    fi
fi

echo
echo "== daemon smoke: ephemeral-port serve / status / shutdown =="
# End-to-end over a real socket: boot the daemon on an ephemeral port,
# read the advertised address, make one request, check the response is a
# well-formed v1 line, and shut down cleanly (exit code 0 both sides).
cargo build --release --offline -q -p taco-bench --bin taco-cli
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
./target/release/taco-cli serve --addr 127.0.0.1:0 > "$smoke_dir/serve.out" &
serve_pid=$!
addr=
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^taco-served listening on //p' "$smoke_dir/serve.out")
    [[ -n "$addr" ]] && break
    sleep 0.1
done
if [[ -z "$addr" ]]; then
    echo "daemon smoke FAILED: serve never advertised its address"
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
status_line=$(./target/release/taco-cli status --addr "$addr")
case "$status_line" in
    '{"api_version":"v1","kind":"status_result",'*) ;;
    *)
        echo "daemon smoke FAILED: malformed status response: $status_line"
        kill "$serve_pid" 2>/dev/null || true
        exit 1
        ;;
esac
./target/release/taco-cli shutdown --addr "$addr" > /dev/null
wait "$serve_pid"
echo "daemon smoke ok: $addr answered $status_line"

echo
echo "== tracegen smoke: generate / write / read / replay =="
# The flow-trace pipeline end to end in release mode: tracegen generates a
# BGP-session-sized trace, round-trips it through disk, replays it, and
# self-checks digests and packet accounting — any failure is a non-zero
# exit.  The hard timeout turns a generator or replay livelock into a
# loud failure instead of a hung CI job.
cargo build --release --offline -q -p taco-bench --bin tracegen
if ! timeout 120 ./target/release/tracegen --seed 7 --ticks 4000 --flows 128 --entries 256; then
    echo "tracegen smoke FAILED (non-zero exit or 120 s timeout)"
    exit 1
fi
echo "tracegen smoke ok"

echo
echo "== loadgen smoke: concurrent one-shot and session clients =="
# End-to-end load test of the event loop: loadgen boots its own daemon
# on an ephemeral port, hammers it with concurrent one-shot and
# persistent-session clients, and rewrites the checked-in
# BENCH_served.json artefact (same settings as the committed run, ~5 s
# wall).  The hard timeout turns any event-loop deadlock — a reader
# waiting on a writer that will never flush — into a loud failure
# instead of a hung CI job.
cargo build --release --offline -q -p taco-bench --bin loadgen
if ! timeout 120 ./target/release/loadgen \
        --clients 8,64,256 --requests 200 \
        --json BENCH_served.json; then
    echo "loadgen smoke FAILED (non-zero exit or 120 s deadlock timeout)"
    exit 1
fi
echo "loadgen smoke ok: BENCH_served.json regenerated"

echo
echo "== benchmark smoke: scenario-mix and seq-scan-1k through benchmarks/run.sh =="
# The repo benchmark (BENCHMARK.json) end to end on the workload the
# scenario engine dominates and on the one the simulator's step loop
# dominates, at a tenth of the measuring time.  run.sh builds the
# stand-alone benchmarks/ package offline and exits non-zero when any
# operation failed its correctness check (seq-scan-1k checks every cell
# against a from-scratch router); the hard timeout covers a hung child.
# The numbers it prints are a smoke, not a measurement — EXPERIMENTS.md
# "Scenario engine cost" and "Port file" have those.
for workload in scenario-mix seq-scan-1k; do
    if ! timeout 300 bash benchmarks/run.sh --quick --workload "$workload" > /dev/null; then
        echo "benchmark smoke FAILED on $workload (failed operations, non-zero exit or 300 s timeout)"
        exit 1
    fi
done
echo "benchmark smoke ok"

echo
echo "== tier-1 passed =="

# The proptests package needs the registry; probe with a cheap fetch and
# skip gracefully when the network is unavailable (the common case in
# hermetic CI containers).
if cargo fetch --manifest-path crates/proptests/Cargo.toml >/dev/null 2>&1; then
    echo
    echo "== registry reachable: proptest feature build + property tests =="
    cargo test -q --manifest-path crates/proptests/Cargo.toml --features proptest
    echo "== building Criterion benches (no run) =="
    cargo bench --manifest-path crates/proptests/Cargo.toml --no-run
else
    echo
    echo "== registry unreachable: skipping crates/proptests (expected offline) =="
fi
