#!/usr/bin/env bash
# Verification for the taco workspace, offline end to end: the workspace
# has no registry dependencies (README.md, dependency policy), every test
# -- the seeded randomised suites included -- runs under `cargo test`, and
# the one stopwatch is benchmarks/run.sh.
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
# The workspace includes the root package, whose `cargo test -q` is the
# tier-1 gate.  cargo names the failing test; nothing is run twice.  After
# an intentional change regenerate a fixture with
#   BLESS=1 cargo test -p taco-core --test golden_table1    (or golden_scaling)
#   BLESS=1 cargo test -p taco-workload --test golden_trace
#   BLESS=1 cargo test --test golden_scenarios   (or golden_wire, golden_report)
cargo test -q --offline --workspace

echo
echo "== tier-1: deleted names stay deleted =="
# What was deleted for having a simpler equal must not grow back (the
# brackets stop each pattern from matching this file).  One line per PR:
# 14, the step-loop switch and the deprecated shape parser; 15, the shard
# coordinator and the wire cache exchange; 17, the typed per-FU state and
# the four decoded enums; 18, the registry-gated test package and its
# feature, the smoke gate, the per-run serving artefact, the server-side
# trace path and the evaluator's Chrome-trace side channel.
if grep -rnE '[S]tepMode|TACO_STEP_[M]ODE|set_step_[m]ode|parse_machine_[s]hape|sharded_[s]weep|Sweep[S]hard|Shard[R]esult|Cache[E]xport|Cache[I]mport|Cache[S]napshot|Cache[L]oaded|cache_[e]xport|cache_[i]mport' crates src tests examples scripts; then exit 1; fi
if grep -rnE '[D]atapathFu|\b[D]Src\b|\b[D]Guard\b|\b[D]Dst\b|\b[D]Trig\b|read_[r]esult\(|write_[o]perand\(' crates src tests examples scripts; then exit 1; fi
if grep -rnE 'crates/[p]roptests|--features [p]roptest|PERF_[G]ATE|BENCH_[s]erved|trace_[e]rror' crates src tests examples scripts; then exit 1; fi
# The wire twins of an evaluation's own types (the machine, the inline
# trace, the request envelope) are gone; this also keeps the server-side
# trace path out.
if grep -rnE '[M]achineSpec|[T]raceRef|[W]ireRequest' crates src tests examples scripts; then exit 1; fi
# PR 16, one construction path: no per-round build helper, no traced twin
# of measure, evaluate.rs never builds from routes.
if grep -rnE 'build_[r]outer|traced_[m]easure' crates src tests examples scripts; then exit 1; fi
if grep -nE 'for_[k]ind|TableImage::[n]ew|benchmark_[r]outes\(' crates/core/src/evaluate.rs; then
    echo "evaluate.rs must build routers only through PreparedInput::router"
    exit 1
fi
if [[ "$(grep -c 'from_[i]mage(' crates/core/src/prepared.rs)" != 1 ]]; then
    echo "prepared.rs must hold exactly one router construction site"
    exit 1
fi
# PR 19, one way to draw host bits: no `with_bit(` fed from an rng draw in
# product code.  A file's product code ends at its first `#[cfg(test)]`;
# the deleted per-bit loops live on below it as the tests' references.
if awk 'FNR == 1 { product = 1 } /#\[cfg\(test\)\]/ { product = 0 }
        product && /with_[b]it\(.*rng/ { print FILENAME ":" FNR ": " $0; found = 1 }
        END { exit !found }' $(find crates/*/src -name '*.rs'); then
    echo "host bits are drawn by SplitMix64::coin_tosses (traffic::fill_host_bits), not bit by bit"
    exit 1
fi
# PR 20, one member table per wire record and one owner of the envelope:
# no second envelope splitter, no stored copy of a report's counters, and
# the envelope's head is spelled only in taco-core's api module (doc
# comments and tests aside).
if grep -rnE 'split_[c]anonical|fast_[i]d|stats_[j]son' crates src tests examples scripts; then exit 1; fi
if awk 'FNR == 1 { product = 1 } /#\[cfg\(test\)\]/ { product = 0 }
        product && !/^[[:space:]]*\/\/[\/!]/ && /api_[v]ersion/ { print FILENAME ":" FNR ": " $0; found = 1 }
        END { exit !found }' $(find crates/served/src crates/bench/src -name '*.rs'); then
    echo "the envelope is written and split by taco_core::api::Envelope"
    exit 1
fi
# PR 21, four table organisations and one way to a router: no unibit trie
# in any layer, no per-kind router constructor beside `for_kind` /
# `TableImage::new` + `from_image`.
if grep -rnE '[T]rieTable|trie_[p]rogram|serialize_[t]rie|TableKind::[T]rie|TRIE_[R]OUTE_CAP' crates src tests examples scripts; then exit 1; fi
if grep -rnE 'CycleRouter::([s]equential|[t]ree|[p]atricia|[c]am)\(' crates src tests examples scripts; then exit 1; fi
# PR 22, one way to measure a point: every printed cycle count is an
# `EvalReport`'s (the report *field* `cycles_per_datagram` stays; calls and
# definitions of the fixed-latency function do not), the cache holds one
# map, and the microcode has no idle-spin form.
if grep -rnE 'cycles_per_[d]atagram\(|measure_[a]t\(|max_sustainable_[r]ate|cycles_[r]ecorded|halt_when_[i]dle' crates src tests examples scripts; then exit 1; fi
# PR 23, one executable: `taco-bench` builds `taco-cli` and nothing else, the
# eleven folded binaries are its subcommands (modules of the library, not
# files under src/bin), argv has one parse entry point, and a status line is
# its own member table.
if [[ "$(grep -c '^\[\[bin\]\]' crates/bench/Cargo.toml)" != 1 ]]; then
    echo "crates/bench builds exactly one executable, taco-cli"
    exit 1
fi
if ls crates/bench/src/bin/{table1,scaling,sensitivity,report,dse,ablation,scenarios,churn,trace,tracegen,loadgen}.rs 2>/dev/null; then
    echo "a folded binary is a subcommand module under crates/bench/src, not a file under src/bin"
    exit 1
fi
if grep -rnE 'parse_or_[e]xit\(|supported_features_[j]son|Status[L]ine' crates src tests examples scripts; then exit 1; fi
# PR 24, the wire frame is the data path's one currency: a line card queues
# `Vec<u8>`, not a parsed-or-raw pair serialised on the way out (a bare
# `into_bytes` is `String`'s, in trace.rs and fuzz_wire.rs).
if grep -rnE 'Frame::[P]arsed|Frame::[R]aw|frame\.into_[b]ytes' crates src tests examples scripts; then exit 1; fi
# PR 25, the `unsafe` surface stays where it is: the poll(2) FFI, the one
# call into the host-bit kernel, and the allocation-counting allocator of
# `eval_allocs` (a `GlobalAlloc` cannot be implemented without it).
if grep -rnw 'unsafe' crates src tests examples |
        grep -vE '^(crates/served/src/poll|crates/router/src/rng|tests/eval_allocs)\.rs:'; then
    echo "unsafe only in crates/served/src/poll.rs, crates/router/src/rng.rs, tests/eval_allocs.rs"
    exit 1
fi
# PR 26, a port is its FU plus its table index: no scheduler map of hazard
# lists, no name-matching port decoder, and the name lookups stay at the
# text boundary (assembler, builder, the name-taking constructors).
if grep -rnE 'Hazard[S]tate|\bport_[o]f\(|has_[g]uard\(|GP_[R]EGISTERS' crates src tests examples scripts; then exit 1; fi
if grep -rnE 'find_[p]ort\(|find_[g]uard\(' crates src tests examples benchmarks/src |
        grep -vE '^crates/taco-isa/src/(fu|program|asm|builder)\.rs:'; then
    echo "find_port( / find_guard( only in crates/taco-isa/src/{fu,program,asm,builder}.rs"
    exit 1
fi
# One step-loop body: no per-width instances of it.
if grep -rnE 'wide_[v]alues|wide_[p]ass|max_[w]idth' crates src tests examples scripts; then exit 1; fi
# An evaluation is one processor: no hand-scaled multi-core clock or
# estimate, no nested machine spelling, no core count on a machine and no
# status feature record.
if grep -rnE 'coherence_overhead_[m]illi|system_required_[f]requency|system_[e]stimate|[N]estedMachine|with_[s]ystem|Features::[s]upported' crates src tests examples scripts; then exit 1; fi
# A report stores each number once: no stored copy of a figure its counters
# give, no hand-written stats writer or reader beside `SimStats`'s one member
# table, no test-only JSON validator.  `\b` keeps `flow_stats_from_value`.
if grep -rnE '\bstats_[f]rom_value|validate_[j]son|pub (fu_[t]riggers|throughput_[m]illi|table_[u]pdates|bus_[u]tilization|[p]ackets):' crates src tests examples scripts; then exit 1; fi
# A design point compiles only what its machine changes: a compiled program
# counts its image size from the encoder's field layout while it decodes,
# so no product crate but `taco-isa` calls the encoder, and no size cell is
# filled on first use.
if grep -rnE 'isa::[e]ncode\(' crates/*/src | grep -v '^crates/taco-isa/'; then exit 1; fi
if grep -rnE 'Once(Lock|Cell)<[u]64>' crates src; then exit 1; fi
# A sweep point pays only for its router and its simulation: the
# measurement datagrams are packed into frames once per prepared input, so
# an evaluation enqueues words and never serialises a datagram.
if grep -nE 'enqueue_[b]atch\(|datagram_[t]o_words|bytes_[t]o_words|\.to_[b]ytes\(' crates/core/src/evaluate.rs; then
    echo "evaluate.rs enqueues PreparedInput's packed frames, never a datagram"
    exit 1
fi
# An extension chain is the bytes it arrived in: no typed header model
# beside the one walker (`exthdr::walk_chain`), no ICMPv6 parser and none
# of the messages only it produced.
if grep -rnE '[O]ptionsHeader|[R]outingHeader|[F]ragmentHeader|[E]xtensionHeader|parse_[c]hain|encode_[c]hain|Echo[R]equest|Parameter[P]roblem' crates src tests examples scripts; then exit 1; fi
# The public surface is what another crate names: the public items no
# product code called are gone, and whatever nothing outside its crate
# names is `pub(crate)`, where the clippy stage's dead-code lint sees it.
if grep -rnE 'from_[s]egments|to_[s]egments|is_[l]oopback|ICMP[V]6|HOP_LIMIT_[W]ORD|tree_[d]epth|next_[u]32|with_[m]tu|free_[r]ows|with_[t]imers|with_[s]ram_kib|fresh_[l]abel|\bfu_[r]ef\b|total_[f]us|guard_[v]alue|is_[h]alted|pending_[i]nputs|set_local_[i]nfo|from_[s]tats|from_[r]ecords|Snoop[E]ffect|hit_rate_[m]illi' crates src tests examples scripts; then exit 1; fi
# A setting exists only where product code varies it: the values only
# tests ever set are constants now, and the table kind has one name.
if grep -rnE 'liu_[t]able|sram_[k]ib|max_[f]rame|with_[m]emory\(|scaling_sweep_[w]ith|RoutingTable[K]ind|self\.(update_[i]nterval|route_[t]imeout|gc_[i]nterval)' crates src tests examples scripts; then exit 1; fi
# One way to evaluate a point: no per-call pricer or its tables-stepped
# count, and nothing re-arms a router or resets a processor; a stepped
# round builds a fresh router at its own RTU latency.
if grep -rnE 'Sweep[P]ricer|tables_[s]tepped|\b[r]earm\(|set_rtu_[l]atency|Processor::[r]eset|processor\.[r]eset\(' crates src tests examples scripts; then exit 1; fi
# Every evaluation is priced from its table's block profile, chosen in one
# place: the skeleton takes no flag saying whether its caller is a batch.
if grep -rnE '[b]atched: bool' crates/core/src; then exit 1; fi
# A run takes an optional periodic stall, not an injector trait with a null
# implementation, and the cycle router has no raw-frame card screen.
if grep -rnE '[F]aultInjector|[N]oFaults|steals_[c]ycle|enqueue_[r]aw|malformed_[r]ejected' crates src tests examples scripts; then exit 1; fi
# An evaluation request is its own wire record: no wire twin of it, and
# its checks run once, as the line is parsed.
if grep -rnE '[p]ub struct EvalSpec|EvalSpec::[n]ew\(' crates src tests examples scripts; then exit 1; fi
# Per-instance trigger counts have one layout, `TriggerCounts`, from the
# step loop to the wire, and one fold rule, `MachineConfig::fold`.
if grep -rnE 'BTreeMap<FuRef|trigger_[f]us|fold_trigger_[c]ounts|\bFu[K]ey\b' crates src tests examples; then exit 1; fi
# One step loop: `Processor::run_with` executes the hardware's two-phase
# word over moves decoded once, in bus order; no interpreter beside it, no
# run-at-a-time dispatch, no early reads and no tracer gate.
if grep -rnE 'run_[r]eference|compiled_[l]oop|free_[f]rom|early_[w]ords|Op::[C]opy|Op::[I]mm|fn [e]nabled\(' crates src tests examples scripts; then exit 1; fi
# A price is a sum over the block summary a compile builds once: no product
# code re-derives block starts or a block's RTU stall (the instruction-level
# definitions live on below price.rs's `#[cfg(test)]` as the reference).
if awk 'FNR == 1 { product = 1 } /#\[cfg\(test\)\]/ { product = 0 }
        product && /block_[s]tarts\(|rtu_[s]tall\(/ { print FILENAME ":" FNR ": " $0; found = 1 }
        END { exit !found }' $(find crates/*/src -name '*.rs'); then
    echo "blocks are summarised once, by taco_sim's CompiledProgram::compile"
    exit 1
fi
# A table's size is a patch of its program, not a program: no program-cache
# key carries the size, and nothing compiles a program per table size.
if grep -rnE '[S]eqKey|compiled_[p]rogram\(|(self|image)\.padded_[e]ntries' crates src tests examples scripts; then exit 1; fi
# A patch copies no program and a recording reads the decoded one: no
# taco-sim product code takes a scheduled `Program` for its own to rewrite
# it (a patched program's copy is made when something reads it), and the
# recorder in price.rs sizes its issue counts from the decoded words.
if awk 'FNR == 1 { product = 1 } /#\[cfg\(test\)\]/ { product = 0 }
        product && /make_[m]ut\(&mut [[:alnum:]_.]*(program|scheduled)\)|program\(\)\.[i]nstructions/ {
            print FILENAME ":" FNR ": " $0; found = 1 }
        END { exit !found }' $(find crates/taco-sim/src -name '*.rs') crates/core/src/price.rs; then
    echo "a patch rewrites the decoded moves only, and the recorder counts decoded words"
    exit 1
fi
# The multi-core settings no caller varied are the coherence model's
# constants: no protocol choice (the model is MESI), no cache shape and no
# interconnect latency on a system configuration.
if grep -rnE '[C]oherenceProtocol|[C]acheConfig|[I]nterconnectConfig|read_fill_[s]tate' crates src tests examples scripts; then exit 1; fi
# The event loop's lifecycle is states, one per connection and one for the
# daemon: no dialect beside a phase and a session bit, no per-flag reading
# or job count beside what a connection is owed, and no shutdown requester
# or flush deadline beside the daemon's life.
if grep -rnE '\b[D]ialect\b|read_[d]one|pending_[j]obs|shutdown_[t]o|flush_[d]eadline' crates/served/src; then exit 1; fi
# A recording steps windows of its table's one image: no image is cut from
# another, so `TableImage::new` is the only way to a table image.
if grep -rnE 'TableImage::[t]ail|fn [t]ail\(' crates/router/src; then exit 1; fi
echo "guards ok"

echo
echo "== product lines in crates/*/src (each file's lines before its first #[cfg(test)]) =="
awk 'FNR == 1 { product = 1 } /#\[cfg\(test\)\]/ { product = 0 } product { n++ } END { print n }' $(find crates/*/src -name '*.rs')

echo
echo "== release binary =="
cargo build --release --offline -q -p taco-bench
# cargo wrote the binary under CARGO_TARGET_DIR when it is set (a relative
# one is relative to this, the repo root), so the smokes run it from there.
target="${CARGO_TARGET_DIR:-target}"
[[ "$target" == /* ]] || target="$PWD/$target"
taco_cli="$target/release/taco-cli"

echo
echo "== multicore smoke: 2- and 4-core cells under a hard timeout =="
# The release-built `scenarios` subcommand re-measures 2- and 4-core cells
# and checks parallel == serial bytes itself; the timeout turns a coherence
# livelock into a loud failure here instead of a hung later job.  The
# scenario harness's coherence model is all this guards now that an
# evaluation is one processor; the stage leaves with that model, in the
# change that also takes it out of the benchmark.
if ! timeout 180 "$taco_cli" scenarios > /dev/null; then
    echo "multicore scenarios smoke FAILED (non-zero exit or 180 s timeout)"
    exit 1
fi
echo "multicore smoke ok"

echo
echo "== churn gate: 100k-prefix bounded-arena smoke =="
# Internet-scale churn end-to-end: the release-built `churn` subcommand seeds a
# 100k-prefix BGP-shaped table, withdraws/re-advertises routes under live
# traffic, and exits non-zero if the PATRICIA arena's footprint high-water
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
    if ! churn_actual=$(timeout 300 "$taco_cli" churn --json); then
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
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
"$taco_cli" serve --addr 127.0.0.1:0 > "$smoke_dir/serve.out" &
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
status_line=$("$taco_cli" status --addr "$addr")
case "$status_line" in
    '{"api_version":"v1","kind":"status_result",'*) ;;
    *)
        echo "daemon smoke FAILED: malformed status response: $status_line"
        kill "$serve_pid" 2>/dev/null || true
        exit 1
        ;;
esac
"$taco_cli" shutdown --addr "$addr" > /dev/null
wait "$serve_pid"
echo "daemon smoke ok: $addr answered $status_line"

echo
echo "== tracegen smoke: generate / write / read / replay =="
# The flow-trace pipeline end to end in release mode: tracegen generates a
# BGP-session-sized trace, round-trips it through disk, replays it, and
# self-checks digests and packet accounting — any failure is a non-zero
# exit.  The hard timeout turns a generator or replay livelock into a
# loud failure instead of a hung CI job.
if ! timeout 120 "$taco_cli" tracegen --seed 7 --ticks 4000 --flows 128 --entries 256; then
    echo "tracegen smoke FAILED (non-zero exit or 120 s timeout)"
    exit 1
fi
echo "tracegen smoke ok"

echo
echo "== loadgen smoke: concurrent one-shot and session clients =="
# End-to-end load test of the event loop: loadgen boots its own daemon
# on an ephemeral port and hammers it with concurrent one-shot and
# persistent-session clients (~5 s wall).  The hard timeout turns any
# event-loop deadlock — a reader waiting on a writer that will never
# flush — into a loud failure instead of a hung CI job.  The rates it
# prints are one uncalibrated run; benchmarks/run.sh is the stopwatch.
if ! timeout 120 "$taco_cli" loadgen --clients 8,64,256 --requests 200 > /dev/null; then
    echo "loadgen smoke FAILED (non-zero exit or 120 s deadlock timeout)"
    exit 1
fi
echo "loadgen smoke ok"

echo
echo "== benchmark smoke: scenario-mix and seq-scan-1k through benchmarks/run.sh =="
# The repo benchmark (BENCHMARK.json) end to end on the workload the
# scenario engine dominates and on the one the simulator's step loop
# dominates, at a tenth of the measuring time.  run.sh builds the
# stand-alone benchmarks/ package offline and exits non-zero when any
# operation failed its correctness check (seq-scan-1k checks every cell
# against a from-scratch router); the hard timeout covers a hung child.
# The numbers it prints are a smoke, not a measurement — ENGINEERING_LOG.md
# "Scenario engine cost", "Traffic generator cost" and "Port file" have
# those.
for workload in scenario-mix seq-scan-1k; do
    if ! timeout 300 bash benchmarks/run.sh --quick --workload "$workload" > /dev/null; then
        echo "benchmark smoke FAILED on $workload (failed operations, non-zero exit or 300 s timeout)"
        exit 1
    fi
done
echo "benchmark smoke ok"

echo
echo "== mutants: every committed mutation must be killed =="
# scripts/mutants.sh applies each scripts/mutants/NN-name.patch to a
# scratch worktree of HEAD and fails on a survivor, a patch that no longer
# applies or one that does not build, so "tier-1 fails when the system is
# broken" is checked here rather than by hand.  It mutates HEAD: commit
# first.
scripts/mutants.sh

echo
echo "== verify passed =="
