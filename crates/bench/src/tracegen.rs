//! `taco-cli tracegen` — flow-trace generator and replay micro-benchmark.
//!
//! Exercises the whole `taco_workload::trace` pipeline end to end:
//! generate a Raicu-shaped binary flow trace, write it to disk, read it
//! back through the strict parser, and replay it through the scenario
//! engine — timing each stage and printing one JSON line with the
//! measurements.  The read-back trace must digest-match the generated
//! one and the replay must account for every packet; it fails loudly
//! otherwise, which is what makes it a useful smoke test
//! (`scripts/verify.sh` runs it under a hard timeout).
//!
//! Without `--out` the trace round-trips through a temporary file that is
//! removed afterwards; with it, the written trace is kept — the way the
//! EXPERIMENTS.md reference trace is produced.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use crate::cli::Cli;
use crate::scenarios::SERVICE_PER_TICK;
use taco_workload::{run_trace_replay, FlowTrace, ScenarioConfig, TraceGen};

fn millis(from: Instant) -> u128 {
    from.elapsed().as_millis()
}

pub fn run(args: Vec<String>) {
    let cli = Cli::new("taco-cli tracegen", "flow-trace generator and replay micro-benchmark")
        .opt("--seed", "N", "trace seed (default 1)")
        .opt("--ticks", "N", "trace length in ticks (default 2000)")
        .opt("--flows", "N", "concurrent flow target (default 64)")
        .opt("--entries", "N", "routing-table entries (default 100)")
        .opt("--out", "PATH", "keep the written trace at PATH")
        .opt("--json", "PATH", "also write the timing JSON artefact to PATH");
    let args = cli.parse_args_or_exit(args);
    let seed: u64 = args.opt_parsed("--seed").unwrap_or_else(|e| cli.fail(&e)).unwrap_or(1);
    let ticks: u32 = args.opt_parsed("--ticks").unwrap_or_else(|e| cli.fail(&e)).unwrap_or(2000);
    let flows: u32 = args.opt_parsed("--flows").unwrap_or_else(|e| cli.fail(&e)).unwrap_or(64);
    let entries: u32 = args.opt_parsed("--entries").unwrap_or_else(|e| cli.fail(&e)).unwrap_or(100);
    if ticks == 0 || flows == 0 || entries == 0 {
        cli.fail("--ticks, --flows and --entries must all be at least 1");
    }

    let keep = args.opt("--out").map(PathBuf::from);
    let path = keep.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("taco-tracegen-{}.trace", std::process::id()))
    });

    let t = Instant::now();
    let trace = TraceGen::generate(seed, ticks, flows, entries);
    let gen_ms = millis(t);

    let t = Instant::now();
    trace.write(&path).unwrap_or_else(|e| {
        eprintln!("tracegen: cannot write {}: {e}", path.display());
        exit(1);
    });
    let write_ms = millis(t);

    let t = Instant::now();
    let read_back = FlowTrace::read(&path).unwrap_or_else(|e| {
        eprintln!("tracegen: cannot read {} back: {e}", path.display());
        exit(1);
    });
    let read_ms = millis(t);
    if keep.is_none() {
        std::fs::remove_file(&path).ok();
    }
    if read_back.digest() != trace.digest() {
        eprintln!(
            "tracegen: digest drift across the disk round trip ({:#018x} vs {:#018x})",
            read_back.digest(),
            trace.digest()
        );
        exit(1);
    }

    let t = Instant::now();
    let config =
        ScenarioConfig::new(taco_routing::TableKind::Cam).service_per_tick(SERVICE_PER_TICK);
    let metrics = run_trace_replay(&read_back, &config, None);
    let replay_ms = millis(t);
    let stats = metrics.flows.unwrap_or_else(|| {
        eprintln!("tracegen: replay produced no per-flow section");
        exit(1);
    });
    let records = read_back.records().len();
    if stats.packets() as usize != records {
        eprintln!("tracegen: replay offered {} of {records} trace records", stats.packets());
        exit(1);
    }

    let json = format!(
        "{{\"seed\":{seed},\"ticks\":{ticks},\"flows\":{flows},\"entries\":{entries},\
         \"records\":{records},\"digest\":{digest},\"gen_ms\":{gen_ms},\"write_ms\":{write_ms},\
         \"read_ms\":{read_ms},\"replay_ms\":{replay_ms}}}",
        digest = trace.digest(),
    );
    println!("{json}");
    if let Some(artefact) = args.opt("--json") {
        let write = std::fs::File::create(artefact)
            .and_then(|mut f| writeln!(f, "{json}").and_then(|()| f.flush()));
        if let Err(e) = write {
            eprintln!("tracegen: cannot write {artefact}: {e}");
            exit(1);
        }
    }
}
