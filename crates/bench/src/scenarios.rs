//! `taco-cli scenarios` — every built-in behavioural workload replayed
//! over the paper's three routing-table organisations.
//!
//! Each run is fully deterministic in the printed seed: the grid is fanned
//! out over the worker pool (`TACO_THREADS` overrides) and then re-run
//! serially, and the two passes must agree byte-for-byte — the subcommand
//! fails loudly if they ever diverge.  A multicore smoke follows:
//! `table-churn` replayed on 2- and 4-core systems under a hard wall-clock
//! timeout, so a coherence livelock fails instead of hanging CI.

use std::sync::mpsc;
use std::time::Duration;

use crate::cli::Cli;
use taco_core::pool;
use taco_isa::{SystemConfig, Topology};
use taco_routing::TableKind;
use taco_workload::{run_scenario, ScenarioConfig, ScenarioMetrics, Workload, DEFAULT_SEED};

/// Per-tick service budget for the standalone sweep and `tracegen`'s
/// replay; kept fixed (rather than derived from a cycle measurement, as
/// `EvalRequest::workload` does) so they isolate the *scenario* behaviour
/// of the table kinds, not a measured processor speed.
pub(crate) const SERVICE_PER_TICK: u32 = 24;

/// Input-buffer bound per line card, in datagrams.
const QUEUE_CAPACITY: u32 = 48;

fn sweep(seed: u64, threads: usize) -> Vec<ScenarioMetrics> {
    let cells: Vec<(Workload, TableKind)> = Workload::builtin()
        .into_iter()
        .map(|w| w.with_seed(seed))
        .flat_map(|w| TableKind::PAPER_KINDS.into_iter().map(move |kind| (w, kind)))
        .collect();
    pool::ordered_map(&cells, threads, |_, (workload, kind)| {
        let config = ScenarioConfig::new(*kind)
            .service_per_tick(SERVICE_PER_TICK)
            .queue_capacity(QUEUE_CAPACITY);
        run_scenario(workload, &config)
    })
}

/// Wall-clock ceiling for one multicore smoke cell.  The cells finish in
/// well under a second; the ceiling exists so a coherence-protocol
/// regression that livelocks the snooping loop fails loudly instead of hanging CI forever.
const SMOKE_TIMEOUT: Duration = Duration::from_secs(60);

/// Replays `table-churn` on multicore systems (the workload whose table
/// writes generate the most invalidation traffic) under a hard timeout,
/// and checks the runs are deterministic and actually measured coherence.
fn multicore_smoke(seed: u64) {
    let workload = Workload::table_churn().with_seed(seed);
    for (cores, topology) in [(2, Topology::SharedBus), (4, Topology::Mesh)] {
        let system = SystemConfig::with_cores(cores).topology(topology);
        let config = ScenarioConfig::new(TableKind::Cam)
            .service_per_tick(SERVICE_PER_TICK)
            .queue_capacity(QUEUE_CAPACITY)
            .system(system);
        let (tx, rx) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            let first = run_scenario(&workload, &config);
            let second = run_scenario(&workload, &config);
            let _ = tx.send((first, second));
        });
        let (first, second) = rx.recv_timeout(SMOKE_TIMEOUT).unwrap_or_else(|_| {
            eprintln!(
                "multicore smoke: {cores}-core {} cell exceeded {}s — aborting",
                topology.name(),
                SMOKE_TIMEOUT.as_secs()
            );
            std::process::exit(1);
        });
        worker.join().expect("smoke worker panicked");
        assert_eq!(
            first.to_json(),
            second.to_json(),
            "multicore replay must be deterministic ({cores}-core {})",
            topology.name()
        );
        let coherence = first.coherence.unwrap_or_else(|| {
            panic!("multicore runs must measure coherence ({cores}-core {})", topology.name())
        });
        eprintln!(
            "multicore smoke: {cores}-core {} ok ({} reads, {} invalidations, {} stall cycles)",
            topology.name(),
            coherence.reads,
            coherence.invalidations,
            coherence.stall_cycles
        );
    }
}

pub fn run(args: Vec<String>) {
    let default_seed = DEFAULT_SEED.to_string();
    let cli =
        Cli::new("taco-cli scenarios", "replay every built-in workload over the three table kinds")
            .flag("--json", "print one ScenarioMetrics JSON line per cell instead of the table")
            .positional("seed", "deterministic scenario seed", Some(&default_seed));
    let args = cli.parse_args_or_exit(args);
    let json = args.flag("--json");
    let seed: u64 = args.pos_parsed("seed").unwrap_or_else(|e| cli.fail(&e));

    let threads = pool::default_threads();
    eprintln!(
        "scenario sweep: {} workloads x {} kinds, seed {seed:#x}, {threads} worker thread(s)",
        Workload::builtin().len(),
        TableKind::PAPER_KINDS.len(),
    );

    let parallel = sweep(seed, threads);
    let serial = sweep(seed, 1);
    let agree = parallel.iter().zip(&serial).all(|(a, b)| a.to_json() == b.to_json());
    assert!(agree, "parallel sweep diverged from the serial reference");
    eprintln!("parallel == serial: ok ({} cells)", parallel.len());

    multicore_smoke(seed);

    if json {
        for m in &parallel {
            println!("{}", m.to_json());
        }
        return;
    }

    println!(
        "{:<18} {:<14} {:>8} {:>9} {:>8} {:>7} {:>9} {:>8} {:>11}",
        "scenario",
        "table",
        "offered",
        "forwarded",
        "dropped",
        "queue",
        "lat(avg)",
        "updates",
        "thru/tick"
    );
    let mut last = "";
    for m in &parallel {
        let name = if m.scenario == last {
            ""
        } else {
            last = m.scenario;
            m.scenario
        };
        println!(
            "{:<18} {:<14} {:>8} {:>9} {:>8} {:>7} {:>9} {:>8} {:>11}",
            name,
            m.kind.to_string(),
            m.offered,
            m.forwarded,
            m.dropped(),
            m.max_queue_depth,
            format!("{:.1}", m.latency.mean_milli() as f64 / 1e3),
            m.table_updates(),
            format!("{:.2}", m.throughput_milli() as f64 / 1e3),
        );
    }
    println!();
    println!(
        "service {SERVICE_PER_TICK}/tick, queue capacity {QUEUE_CAPACITY}; \
         rerun with the same seed for byte-identical metrics"
    );
}
