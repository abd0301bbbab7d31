//! `taco-cli churn` — internet-scale BGP churn smoke: the `table-churn`
//! scenario at 100k prefixes, proving the arena-backed PATRICIA engine
//! stays memory-bounded while routes are withdrawn and re-advertised under
//! live traffic.
//!
//! For every requested organisation the same seeded BGP-shaped churn
//! workload is replayed twice — at `ticks / 2` and at `ticks` — and the
//! `table_memory_words` high-water mark must be identical and non-zero in
//! both runs: twice the churn cycles, zero extra memory, or the arena leaks
//! and the exit code is 1.  The `--json` output is byte-stable, so
//! `scripts/verify.sh` gates it against a committed baseline.
//!
//! The default kind list is `patricia` — the arena engine the invariant
//! is about.  The paper's own organisations are *structurally* unable to
//! churn at this scale (the balanced tree rebuilds its segment array on
//! every single route update, the sequential scan pays O(n) per probe),
//! which is exactly the Table 1 scaling story EXPERIMENTS.md tells; asking
//! for them here is allowed but will be slow.

use crate::cli::Cli;
use taco_core::api::parse_table_kind;
use taco_routing::TableKind;
use taco_workload::{run_scenario, ScenarioConfig, ScenarioMetrics, Workload, DEFAULT_SEED};

/// Churn cadence: a withdraw or re-advertise event every this many ticks.
const CHURN_EVERY: u32 = 20;

/// Routes withdrawn (then re-advertised) per churn event.
const CHURN_SIZE: u32 = 500;

/// Data datagrams injected per tick during the measured window.
const PACKETS_PER_TICK: u32 = 16;

fn churn_workload(entries: u32, ticks: u32) -> Workload {
    Workload::TableChurn {
        seed: DEFAULT_SEED,
        ticks,
        packets_per_tick: PACKETS_PER_TICK,
        entries,
        churn_every: CHURN_EVERY,
        churn_size: CHURN_SIZE,
    }
}

pub fn run(args: Vec<String>) {
    let cli =
        Cli::new("taco-cli churn", "internet-scale table-churn smoke with a bounded-arena gate")
            .flag("--json", "print one ScenarioMetrics JSON line per kind instead of the table")
            .opt("--kinds", "LIST", "comma-separated table kinds to smoke (default patricia)")
            .opt("--ticks", "N", "measured ticks for the long run (default 200)")
            .positional("entries", "BGP-shaped routing-table size", Some("100000"));
    let args = cli.parse_args_or_exit(args);
    let json = args.flag("--json");
    let entries: u32 = args.pos_parsed("entries").unwrap_or_else(|e| cli.fail(&e));
    let ticks: u32 = args.opt_parsed("--ticks").unwrap_or_else(|e| cli.fail(&e)).unwrap_or(200);
    let kinds = args
        .opt_list("--kinds", parse_table_kind)
        .unwrap_or_else(|e| cli.fail(&e))
        .unwrap_or_else(|| vec![TableKind::Patricia]);

    eprintln!(
        "churn smoke: {entries} BGP prefixes, {CHURN_SIZE} routes churned every \
         {CHURN_EVERY} ticks, seed {DEFAULT_SEED:#x}"
    );

    let mut results: Vec<ScenarioMetrics> = Vec::new();
    for kind in kinds {
        let config = ScenarioConfig::new(kind);
        // Half the ticks ⇒ half the churn cycles.  The footprint
        // high-water mark must not move: the free list recycles every
        // slot a withdrawal releases, so extra cycles cost no memory.
        let short = run_scenario(&churn_workload(entries, ticks / 2), &config);
        let long = run_scenario(&churn_workload(entries, ticks), &config);
        assert!(long.table_memory_words > 0, "{kind}: footprint metric never sampled");
        if short.table_memory_words != long.table_memory_words {
            eprintln!(
                "churn smoke FAILED: {kind} arena grew with churn cycles \
                 ({} words after {} ticks, {} words after {ticks} ticks)",
                short.table_memory_words,
                ticks / 2,
                long.table_memory_words,
            );
            std::process::exit(1);
        }
        eprintln!(
            "{kind}: arena bounded at {} words across {} churn events ({} forwarded)",
            long.table_memory_words,
            u64::from(ticks / CHURN_EVERY),
            long.forwarded,
        );
        results.push(long);
    }

    if json {
        for m in &results {
            println!("{}", m.to_json());
        }
        return;
    }
    println!(
        "{:<14} {:>12} {:>9} {:>9} {:>8} {:>8}",
        "table", "mem(words)", "offered", "forwarded", "dropped", "updates"
    );
    for m in &results {
        println!(
            "{:<14} {:>12} {:>9} {:>9} {:>8} {:>8}",
            m.kind.to_string(),
            m.table_memory_words,
            m.offered,
            m.forwarded,
            m.dropped(),
            m.table_updates(),
        );
    }
}
