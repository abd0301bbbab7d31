//! `taco-cli scaling` — the scaling ablation behind Table 1: cycles per
//! forwarded datagram as a function of routing-table size, for each
//! organisation and machine shape.  This is the curve that explains *why*
//! the sequential organisation's required clock explodes while the CAM's
//! stays flat.
//!
//! Every cell is one full evaluation at 10 GbE / 1040 B (`scaling_sweep`),
//! so the 100-entry column would be Table 1's.  Each series' sizes are
//! evaluated in parallel (`TACO_THREADS` overrides the worker count) and
//! memoised in the process-global evaluation cache.

use std::time::Instant;

use crate::cli::{report_cache, Cli};
use taco_core::report::SCALING_SIZES;
use taco_core::{pool, scaling_sweep, ArchConfig};
use taco_routing::TableKind;

pub fn run(args: Vec<String>) {
    Cli::new("taco-cli scaling", "cycles per datagram vs routing-table size, per organisation")
        .parse_args_or_exit(args);
    println!("cycles per datagram vs routing-table size (cycle-accurate simulation)");
    println!();
    eprintln!(
        "sweeping {} sizes per series on {} worker thread(s) (set {} to override)",
        SCALING_SIZES.len(),
        pool::default_threads(),
        pool::THREADS_ENV
    );
    // PATRICIA rides as a fourth series: depth tracks branching, not size.
    for kind in TableKind::ALL_KINDS {
        println!("== {kind} ==");
        print!("{:<22}", "config \\ entries");
        for n in SCALING_SIZES {
            print!("{n:>9}");
        }
        println!();
        for config in [
            ArchConfig::one_bus_one_fu(kind),
            ArchConfig::three_bus_one_fu(kind),
            ArchConfig::three_bus_three_fu(kind),
        ] {
            let started = Instant::now();
            print!("{:<22}", config.machine.label());
            for (_, cycles) in scaling_sweep(&config, &SCALING_SIZES) {
                print!("{cycles:>9.0}");
            }
            println!();
            eprintln!("  {:<20} {:>8.1} ms", config.label(), started.elapsed().as_secs_f64() * 1e3);
        }
        println!();
    }
    report_cache();
}
