//! `taco-cli table1` — the extended Table 1: estimated minimum clock
//! frequencies, bus utilisation, processor areas and average power for the
//! twelve routing-table × architecture configurations (the paper's nine
//! plus the three PATRICIA rows).

use crate::cli::{report_cache, Cli};
use taco_core::{table1, LineRate};

pub fn run(args: Vec<String>) {
    let cli = Cli::new("taco-cli table1", "regenerate the paper's Table 1")
        .flag("--csv", "emit CSV instead of the rendered table")
        .positional("entries", "routing-table size", Some("100"))
        .positional("packet_bytes", "assumed bytes per packet", Some("1040"));
    let args = cli.parse_args_or_exit(args);
    let entries: usize = args.pos_parsed("entries").unwrap_or_else(|e| cli.fail(&e));
    if entries == 0 {
        cli.fail("entries must be at least 1");
    }
    let packet_bytes: u32 = args.pos_parsed("packet_bytes").unwrap_or_else(|e| cli.fail(&e));
    let rate = LineRate::new(10e9, packet_bytes);
    let reports = table1::table1(rate, entries);
    report_cache();

    if args.flag("--csv") {
        print!("{}", table1::to_csv(&reports));
        return;
    }
    println!("Table 1 — 10 Gbps line rate, {entries}-entry routing table, {rate}");
    println!("(CAM rows exclude the external CAM chip, as in the paper; its");
    println!(" ~1.75 W average is reported separately in EXPERIMENTS.md)");
    println!();
    print!("{}", table1::render(&reports));

    println!();
    println!("paper's corresponding \"Required speed\" column:");
    println!("  sequential    : 6 GHz / 2 GHz / 1 GHz");
    println!("  balanced tree : 1.2 GHz / 600 MHz / 250 MHz");
    println!("  CAM           : 118 MHz / 40 MHz / 35 MHz");
}
