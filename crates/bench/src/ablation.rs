//! `taco-cli ablation` — the sequential-scan microcode's design choices
//! (DESIGN.md §5): the lane-unroll factor and the screening-word selection.
//!
//! * **unroll** — how many entries one scan block screens with distinct
//!   virtual Matcher/Counter instances.  More lanes help exactly when the
//!   machine has the buses/FUs to overlap them.
//! * **screen word** — which 32-bit address word the screening pass
//!   compares.  Real tables cluster under a shared global prefix, so
//!   screening on word 0 false-positives on every entry and degrades the
//!   scan to full 128-bit verification.
//!
//! Every cell is an independent cycle-accurate run, so each grid is
//! measured in parallel on the `taco-core` worker pool (`TACO_THREADS`
//! overrides the worker count); cells print in grid order regardless of
//! completion order.

use std::time::Instant;

use crate::cli::Cli;
use taco_core::{benchmark_routes, pool};
use taco_ipv6::{Datagram, NextHeader};
use taco_isa::MachineConfig;
use taco_router::microcode::{choose_screen_word, sequential_program, MicrocodeOptions};
use taco_router::{layout, TrafficGen};
use taco_routing::{PortId, Route, SequentialTable};

const ENTRIES: usize = 64;

/// A table whose entries all share their first 32 address bits — the shape
/// of a real provider table, and the worst case for word-0 screening.
fn clustered_routes() -> Vec<Route> {
    (0..ENTRIES as u16)
        .map(|i| {
            Route::new(
                format!("2001:db8:{i:x}::/48").parse().expect("valid"),
                "fe80::1".parse().expect("valid"),
                PortId(i % 4),
                1,
            )
        })
        .collect()
}

/// The screen word `TableImage::new` would choose for `routes`.
fn auto_word(routes: &[Route]) -> u8 {
    choose_screen_word(&SequentialTable::from_routes(routes.iter().copied()))
}

/// Datagrams per measurement run, as `taco_core`'s measurement workload.
const DATAGRAMS: u32 = 8;

/// Cycles per datagram of the scan built with exactly `opts` on `config`,
/// and the `(pointer, interface)` pairs the run output.
fn measure(
    config: &MachineConfig,
    routes: &[Route],
    opts: &MicrocodeOptions,
) -> (f64, Vec<(u32, u32)>) {
    // The router is built by hand because `TableImage::new` would re-tune
    // the screen word this ablation has to force.  The input differs too:
    // this steps one run over eight datagrams drawn towards the deepest
    // entry, where the product path prices its rounds from a profile
    // stepped over one such datagram enqueued eight times (`taco_core`'s
    // `prepared.rs` and `price.rs`).  Every datagram takes the deepest
    // entry's path either way, so the cycles per datagram agree
    // (`tests::the_shared_cells_are_table_1s`).
    let table = SequentialTable::from_routes(routes.iter().copied());
    let mut image = layout::serialize_sequential(&table);
    taco_router::microcode::pad_sequential_image(&mut image, opts.unroll);
    let padded = image.len() / layout::SEQ_ENTRY_WORDS as usize;
    let mut seq = sequential_program(padded, opts);
    taco_isa::optimize(&mut seq);

    let mut program = taco_isa::schedule(&seq, config);
    program.resolve_labels().expect("labels defined");
    let mut cpu = taco_sim::Processor::new(config.clone(), program).expect("valid program");
    cpu.memory_mut().load(layout::TABLE_BASE, &image).expect("image fits");

    let mut gen = TrafficGen::new(0x0DA7A, 4);
    let deepest = *table.entries().last().expect("non-empty");
    // The slots `CycleRouter` loads a batch into: one each, above the image.
    let slots = layout::dgram_base(layout::TABLE_BASE + image.len() as u32);
    for i in 0..DATAGRAMS {
        let d = Datagram::builder(
            "2001:db8:ffff::1".parse().expect("valid"),
            gen.addr_in(&deepest.prefix()),
        )
        .hop_limit(64)
        .payload(NextHeader::Udp, vec![0u8; 32])
        .build();
        let words = layout::datagram_to_words(&d);
        let addr = slots + i * layout::DGRAM_SLOT_WORDS;
        cpu.memory_mut().load(addr, &words).expect("fits");
        cpu.push_input(addr, 0);
    }
    let cycles = cpu.run(50_000_000).expect("halts").cycles;
    (cycles as f64 / f64::from(DATAGRAMS), cpu.drain_outputs())
}

/// One grid cell: the machine, the table and the options it is built with.
type Cell<'a> = (MachineConfig, &'a [Route], MicrocodeOptions);

/// Measures `cells` — row-major, one row per name — in parallel, with one
/// stderr progress line, and prints the rows in grid order; `tail(row)`
/// ends each.
fn print_grid(
    label: &str,
    names: &[impl std::fmt::Display],
    width: usize,
    cells: &[Cell<'_>],
    tail: impl Fn(usize) -> String,
) {
    let threads = pool::default_threads();
    let started = Instant::now();
    let results = pool::ordered_map(cells, threads, |_, (config, routes, opts)| {
        measure(config, routes, opts).0
    });
    eprintln!(
        "{label}: {} cells on {threads} worker thread(s), {:.1} ms",
        cells.len(),
        started.elapsed().as_secs_f64() * 1e3
    );
    for (row, chunk) in results.chunks(cells.len() / names.len()).enumerate() {
        print!("{:<width$}", names[row]);
        for cycles in chunk {
            print!(" {cycles:>8.0}");
        }
        println!("{}", tail(row));
    }
}

pub fn run(args: Vec<String>) {
    Cli::new(
        "taco-cli ablation",
        "sequential-scan microcode tunables: unroll factor, screening word",
    )
    .parse_args_or_exit(args);
    let diverse = benchmark_routes(ENTRIES);
    let clustered = clustered_routes();
    println!("sequential-scan ablation, {ENTRIES} entries, worst-case traffic");
    println!();

    println!("— unroll factor (diverse table, screen word {}) —", auto_word(&diverse));
    println!("{:<22} {:>8} {:>8} {:>8}", r"config \ unroll", 1, 2, 3);
    let configs = [
        MachineConfig::one_bus_one_fu(),
        MachineConfig::three_bus_one_fu(),
        MachineConfig::three_bus_three_fu(),
    ];
    let unroll_cells: Vec<Cell<'_>> = configs
        .iter()
        .flat_map(|config| {
            (1..=3u8).map(|unroll| {
                let opts = MicrocodeOptions { unroll, screen_word: auto_word(&diverse) };
                (config.clone(), diverse.as_slice(), opts)
            })
        })
        .collect();
    let names: Vec<String> = configs.iter().map(MachineConfig::label).collect();
    print_grid("unroll grid", &names, 22, &unroll_cells, |_| String::new());

    println!();
    println!("— screening word (unroll 3, 3BUS/1FU) —");
    println!("{:<30} {:>8} {:>8} {:>8} {:>8}  {:>6}", r"table \ word", 0, 1, 2, 3, "auto");
    let tables: [(&str, &[Route]); 2] =
        [("diverse (random /16-/64)", &diverse), ("clustered (2001:db8::/32)", &clustered)];
    let screen_cells: Vec<Cell<'_>> = tables
        .iter()
        .flat_map(|&(_, routes)| {
            (0..4u8).map(move |word| {
                let opts = MicrocodeOptions { unroll: 3, screen_word: word };
                (MachineConfig::three_bus_one_fu(), routes, opts)
            })
        })
        .collect();
    let names = tables.map(|(name, _)| name);
    print_grid("screen-word grid", &names, 30, &screen_cells, |row| {
        format!("  {:>6}", auto_word(tables[row].1))
    });
    println!();
    println!("on a clustered table every prefix shares address word 0, so screening");
    println!("on it false-positives on every entry and the scan pays the full 128-bit");
    println!("verify; the auto-chooser picks the most discriminating word per table.");

    println!();
    println!("— memory ports (diverse table, unroll 3) —");
    println!("(probing EXPERIMENTS.md deviation D1: with >1 memory word per cycle,");
    println!(" does FU replication finally pay, as the paper's numbers imply?)");
    println!("{:<26} {:>8} {:>8} {:>8}", r"config \ mmu ports", 1, 2, 3);
    let bases = [
        ("3BUS/1FU", MachineConfig::three_bus_one_fu()),
        ("3bus/3CNT,3CMP,3M", MachineConfig::three_bus_three_fu()),
        (
            "6bus/3CNT,3CMP,3M",
            MachineConfig::new(6)
                .with_fu_count(taco_isa::FuKind::Counter, 3)
                .with_fu_count(taco_isa::FuKind::Comparator, 3)
                .with_fu_count(taco_isa::FuKind::Matcher, 3),
        ),
    ];
    let port_cells: Vec<Cell<'_>> = bases
        .iter()
        .flat_map(|(_, base)| {
            (1..=3u8).map(|ports| {
                let config = base.clone().with_fu_count(taco_isa::FuKind::Mmu, ports);
                let opts = MicrocodeOptions { unroll: 3, screen_word: auto_word(&diverse) };
                (config, diverse.as_slice(), opts)
            })
        })
        .collect();
    let names: Vec<&str> = bases.iter().map(|&(name, _)| name).collect();
    print_grid("memory-port grid", &names, 26, &port_cells, |_| String::new());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use taco_core::{ArchConfig, EvalRequest};
    use taco_routing::TableKind;

    /// The cells the unroll grid shares with Table 1 — unroll 3, the
    /// auto-chosen screen word, the three paper machine shapes — are the
    /// product path's numbers exactly, not a second measurement of them,
    /// and they forward all eight datagrams, each from its own slot.
    #[test]
    fn the_shared_cells_are_table_1s() {
        let routes = benchmark_routes(ENTRIES);
        let opts = MicrocodeOptions { unroll: 3, screen_word: auto_word(&routes) };
        for config in [
            ArchConfig::one_bus_one_fu(TableKind::Sequential),
            ArchConfig::three_bus_one_fu(TableKind::Sequential),
            ArchConfig::three_bus_three_fu(TableKind::Sequential),
        ] {
            let report = EvalRequest::new(config.clone()).entries(ENTRIES).run();
            let (cycles, outputs) = measure(&config.machine, &routes, &opts);
            assert_eq!(cycles, report.cycles_per_datagram, "{}", config.label());
            let pointers: BTreeSet<u32> = outputs.iter().map(|&(ptr, _)| ptr).collect();
            assert_eq!(outputs.len(), DATAGRAMS as usize, "{}", config.label());
            assert_eq!(pointers.len(), DATAGRAMS as usize, "{}", config.label());
        }
    }
}
