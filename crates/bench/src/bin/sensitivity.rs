//! Packet-size sensitivity of the Table 1 frequencies.
//!
//! The paper states the 10 Gbps target but not its traffic assumption; the
//! required clock scales linearly with the packet rate, i.e. inversely with
//! packet size.  This sweep shows where each routing-table organisation
//! crosses the 0.18 µm feasibility ceiling as packets shrink from jumbo
//! frames to the 84-byte minimum — the ratios between rows are constant,
//! which is why EXPERIMENTS.md compares shapes rather than absolute cells.
//!
//! ```text
//! cargo run -p taco-bench --release --bin sensitivity
//! ```

use std::time::Instant;

use taco_bench::cli::Cli;
use taco_core::{
    ArchConfig, EvalCache, EvalRequest, LineRate, PointRecord, StderrProgress, SweepObserver,
};
use taco_estimate::Estimator;
use taco_routing::TableKind;

const PACKET_BYTES: [u32; 6] = [84, 256, 512, 1040, 4096, 9018];

fn main() {
    Cli::new("sensitivity", "required clock vs packet-size assumption at 10 Gbps").parse_or_exit();
    let entries = 64;
    let ceiling = Estimator::new().max_frequency_hz();
    println!("required clock (MHz) at 10 Gbps vs packet size, {entries}-entry table");
    println!(
        "3BUS/1FU configuration; '*' marks cells above the {:.0} MHz 0.18um ceiling",
        ceiling / 1e6
    );
    println!();
    print!("{:<16}", "bytes/packet");
    for b in PACKET_BYTES {
        print!("{b:>10}");
    }
    println!();

    let cache = EvalCache::global();
    let observer = StderrProgress::new();
    for (i, kind) in TableKind::PAPER_KINDS.into_iter().enumerate() {
        // One simulation per kind: cycles are rate-independent, so evaluate
        // once (memoised in the process-global cache) and rescale.
        let started = Instant::now();
        let (base, cache_hit) = cache.evaluate_recorded(
            &EvalRequest::new(ArchConfig::three_bus_one_fu(kind))
                .rate(LineRate::new(10e9, PACKET_BYTES[0]))
                .entries(entries),
        );
        observer.on_point(&PointRecord {
            index: i,
            total: TableKind::PAPER_KINDS.len(),
            report: &base,
            cache_hit,
            wall: started.elapsed(),
        });
        print!("{:<16}", kind.to_string());
        for bytes in PACKET_BYTES {
            let f = LineRate::new(10e9, bytes).required_frequency_hz(base.cycles_per_datagram);
            let mark = if f >= ceiling { "*" } else { "" };
            print!("{:>10}", format!("{:.0}{mark}", f / 1e6));
        }
        println!();
    }
    println!();
    println!("row ratios are packet-size independent; the crossing points move.");
}
