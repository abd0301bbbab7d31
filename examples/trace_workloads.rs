//! The three 3BUS organisations under the two new workloads: the
//! `mixed-plane` builtin (alternating control storms and forwarding
//! bursts) and an explicit binary flow trace generated with the
//! empirical IPv6 traffic shapes (heavy-tailed flow lengths, trimodal
//! packet sizes, prefix-local destination popularity).
//!
//! The printed table is the source of the "Mixed control/data plane and
//! trace replay" section of EXPERIMENTS.md — rerun this example to
//! regenerate those numbers:
//!
//! ```text
//! cargo run --release --example trace_workloads
//! ```
//!
//! Every figure is deterministic: the workloads are seeded, the metrics
//! are all-integer, and the trace rows replay the exact same records on
//! each organisation (one `Arc<FlowTrace>` shared across cells).

use std::sync::Arc;

use taco::eval::{ArchConfig, EvalRequest, TableKind, TraceGen, Workload};

/// Generator parameters for the reference trace.  Documented in
/// EXPERIMENTS.md next to the table these rows feed.
const TRACE_SEED: u64 = 7;
const TRACE_TICKS: u32 = 400;
const TRACE_FLOWS: u32 = 2000;
const TABLE_ENTRIES: u32 = 100;

fn main() {
    let kinds = [
        ("sequential 3BUS/1FU", TableKind::Sequential),
        ("balanced tree 3BUS/1FU", TableKind::BalancedTree),
        ("CAM 3BUS/1FU", TableKind::Cam),
    ];
    let trace = Arc::new(TraceGen::generate(TRACE_SEED, TRACE_TICKS, TRACE_FLOWS, TABLE_ENTRIES));
    println!(
        "reference trace: seed {TRACE_SEED}, {TRACE_TICKS} ticks, {TRACE_FLOWS} flows, \
         {} records, digest {:#018x}",
        trace.records().len(),
        trace.digest()
    );
    println!();

    println!("| cell | workload | cycles | offered | forwarded | dropped | max queue | mean latency (ticks) | table updates |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for (label, kind) in kinds {
        let config = ArchConfig::three_bus_one_fu(kind);
        let mixed = EvalRequest::new(config.clone())
            .entries(TABLE_ENTRIES as usize)
            .workload(Workload::mixed_plane())
            .run();
        print_row(label, "mixed-plane", &mixed);
        let replay = EvalRequest::new(config)
            .entries(TABLE_ENTRIES as usize)
            .flow_trace(Arc::clone(&trace))
            .run();
        print_row(label, "trace", &replay);
        if let Some(flows) = replay.scenario.as_ref().and_then(|s| s.flows.as_ref()) {
            eprintln!(
                "  {label}: {} flows, {} packets (sizes {} small / {} medium / {} large, \
                 longest flow {} packets)",
                flows.flows,
                flows.packets(),
                flows.small,
                flows.medium,
                flows.large,
                flows.max_flow_len
            );
        }
    }
}

fn print_row(label: &str, workload: &str, report: &taco::eval::EvalReport) {
    let s = report.scenario.as_ref().expect("scenario workload attached");
    println!(
        "| {label} | {workload} | {:.0} | {} | {} | {} | {} | {:.1} | {} |",
        report.cycles_per_datagram,
        s.offered,
        s.forwarded,
        s.dropped(),
        s.max_queue_depth,
        s.latency.mean_milli() as f64 / 1000.0,
        s.table_updates(),
    );
}
