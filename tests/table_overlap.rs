//! The datagram slots sit above the table image, whatever its size.
//!
//! Before this was pinned the slots started at the fixed `DGRAM_BASE`, so
//! any image past 7936 words (661 sequential entries) had datagrams written
//! over its tail: the sequential scan died in the corrupted region (1024
//! and 2048 entries both "cost" 36241 cycles), a 661-entry balanced-tree walk
//! chased an overwritten pointer until the watchdog fired, and a 2048-entry
//! PATRICIA cell reported a plausible clock for a table it had shredded.

use taco::eval::{evaluate_request, ArchConfig, EvalReport, EvalRequest};
use taco::routing::TableKind;
use taco::sim::SimError;

fn evaluate(kind: TableKind, entries: usize) -> EvalReport {
    evaluate_request(&EvalRequest::new(ArchConfig::three_bus_one_fu(kind)).entries(entries))
}

#[test]
fn sequential_cost_stays_linear_past_the_old_slot_base() {
    let cycles = [512, 1024, 2048].map(|n| {
        let report = evaluate(TableKind::Sequential, n);
        assert_eq!(report.sim_error, None, "n={n}");
        report.stats.cycles as f64
    });
    assert!(cycles[0] < cycles[1] && cycles[1] < cycles[2], "{cycles:?}");
    for pair in cycles.windows(2) {
        let ratio = pair[1] / pair[0];
        assert!((1.9..2.1).contains(&ratio), "doubling the table must double the scan: {cycles:?}");
    }
}

#[test]
fn a_tree_reaching_past_the_old_slot_base_still_simulates() {
    // 661 routes: ~1300 eight-word nodes, the first image to cross 0x2000.
    let report = evaluate(TableKind::BalancedTree, 661);
    assert_eq!(report.sim_error, None);
    assert!(report.is_feasible(), "{report}");
    // One more level than at 100 entries, not a runaway walk.
    let small = evaluate(TableKind::BalancedTree, 100);
    assert!(report.stats.cycles < 2 * small.stats.cycles, "{report} vs {small}");
}

#[test]
fn a_table_that_fills_data_memory_is_infeasible_not_a_panic() {
    // The image itself does not fit (~127 k words against 65 536) ...
    let oversize = evaluate(TableKind::Patricia, 4096);
    assert!(matches!(oversize.sim_error, Some(SimError::MemoryOutOfBounds { .. })), "{oversize}");
    // ... or it fits and leaves no room above it for the eight measurement
    // datagrams: a structured report, where `measure` used to `expect`.
    let patricia = evaluate(TableKind::Patricia, 2048);
    assert!(matches!(patricia.sim_error, Some(SimError::MemoryOutOfBounds { .. })), "{patricia}");
    assert!(!patricia.is_feasible());
    assert_eq!(patricia.program_bits, 0);
    // The CAM holds its table in 8192 rows of its own, not in data memory:
    // one route more used to panic inside `CamTable::insert`, and says what
    // is full rather than naming a memory address.
    let cam = evaluate(TableKind::Cam, 8193);
    assert_eq!(cam.sim_error, Some(SimError::TableFull { capacity: 8192 }));
    assert!(!cam.is_feasible());
    assert_eq!(cam.program_bits, 0);
    assert_eq!(evaluate(TableKind::Cam, 8192).sim_error, None);
}
