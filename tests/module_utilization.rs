//! Integration test over the paper's "module utilization" output: the
//! simulator reports per-instance trigger rates, and FU replication spreads
//! the load across instances.

use taco::ipv6::{Datagram, NextHeader};
use taco::isa::{FuKind, FuRef, MachineConfig};
use taco::router::cycle::CycleRouter;
use taco::router::microcode::MicrocodeOptions;
use taco::routing::{PortId, Route, TableKind};

fn run(config: &MachineConfig) -> taco::sim::SimStats {
    let routes: Vec<Route> = (0..24u16)
        .map(|i| {
            Route::new(
                format!("2001:db8:{i:x}::/48").parse().expect("valid"),
                "fe80::1".parse().expect("valid"),
                PortId(i % 4),
                1,
            )
        })
        .collect();
    let opts = MicrocodeOptions::default();
    let mut router =
        CycleRouter::for_kind(TableKind::Sequential, config, &routes, 1, &opts).expect("valid");
    let d = Datagram::builder(
        "2001:db8:ff::1".parse().expect("valid"),
        "2001:db8:17::9".parse().expect("valid"),
    )
    .hop_limit(64)
    .payload(NextHeader::Udp, vec![0u8; 16])
    .build();
    router.enqueue(PortId(0), &d).expect("fits");
    router.run(10_000_000).expect("halts");
    router.processor().stats().clone()
}

#[test]
fn replication_spreads_matcher_load_across_instances() {
    let narrow = run(&MachineConfig::three_bus_one_fu());
    let wide = run(&MachineConfig::three_bus_three_fu());

    let m = |s: &taco::sim::SimStats, i: u8| {
        s.fu_instance_triggers.get(&FuRef::new(FuKind::Matcher, i)).copied().unwrap_or(0)
    };
    // One instance carries everything on the narrow machine…
    assert!(m(&narrow, 0) > 0);
    assert_eq!(m(&narrow, 1), 0);
    // …and the three-matcher machine uses all three lanes.
    assert!(m(&wide, 0) > 0, "{:?}", wide.fu_instance_triggers);
    assert!(m(&wide, 1) > 0, "{:?}", wide.fu_instance_triggers);
    assert!(m(&wide, 2) > 0, "{:?}", wide.fu_instance_triggers);
}

#[test]
fn module_utilization_is_a_rate() {
    let stats = run(&MachineConfig::three_bus_one_fu());
    let mmu = stats.module_utilization(FuRef::new(FuKind::Mmu, 0));
    assert!(mmu > 0.0 && mmu <= 1.0, "{mmu}");
    // The MMU is the scan's busiest unit.
    let matcher = stats.module_utilization(FuRef::new(FuKind::Matcher, 0));
    assert!(mmu > matcher, "mmu {mmu} vs matcher {matcher}");
}
