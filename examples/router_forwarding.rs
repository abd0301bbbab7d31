//! The paper's Fig. 1 router in action, at two levels of abstraction:
//!
//! 1. the *behavioural* router (line cards + forwarding core + RIPng)
//!    pushing a synthetic workload between four ports;
//! 2. the *cycle-accurate* router forwarding the same datagrams through the
//!    TACO microcode on each of the paper's three architecture
//!    configurations, reporting cycles per datagram and bus utilisation.
//!
//! ```text
//! cargo run --release --example router_forwarding
//! ```

use taco::ipv6::Ipv6Prefix;
use taco::isa::MachineConfig;
use taco::router::cycle::CycleRouter;
use taco::router::microcode::MicrocodeOptions;
use taco::router::{Router, TrafficGen};
use taco::routing::ripng::InterfaceConfig;
use taco::routing::{PortId, SequentialTable, SimTime, TableKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    behavioural_router()?;
    cycle_accurate_router()?;
    Ok(())
}

/// Four line cards around a forwarding core, as in Fig. 1.
fn behavioural_router() -> Result<(), Box<dyn std::error::Error>> {
    println!("== behavioural router: 4 line cards, RIPng control plane ==");
    let interfaces: Vec<InterfaceConfig> = (0..4u16)
        .map(|i| {
            let prefix: Ipv6Prefix = format!("2001:db8:{i}::/48").parse().expect("valid prefix");
            InterfaceConfig::new(
                PortId(i),
                format!("fe80::{}", i + 1).parse().expect("valid address"),
                vec![prefix],
            )
        })
        .collect();
    let mut router = Router::new(interfaces, SequentialTable::new());

    // 60 datagrams between the connected networks, plus strays.
    let mut gen = TrafficGen::new(42, 4);
    let routes: Vec<_> = router.ripng().routes().copied().collect();
    for _ in 0..60 {
        let (port, frame) = gen.forwarding_frame(&routes, 0.8, 64);
        router.card_mut(port).receive_raw(frame);
    }
    let report = router.tick(SimTime::ZERO);
    println!(
        "tick: {} forwarded, {} dropped, {} delivered, {} RIPng updates sent",
        report.forwarded, report.dropped, report.delivered, report.ripng_sent
    );
    for port in 0..4u16 {
        let sent = router.card(PortId(port)).transmitted().len();
        println!("  port{port}: {sent} datagrams transmitted");
    }
    println!();
    Ok(())
}

/// The same forwarding job, cycle-accurately, across the paper's three
/// configurations.
fn cycle_accurate_router() -> Result<(), Box<dyn std::error::Error>> {
    println!("== cycle-accurate router: TACO microcode, sequential table ==");
    let mut gen = TrafficGen::new(43, 4);
    let routes = gen.table(32, true);
    let workload = gen.forwarding_workload(&routes, 16, 1.0, 64);

    for config in [
        MachineConfig::one_bus_one_fu(),
        MachineConfig::three_bus_one_fu(),
        MachineConfig::three_bus_three_fu(),
    ] {
        let opts = MicrocodeOptions::default();
        let mut router = CycleRouter::for_kind(TableKind::Sequential, &config, &routes, 1, &opts)?;
        for (port, dgram) in &workload {
            router.enqueue(*port, dgram)?;
        }
        let stats = router.run(50_000_000)?;
        let out = router.forwarded();
        println!(
            "  {:<20} {:>6} cycles for {} datagrams ({:>5.0} cycles each), bus util {:>3.0}%",
            config.label(),
            stats.cycles,
            out.len(),
            stats.cycles as f64 / out.len() as f64,
            stats.bus_utilization() * 100.0
        );
        // The paper's per-module utilization data, busiest units first.
        let mut modules: Vec<_> = stats.fu_instance_triggers.iter().collect();
        modules.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        let line: Vec<String> = modules
            .iter()
            .take(5)
            .map(|&(fu, _)| format!("{fu} {:.0}%", stats.module_utilization(fu) * 100.0))
            .collect();
        println!("    module utilization: {}", line.join(", "));
    }
    Ok(())
}
