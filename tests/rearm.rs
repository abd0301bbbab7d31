//! `CycleRouter::rearm` against its specification: a router that has run
//! (to completion, or into the watchdog mid-datagram) and is re-armed with
//! a new RTU latency must be indistinguishable from one freshly built at
//! that latency — same statistics, oPPU outputs, registers, data memory and
//! forwarded bytes after the next run.  The CAM latency fixed point in
//! `evaluate_request` iterates on exactly this.

use taco::eval::benchmark_routes;
use taco::ipv6::{Datagram, NextHeader};
use taco::isa::MachineConfig;
use taco::router::cycle::{CycleRouter, TableImage};
use taco::router::microcode::MicrocodeOptions;
use taco::router::traffic::TrafficGen;
use taco::routing::{PortId, Route, TableKind};
use taco::sim::{DataMemory, SimError, SimStats};

const ENTRIES: usize = 48;
const BUDGET: u64 = 10_000_000;

/// Twelve datagrams spread over the table: hits at every depth and a miss.
fn traffic(routes: &[Route]) -> Vec<Datagram> {
    let mut gen = TrafficGen::new(0x5EED, 4);
    (0..12)
        .map(|i| {
            let dst = match routes.get(i * 5) {
                Some(route) => gen.addr_in(&route.prefix()),
                None => "9999::1".parse().unwrap(),
            };
            Datagram::builder("2001:db8:ffff::1".parse().unwrap(), dst)
                .hop_limit(64 - i as u8)
                .payload(NextHeader::Udp, vec![i as u8; 8 + i])
                .build()
        })
        .collect()
}

/// Everything observable about a router after a run.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Result<SimStats, SimError>,
    stats: SimStats,
    outputs: Vec<(u32, u32)>,
    registers: Vec<u32>,
    memory: DataMemory,
    forwarded: Vec<(PortId, Vec<u8>)>,
    pc: usize,
    cycles: u64,
    halted: bool,
    malformed: u64,
}

fn run_and_observe(router: &mut CycleRouter, datagrams: &[Datagram], budget: u64) -> Observed {
    router.enqueue_batch(datagrams.iter().map(|d| (PortId(1), d))).expect("slots fit");
    let outcome = router.run(budget);
    let cpu = router.processor();
    Observed {
        outcome,
        stats: cpu.stats().clone(),
        outputs: cpu.outputs().to_vec(),
        registers: (0..16).map(|i| cpu.reg(i)).collect(),
        memory: cpu.memory().clone(),
        forwarded: router.forwarded().into_iter().map(|(p, d)| (p, d.to_bytes())).collect(),
        pc: cpu.pc(),
        cycles: cpu.cycles(),
        halted: cpu.is_halted(),
        malformed: router.malformed_rejected(),
    }
}

fn machines() -> [MachineConfig; 3] {
    [
        MachineConfig::one_bus_one_fu(),
        MachineConfig::three_bus_one_fu(),
        MachineConfig::three_bus_three_fu(),
    ]
}

#[test]
fn a_rearmed_router_equals_a_freshly_built_one() {
    let routes = benchmark_routes(ENTRIES);
    let datagrams = traffic(&routes);
    for kind in TableKind::ALL_KINDS {
        let image = TableImage::new(kind, &routes, &MicrocodeOptions::default()).unwrap();
        for machine in machines() {
            let mut reused = CycleRouter::from_image(&machine, &image, 1).expect("builds");
            // Each round enqueues fewer datagrams than the one before, so a
            // slot the re-arm failed to clear shows up in the memory image.
            for (round, latency) in [1, 9, 3].into_iter().enumerate() {
                let batch = &datagrams[round * 4..];
                let mut fresh = CycleRouter::from_image(&machine, &image, latency).expect("builds");
                reused.rearm(latency);
                let expected = run_and_observe(&mut fresh, batch, BUDGET);
                assert!(expected.outcome.is_ok() && !expected.forwarded.is_empty(), "{kind}");
                let what = format!("{kind} on {machine:?} at latency {latency}");
                assert_eq!(run_and_observe(&mut reused, batch, BUDGET), expected, "{what}");
            }
        }
    }
}

#[test]
fn rearm_after_a_watchdog_mid_run_leaves_no_trace() {
    let routes = benchmark_routes(ENTRIES);
    let datagrams = traffic(&routes);
    for kind in TableKind::ALL_KINDS {
        let image = TableImage::new(kind, &routes, &MicrocodeOptions::default()).unwrap();
        let machine = MachineConfig::three_bus_one_fu();
        let mut fresh = CycleRouter::from_image(&machine, &image, 4).expect("builds");
        let expected = run_and_observe(&mut fresh, &datagrams, BUDGET);
        let total = expected.stats.cycles;

        // Stop at several points inside the run: datagrams half processed,
        // hop limits already written back, an RTU search possibly in flight.
        for budget in [1, total / 3, total / 2, total - 1] {
            let mut reused = CycleRouter::from_image(&machine, &image, 6).expect("builds");
            assert_eq!(reused.enqueue_raw(PortId(0), &[0xff; 12]), Ok(false));
            let interrupted = run_and_observe(&mut reused, &datagrams, budget);
            assert_eq!(interrupted.outcome, Err(SimError::Watchdog { budget }), "{kind}");
            assert_eq!(interrupted.malformed, 1);
            reused.rearm(4);
            let what = format!("{kind} interrupted after {budget} of {total} cycles");
            assert_eq!(run_and_observe(&mut reused, &datagrams, BUDGET), expected, "{what}");
        }
    }
}
