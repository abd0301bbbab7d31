//! Property test: replaying a `RingTracer` capture reproduces `SimStats`.
//!
//! The trace subsystem and the aggregate counters are two observers of the
//! same execution; if they ever disagree, one of them is lying.  Random
//! straight-line programs (guaranteed to halt) built from guarded moves,
//! datapath triggers and stalling RTU lookups are run under a
//! large-capacity `RingTracer`, and [`TraceCounters::from_events`] must
//! equal [`TraceCounters::from_stats`] exactly — `moves_executed`,
//! `moves_squashed`, per-instance `fu_instance_triggers` and
//! `stall_cycles`, across 1–3 bus schedules and RTU latencies 1–9.

#![cfg(feature = "proptest")]

use proptest::prelude::*;

use taco::isa::{schedule, CodeBuilder, FuKind, MachineConfig, MoveSeq};
use taco::sim::{
    MapRtu, NoFaults, Processor, RingTracer, RtuConfig, RtuResult, TraceCounters,
};

/// One straight-line template; every template terminates, so any program
/// built from them halts.
#[derive(Debug, Clone)]
enum Op {
    /// `value -> regs0.rN`.
    LoadImm { reg: u8, value: u32 },
    /// Counter set + add + read back: two triggers on a chosen instance.
    CounterAdd { fu: u8, add: u32, out: u8 },
    /// Matcher probe followed by a guarded pair: exactly one of the two
    /// moves squashes every run.
    MatchSelect { fu: u8, mask: u32, refv: u32, probe: u32, out: u8 },
    /// RTU lookup: operand writes, trigger, result read — the read stalls
    /// until the configured latency elapses.
    RtuLookup { key: u32, out: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let reg = || 0u8..8;
    prop_oneof![
        (reg(), any::<u32>()).prop_map(|(reg, value)| Op::LoadImm { reg, value }),
        (0u8..2, any::<u32>(), reg()).prop_map(|(fu, add, out)| Op::CounterAdd { fu, add, out }),
        (0u8..2, any::<u32>(), any::<u32>(), any::<u32>(), reg()).prop_map(
            |(fu, mask, refv, probe, out)| Op::MatchSelect { fu, mask, refv, probe, out }
        ),
        (any::<u32>(), reg()).prop_map(|(key, out)| Op::RtuLookup { key, out }),
    ]
}

fn build(ops: &[Op]) -> MoveSeq {
    let mut b = CodeBuilder::new();
    for op in ops {
        match *op {
            Op::LoadImm { reg, value } => b.mv(value, b.reg(reg)),
            Op::CounterAdd { fu, add, out } => {
                let c = b.fu(FuKind::Counter, fu);
                b.mv(0u32, c.port("tset"));
                b.mv(add, c.port("tadd"));
                b.mv(c.port("r"), b.reg(out));
            }
            Op::MatchSelect { fu, mask, refv, probe, out } => {
                let m = b.fu(FuKind::Matcher, fu);
                b.mv(mask, m.port("mask"));
                b.mv(refv, m.port("refv"));
                b.mv(probe, m.port("t"));
                b.mv_if(m.guard("match"), 1u32, b.reg(out));
                b.mv_unless(m.guard("match"), 0u32, b.reg(out));
            }
            Op::RtuLookup { key, out } => {
                let rtu = b.fu(FuKind::Rtu, 0);
                b.mv(key, rtu.port("k0"));
                b.mv(key ^ 0xdead_beef, rtu.port("k1"));
                b.mv(0u32, rtu.port("k2"));
                b.mv(key, rtu.port("t"));
                b.mv(rtu.port("iface"), b.reg(out));
            }
        }
    }
    b.finish()
}

/// The RTU backend: answers half the key space so both hit and miss paths
/// appear.
fn backend() -> MapRtu {
    let mut map = MapRtu::new();
    for key in 0u32..8 {
        map.insert([key, key ^ 0xdead_beef, 0, key], RtuResult { iface: key, handle: key });
    }
    map
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ring_replay_reproduces_sim_stats(
        ops in prop::collection::vec(arb_op(), 1..24),
        buses in 1u8..=3,
        replication in 1u8..=2,
        rtu_latency in 1u32..=9,
    ) {
        let seq = build(&ops);
        let mut machine = MachineConfig::new(buses);
        if replication > 1 {
            for kind in FuKind::REPLICABLE {
                machine = machine.with_fu_count(kind, replication);
            }
        }
        let mut program = schedule(&seq, &machine);
        program.resolve_labels().expect("straight-line code");
        let mut cpu = Processor::new(machine, program).expect("valid program");
        cpu.set_rtu(RtuConfig::new(Box::new(backend())).with_latency(rtu_latency));

        let mut ring = RingTracer::new(1 << 20);
        let stats = cpu
            .run_with(1_000_000, &mut ring, &mut NoFaults)
            .expect("straight-line code halts");
        prop_assert!(ring.is_complete(), "capture evicted {} events", ring.dropped());

        let replayed = TraceCounters::from_events(ring.events());
        let reported = TraceCounters::from_stats(&stats);
        prop_assert_eq!(replayed, reported);
    }

    #[test]
    fn traced_run_is_observationally_identical_to_untraced(
        ops in prop::collection::vec(arb_op(), 1..16),
        buses in 1u8..=3,
        rtu_latency in 1u32..=6,
    ) {
        let seq = build(&ops);
        let machine = MachineConfig::new(buses);
        let run = |traced: bool| {
            let mut program = schedule(&seq, &machine);
            program.resolve_labels().expect("straight-line code");
            let mut cpu = Processor::new(machine.clone(), program).expect("valid program");
            cpu.set_rtu(RtuConfig::new(Box::new(backend())).with_latency(rtu_latency));
            let stats = if traced {
                let mut ring = RingTracer::new(1 << 20);
                cpu.run_with(1_000_000, &mut ring, &mut NoFaults).expect("halts")
            } else {
                cpu.run(1_000_000).expect("halts")
            };
            let regs: [u32; 16] = std::array::from_fn(|i| cpu.reg(i as u8));
            (stats, regs)
        };
        prop_assert_eq!(run(false), run(true), "tracing must be a pure observer");
    }
}
