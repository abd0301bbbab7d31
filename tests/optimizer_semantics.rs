//! Random straight-line TTA programs, held to two contracts (seeded; see
//! `common/mod.rs`).
//!
//! **The optimiser and scheduler preserve semantics.**  A program built
//! from fold-safe operation templates over virtual FU instances is run two
//! ways — unscheduled, one move per instruction, on a machine wide enough
//! that no virtual instance folds; and bypassed, dead-move-eliminated and
//! list-scheduled onto a random machine (1–4 buses, 1–3× replication) —
//! and all sixteen registers and the touched memory words must agree.
//!
//! **The tracer and the counters observe the same run.**  The same programs
//! (their RTU lookups stall for 1–9 cycles) run under a `RingTracer`:
//! replaying the capture must reproduce `SimStats` exactly, and tracing
//! must change nothing a program can see.

mod common;

use common::{cases, SplitMix64};
use taco::isa::{
    decode, encode, optimize, schedule, validate_schedule, CodeBuilder, FuKind, MachineConfig,
    MoveSeq, Program,
};
use taco::sim::{
    MapRtu, NoFaults, Processor, RingTracer, RtuConfig, RtuResult, SimStats, TraceCounters,
};

const SEED: u64 = 0x0097_0001;
const CASES: u64 = 128;

/// One operation template: an atomic def-use chain, fold-safe by
/// construction, that always terminates.
#[derive(Debug, Clone, Copy)]
#[rustfmt::skip] // one variant a line
enum Op {
    LoadImm { reg: u8, value: u32 },
    CounterAdd { fu: u8, base: u8, add: u32, out: u8 },
    Shift { amount: u32, left: bool, src: u8, out: u8 },
    MaskInsert { mask: u32, value: u32, src: u8, out: u8 },
    /// A probe, then a guarded pair: exactly one of the two moves squashes.
    MatchSelect { fu: u8, mask: u32, refv: u32, probe: u8, hit: u32, miss: u32, out: u8 },
    CompareSelect { fu: u8, refv: u32, probe: u8, if_lt: u32, out: u8 },
    MemRoundTrip { addr: u32, src: u8, out: u8 },
    ChecksumWord { src: u8, out: u8 },
    /// Operand writes, trigger, result read: the read stalls until the
    /// configured RTU latency has elapsed.
    RtuLookup { key: u32, out: u8 },
}

fn op(rng: &mut SplitMix64) -> Op {
    let reg = |rng: &mut SplitMix64| rng.below(8) as u8;
    let fu = |rng: &mut SplitMix64| rng.below(3) as u8;
    // Small values as often as wide ones: a masked or compared zero is a
    // different path from a masked or compared 0x9e3779b9.
    let word =
        |rng: &mut SplitMix64| if rng.chance(0.25) { rng.below(4) as u32 } else { rng.next_u32() };
    match rng.below(9) {
        0 => Op::LoadImm { reg: reg(rng), value: word(rng) },
        1 => Op::CounterAdd { fu: fu(rng), base: reg(rng), add: word(rng), out: reg(rng) },
        2 => Op::Shift {
            amount: rng.below(32) as u32,
            left: rng.chance(0.5),
            src: reg(rng),
            out: reg(rng),
        },
        3 => Op::MaskInsert { mask: word(rng), value: word(rng), src: reg(rng), out: reg(rng) },
        4 => Op::MatchSelect {
            fu: fu(rng),
            mask: word(rng),
            refv: word(rng),
            probe: reg(rng),
            hit: word(rng),
            miss: word(rng),
            out: reg(rng),
        },
        5 => Op::CompareSelect {
            fu: fu(rng),
            refv: word(rng),
            probe: reg(rng),
            if_lt: word(rng),
            out: reg(rng),
        },
        6 => Op::MemRoundTrip { addr: rng.below(64) as u32, src: reg(rng), out: reg(rng) },
        7 => Op::ChecksumWord { src: reg(rng), out: reg(rng) },
        // Half the keys are in the backend, half miss.
        _ => Op::RtuLookup { key: rng.below(16) as u32, out: reg(rng) },
    }
}

fn ops(rng: &mut SplitMix64, max: u64) -> Vec<Op> {
    (0..rng.range_inclusive(1, max)).map(|_| op(rng)).collect()
}

fn emit(b: &mut CodeBuilder, op: &Op) {
    match *op {
        Op::LoadImm { reg, value } => b.mv(value, b.reg(reg)),
        Op::CounterAdd { fu, base, add, out } => {
            let c = b.fu(FuKind::Counter, fu);
            b.mv(b.reg(base), c.port("tset"));
            b.mv(add, c.port("tadd"));
            b.mv(c.port("r"), b.reg(out));
        }
        Op::Shift { amount, left, src, out } => {
            let s = b.fu(FuKind::Shifter, 0); // a singleton on every machine
            b.mv(amount, s.port("amount"));
            b.mv(b.reg(src), s.port(if left { "tshl" } else { "tshr" }));
            b.mv(s.port("r"), b.reg(out));
        }
        Op::MaskInsert { mask, value, src, out } => {
            let m = b.fu(FuKind::Masker, 0);
            b.mv(mask, m.port("mask"));
            b.mv(value, m.port("value"));
            b.mv(b.reg(src), m.port("t"));
            b.mv(m.port("r"), b.reg(out));
        }
        Op::MatchSelect { fu, mask, refv, probe, hit, miss, out } => {
            let m = b.fu(FuKind::Matcher, fu);
            b.mv(mask, m.port("mask"));
            b.mv(refv, m.port("refv"));
            b.mv(b.reg(probe), m.port("t"));
            b.mv_if(m.guard("match"), hit, b.reg(out));
            b.mv_unless(m.guard("match"), miss, b.reg(out));
        }
        Op::CompareSelect { fu, refv, probe, if_lt, out } => {
            let c = b.fu(FuKind::Comparator, fu);
            b.mv(refv, c.port("refv"));
            b.mv(b.reg(probe), c.port("t"));
            b.mv_if(c.guard("lt"), if_lt, b.reg(out));
        }
        Op::MemRoundTrip { addr, src, out } => {
            let mmu = b.fu(FuKind::Mmu, 0);
            b.mv(addr, mmu.port("addr"));
            b.mv(b.reg(src), mmu.port("twrite"));
            b.mv(addr, mmu.port("addr"));
            b.mv(0u32, mmu.port("tread"));
            b.mv(mmu.port("r"), b.reg(out));
        }
        Op::ChecksumWord { src, out } => {
            let cs = b.fu(FuKind::Checksum, 0);
            b.mv(0u32, cs.port("tclr"));
            b.mv(b.reg(src), cs.port("tadd"));
            b.mv(cs.port("r"), b.reg(out));
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

fn build(ops: &[Op]) -> MoveSeq {
    let mut b = CodeBuilder::new();
    for op in ops {
        emit(&mut b, op);
    }
    b.finish()
}

/// `buses` buses and every replicable unit `replication` times.
fn machine(buses: u8, replication: u8) -> MachineConfig {
    let mut machine = MachineConfig::new(buses);
    if replication > 1 {
        for kind in FuKind::REPLICABLE {
            machine = machine.with_fu_count(kind, replication);
        }
    }
    machine
}

/// A machine wide enough that virtual instances 0..3 exist physically.
fn wide_machine() -> MachineConfig {
    MachineConfig::new(1)
        .with_fu_count(FuKind::Counter, 3)
        .with_fu_count(FuKind::Comparator, 3)
        .with_fu_count(FuKind::Matcher, 3)
}

/// A processor for `program` whose RTU answers keys 0..8 after
/// `rtu_latency` cycles.
fn processor(machine: &MachineConfig, mut program: Program, rtu_latency: u32) -> Processor {
    program.resolve_labels().expect("straight-line code");
    let mut cpu = Processor::new(machine.clone(), program).expect("valid program");
    let mut map = MapRtu::new();
    for key in 0u32..8 {
        map.insert([key, key ^ 0xdead_beef, 0, key], RtuResult { iface: key + 1, handle: key });
    }
    cpu.set_rtu(RtuConfig::new(Box::new(map)).with_latency(rtu_latency));
    cpu
}

/// Everything a program can see of its own run: the registers and the
/// memory words the templates can touch.
fn architectural_state(cpu: &Processor) -> ([u32; 16], Vec<u32>) {
    let regs = std::array::from_fn(|i| cpu.reg(i as u8));
    (regs, cpu.memory().read_block(0, 64).expect("in range").to_vec())
}

fn assert_scheduling_preserves_state(ops: &[Op], buses: u8, replication: u8) {
    let seq = build(ops);
    let mut reference = processor(&wide_machine(), Program::from_moves(&seq, 1), 1);
    reference.run(100_000).expect("straight-line code halts");

    let machine = machine(buses, replication);
    let mut optimized = seq.clone();
    optimize(&mut optimized);
    let mut subject = processor(&machine, schedule(&optimized, &machine), 3);
    subject.run(100_000).expect("straight-line code halts");

    let (reference, subject) = (architectural_state(&reference), architectural_state(&subject));
    assert_eq!(reference.0, subject.0, "registers diverged on {machine}: {ops:?}");
    assert_eq!(reference.1, subject.1, "memory diverged on {machine}: {ops:?}");
}

#[test]
fn scheduling_preserves_architectural_state() {
    cases(SEED, CASES, |rng| {
        let ops = ops(rng, 20);
        let (buses, replication) =
            (rng.range_inclusive(1, 4) as u8, rng.range_inclusive(1, 3) as u8);
        assert_scheduling_preserves_state(&ops, buses, replication);
    });
}

/// `optimizer_semantics.proptest-regressions`, the one saved case: counter
/// instances 1 and 0 fold onto the single physical counter of a 1-bus
/// machine, and the masker reads r1 — which the first chain wrote through
/// the instance the second chain then reuses.
#[test]
fn regression_folded_counters_feeding_the_masker_on_one_bus() {
    let ops = [
        Op::CounterAdd { fu: 1, base: 0, add: 0, out: 1 },
        Op::CounterAdd { fu: 0, base: 0, add: 849, out: 2 },
        Op::MaskInsert { mask: 645_755_900, value: 0, src: 1, out: 0 },
    ];
    assert_scheduling_preserves_state(&ops, 1, 1);
}

#[test]
fn scheduler_output_passes_structural_validation() {
    cases(SEED, CASES, |rng| {
        let seq = build(&ops(rng, 25));
        let machine = machine(rng.range_inclusive(1, 4) as u8, rng.range_inclusive(1, 3) as u8);
        assert_eq!(validate_schedule(&schedule(&seq, &machine), &machine), Ok(()), "{machine}");
    });
}

#[test]
fn encoding_round_trips_scheduled_programs() {
    cases(SEED, CASES, |rng| {
        let seq = build(&ops(rng, 20));
        let machine = MachineConfig::new(rng.range_inclusive(1, 4) as u8);
        let mut program = schedule(&seq, &machine);
        program.resolve_labels().expect("no labels in straight-line code");
        let encoded = encode(&program, &machine).expect("encodes");
        let decoded = decode(&encoded, &machine).expect("decodes");
        assert_eq!(decoded.instructions, program.instructions);
        // A packed slot is narrow: the paper's "mostly addresses" word.
        assert!(encoded.slot_bits <= 32, "{}", encoded.slot_bits);
    });
}

#[test]
fn scheduling_never_lengthens_the_program() {
    cases(SEED, CASES, |rng| {
        let seq = build(&ops(rng, 20));
        let machine = MachineConfig::new(rng.range_inclusive(1, 4) as u8);
        let scheduled = schedule(&seq, &machine);
        assert!(scheduled.instructions.len() <= seq.len());
        assert_eq!(scheduled.move_count(), seq.len());
    });
}

/// Runs `ops` scheduled onto `machine`, traced or not, to the halt.
fn run_scheduled(
    ops: &[Op],
    machine: &MachineConfig,
    rtu_latency: u32,
    ring: Option<&mut RingTracer>,
) -> (SimStats, Processor) {
    let mut cpu = processor(machine, schedule(&build(ops), machine), rtu_latency);
    let stats = match ring {
        Some(ring) => cpu.run_with(1_000_000, ring, &mut NoFaults),
        None => cpu.run(1_000_000),
    };
    (stats.expect("straight-line code halts"), cpu)
}

#[test]
fn ring_replay_reproduces_sim_stats() {
    cases(SEED, CASES, |rng| {
        let ops = ops(rng, 24);
        let machine = machine(rng.range_inclusive(1, 3) as u8, rng.range_inclusive(1, 2) as u8);
        let mut ring = RingTracer::new(1 << 20);
        let (stats, _) =
            run_scheduled(&ops, &machine, rng.range_inclusive(1, 9) as u32, Some(&mut ring));
        assert!(ring.is_complete(), "capture evicted {} events", ring.dropped());
        // `moves_executed`, `moves_squashed`, per-instance triggers and
        // stall cycles, counted twice: from the events and by the loop.
        assert_eq!(
            TraceCounters::from_events(ring.events()),
            TraceCounters::from_stats(&stats),
            "{machine}: {ops:?}"
        );
    });
}

#[test]
fn traced_run_is_observationally_identical_to_untraced() {
    cases(SEED, CASES, |rng| {
        let ops = ops(rng, 16);
        let machine = MachineConfig::new(rng.range_inclusive(1, 3) as u8);
        let rtu_latency = rng.range_inclusive(1, 6) as u32;
        let (plain_stats, plain) = run_scheduled(&ops, &machine, rtu_latency, None);
        let mut ring = RingTracer::new(1 << 20);
        let (traced_stats, traced) = run_scheduled(&ops, &machine, rtu_latency, Some(&mut ring));
        assert_eq!(plain_stats, traced_stats, "tracing must be a pure observer: {ops:?}");
        assert_eq!(architectural_state(&plain), architectural_state(&traced), "{ops:?}");
    });
}
