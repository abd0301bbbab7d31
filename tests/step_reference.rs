//! The decoded schedule against the reference interpreter.
//!
//! `Processor::run_with` executes the schedule `sched::decode` produced at
//! construction; `Processor::run_reference` executes the instruction words
//! themselves and shares nothing with the decoder.  Every input here runs
//! once on each and must leave the same result (or error), statistics,
//! trace-event stream, program counter, registers and oPPU output behind.
//!
//! The evaluation pipeline hands the simulator a table kind, a machine, a
//! route list, an RTU latency, a stall injector and a tracer — the
//! workload never reaches it — so the matrix is over exactly those, plus
//! what the step loop itself decides: where a straight-line run ends (at a
//! jump, the deadline, an RTU stall, a stolen cycle or an error), which
//! moves of a word read early because a move before them in execution
//! order writes their source or guard, the port-file layout (replicated
//! FUs, a second memory port) and the tracer/injector monomorphisation
//! (`run()` is the `NullTracer`/`NoFaults` instance every benchmark
//! workload executes; a tracer adds the read-phase event pass).

mod common;

use common::{cases, move_seq, SplitMix64};
use taco::eval::{benchmark_routes, FaultPlan};
use taco::ipv6::{Datagram, NextHeader};
use taco::isa::{asm, schedule, FuKind, MachineConfig, PortRef, Program, Source};
use taco::router::{CycleRouter, MicrocodeOptions, TrafficGen};
use taco::routing::{PortId, Route, TableKind};
use taco::sim::{
    FaultInjector, MapRtu, NoFaults, PeriodicStall, Processor, RingTracer, RtuConfig, RtuResult,
    SimError, SimStats, TraceEvent,
};

/// One way of running a machine to completion.
type Run<M> = fn(
    &mut M,
    u64,
    &mut RingTracer,
    &mut (dyn FaultInjector + 'static),
) -> Result<SimStats, SimError>;

/// Everything a run leaves behind that a caller can see.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<SimStats, SimError>,
    stats: SimStats,
    events: Vec<TraceEvent>,
    cycles: u64,
    pc: usize,
    halted: bool,
    regs: [u32; 16],
    outputs: Vec<(u32, u32)>,
    pending_inputs: usize,
}

fn observe<M>(
    machine: &mut M,
    run: Run<M>,
    cpu: fn(&M) -> &Processor,
    budget: u64,
    stall: Option<PeriodicStall>,
) -> Observed {
    let mut ring = RingTracer::new(1 << 22);
    let result = match stall {
        Some(mut stall) => run(machine, budget, &mut ring, &mut stall),
        None => run(machine, budget, &mut ring, &mut NoFaults),
    };
    assert!(ring.is_complete(), "capture evicted {} events", ring.dropped());
    let cpu = cpu(machine);
    Observed {
        result,
        stats: cpu.stats().clone(),
        events: ring.events().iter().cloned().collect(),
        cycles: cpu.cycles(),
        pc: cpu.pc(),
        halted: cpu.is_halted(),
        regs: std::array::from_fn(|i| cpu.reg(i as u8)),
        outputs: cpu.outputs().to_vec(),
        pending_inputs: cpu.pending_inputs(),
    }
}

// ---------------------------------------------------------------------------
// Real microcode: every table kind x Table 1 machine x table size x injector.
// ---------------------------------------------------------------------------

/// Long enough that an RTU read issued right after the trigger stalls.
const CAM_LATENCY: u32 = 5;

/// Hits on the first, middle and last route (the sequential scan's best
/// and worst case), a miss (the benchmark table has no default route) and
/// an expiring hop limit, so forward and both drop paths execute.
fn traffic(routes: &[Route]) -> Vec<Datagram> {
    let mut gen = TrafficGen::new(0x5EF, 4);
    let dgram = |dst, hop_limit| {
        Datagram::builder("2001:db8:ffff::1".parse().expect("valid"), dst)
            .hop_limit(hop_limit)
            .payload(NextHeader::Udp, vec![0u8; 32])
            .build()
    };
    let mut out = Vec::new();
    for route in [&routes[0], &routes[routes.len() / 2], &routes[routes.len() - 1]] {
        let dst = gen.addr_in(&route.prefix());
        out.push(dgram(dst, 64));
    }
    out.push(dgram("4000::1".parse().expect("valid"), 64));
    let dst = gen.addr_in(&routes[0].prefix());
    out.push(dgram(dst, 1));
    out
}

/// `run()` on a third, identically built machine must leave what the
/// reference left, minus the event stream it does not record.
fn assert_untraced_agrees<M>(
    machine: &mut M,
    run: Run<M>,
    cpu: fn(&M) -> &Processor,
    budget: u64,
    mut reference: Observed,
    label: &str,
) {
    reference.events.clear();
    assert_eq!(observe(machine, run, cpu, budget, None), reference, "run(): {label}");
}

fn forwarded_bytes(router: &CycleRouter) -> Vec<(u16, Vec<u8>)> {
    router.forwarded().iter().map(|(port, d)| (port.0, d.to_bytes())).collect()
}

#[test]
fn every_kind_machine_size_and_injector_agrees_on_real_microcode() {
    let machines = [
        MachineConfig::one_bus_one_fu(),
        MachineConfig::three_bus_one_fu(),
        MachineConfig::three_bus_three_fu(),
        // Every instantiated width, and MMU ports at two bases.
        MachineConfig::new(2),
        MachineConfig::new(4),
        MachineConfig::three_bus_one_fu().with_fu_count(FuKind::Mmu, 2),
    ];
    let plan = FaultPlan::stalls();
    let stalls = PeriodicStall::new(plan.stall_every_cycles.into(), plan.stall_cycles.into());
    for entries in [10, 100] {
        let routes = benchmark_routes(entries);
        let traffic = traffic(&routes);
        for kind in TableKind::ALL_KINDS {
            for machine in &machines {
                for stall in [None, Some(stalls)] {
                    let label = format!("{kind} {machine} n={entries} stall={}", stall.is_some());
                    let build = || {
                        let opts = MicrocodeOptions::default();
                        let mut router =
                            CycleRouter::for_kind(kind, machine, &routes, CAM_LATENCY, &opts)
                                .unwrap_or_else(|e| panic!("{label}: {e}"));
                        router
                            .enqueue_batch(traffic.iter().map(|d| (PortId(0), d)))
                            .expect("traffic fits the buffer area");
                        router
                    };
                    let (mut decoded, mut reference) = (build(), build());
                    let d = observe(
                        &mut decoded,
                        CycleRouter::run_with,
                        CycleRouter::processor,
                        50_000_000,
                        stall,
                    );
                    let r = observe(
                        &mut reference,
                        CycleRouter::run_reference,
                        CycleRouter::processor,
                        50_000_000,
                        stall,
                    );
                    assert_eq!(d, r, "{label}");
                    assert_eq!(forwarded_bytes(&decoded), forwarded_bytes(&reference), "{label}");

                    // Not vacuous: the run halted, forwarded the three hits
                    // in order and dropped the rest, and the injector bit.
                    let stats = d.result.as_ref().unwrap_or_else(|e| panic!("{label}: {e}"));
                    assert_eq!(d.outputs.len(), 3, "{label}");
                    assert_eq!(stats.injected_stall_cycles > 0, stall.is_some(), "{label}");
                    if kind == TableKind::Cam {
                        assert!(stats.stall_cycles > 0, "{label}: the RTU interlock never closed");
                    }
                    if stall.is_none() {
                        let run: Run<CycleRouter> = |m, budget, _, _| m.run(budget);
                        let cpu = CycleRouter::processor;
                        assert_untraced_agrees(&mut build(), run, cpu, 50_000_000, r, &label);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Hand-written programs: every decoded source, destination and guard shape.
// ---------------------------------------------------------------------------

/// RTU stalls, guard squashes in both polarities, PPU datagram flow, MMU
/// round trips, the LIU and a datapath FU behind a loop.
const PROGRAMS: &[&str] = &[
    "0 -> cnt0.tset | 9 -> cnt0.stop
     loop: 1 -> cnt0.tinc | cnt0.r -> regs0.r1
     !cnt0.done @loop -> nc0.pc
     cnt0.r -> regs0.r0
",
    "1 -> rtu0.k0 | ?rtu0.hit 1 -> regs0.r1
     2 -> rtu0.k1
     3 -> rtu0.k2
     4 -> rtu0.t
     rtu0.iface -> regs0.r0 | !rtu0.hit 7 -> regs0.r2
",
    "0 -> ippu0.tpop
     ippu0.iface -> oppu0.iface
     ippu0.ptr -> oppu0.t
     ?ippu0.pending 1 -> regs0.r0
",
    "16 -> mmu0.addr
     77 -> mmu0.twrite
     0 -> mmu0.tread
     mmu0.r -> regs0.r2 | 1 -> liu0.t
     liu0.r -> regs0.r3
     0 -> csum0.tclr
     0x00010203 -> csum0.tadd
     csum0.r -> regs0.r4
",
    // A squashed move conflicts with nothing (`done` is true at power-on),
    // and a `stop` write moves `done` without a trigger.
    "!cnt0.done 5 -> regs0.r0 | 1 -> regs0.r0
     7 -> cnt0.stop | ?cnt0.done 2 -> regs0.r1
     ?cnt0.done 3 -> regs0.r2 | !cnt0.done 4 -> regs0.r2
",
];

/// Five and six moves a word over two memory ports, every group in one
/// word, a jump to exactly `len`.
const WIDE: &str = "1 -> regs0.r0 | 16 -> mmu0.addr | 17 -> mmu1.addr | 3 -> cnt0.tset | 4 -> cnt0.stop | ?cnt0.done 9 -> regs0.r2
     regs0.r0 -> mmu0.twrite | 8 -> mmu1.twrite | 1 -> cnt0.tinc | cnt0.r -> regs0.r3 | !cnt0.done 5 -> regs0.r4 | 0 -> ippu0.tpop
     17 -> mmu0.addr | 16 -> mmu1.addr | !cnt0.done 7 -> regs0.r5 | 1 -> rtu0.k0 | 2 -> rtu0.k1 | 3 -> rtu0.k2
     0 -> mmu0.tread | 0 -> mmu1.tread | ippu0.iface -> oppu0.iface | 4 -> rtu0.t | 1 -> liu0.t
     mmu0.r -> regs0.r6 | mmu1.r -> regs0.r7 | ippu0.ptr -> oppu0.t | rtu0.iface -> regs0.r8 | ?rtu0.hit liu0.r -> regs0.r9 | 6 -> nc0.pc
     99 -> regs0.r10
";

fn wide_machine() -> MachineConfig {
    MachineConfig::new(6).with_fu_count(FuKind::Mmu, 2)
}

fn load_on(machine: MachineConfig, text: &str, memory_words: u32) -> Processor {
    let mut program = asm::parse(text).expect("assembles");
    program.resolve_labels().expect("labels resolve");
    load_program(machine, program, memory_words)
}

fn load_program(machine: MachineConfig, program: Program, memory_words: u32) -> Processor {
    let mut cpu = Processor::with_memory(machine, program, memory_words).expect("validates");
    let mut backend = MapRtu::new();
    backend.insert([1, 2, 3, 4], RtuResult { iface: 9, handle: 1 });
    cpu.set_rtu(RtuConfig::new(Box::new(backend)).with_latency(5));
    cpu.set_local_info(vec![0x11, 0x22]);
    cpu.push_input(0x100, 2);
    cpu.push_input(0x140, 3);
    cpu
}

fn identity(cpu: &Processor) -> &Processor {
    cpu
}

#[test]
fn hand_written_programs_agree_and_resume_cleanly() {
    let narrow = PROGRAMS.iter().map(|text| (MachineConfig::new(2), *text));
    for (machine, text) in narrow.chain([(wide_machine(), WIDE)]) {
        let load = |text, words| load_on(machine.clone(), text, words);
        for stall in [None, Some(PeriodicStall::new(5, 2))] {
            let (mut decoded, mut reference) = (load(text, 1 << 16), load(text, 1 << 16));
            let d = observe(&mut decoded, Processor::run_with, identity, 10_000, stall);
            let r = observe(&mut reference, Processor::run_reference, identity, 10_000, stall);
            assert_eq!(d, r, "{text}");
            assert!(d.result.is_ok() && d.halted, "{text}");

            // A second run on the halted processor changes nothing on
            // either side.
            let again = observe(&mut decoded, Processor::run_with, identity, 10_000, stall);
            assert_eq!((&again.result, &again.stats), (&d.result, &d.stats), "{text}");
            let again = observe(&mut reference, Processor::run_reference, identity, 10_000, stall);
            assert_eq!((&again.result, &again.stats), (&r.result, &r.stats), "{text}");
            if stall.is_none() {
                let run: Run<Processor> = |cpu, budget, _, _| cpu.run(budget);
                assert_untraced_agrees(&mut load(text, 1 << 16), run, identity, 10_000, r, text);
            }
        }
    }
}

#[test]
fn errors_agree_and_leave_the_same_statistics() {
    let r0 = PortRef::new(FuKind::Regs, 0, "r0");
    let out_of_bounds = SimError::MemoryOutOfBounds { addr: 9_999_999, size: 16 };
    let cases = [
        ("1 -> regs0.r0 | 2 -> regs0.r0\n", 10, SimError::PortConflict { port: r0, cycle: 0 }),
        ("0 -> nc0.pc | 0 -> nc0.pc\n", 10, SimError::DoublePcWrite { cycle: 0 }),
        ("3 -> nc0.pc\n", 10, SimError::JumpOutOfRange { target: 3, len: 1 }),
        ("loop: @loop -> nc0.pc\n", 50, SimError::Watchdog { budget: 50 }),
        ("1 -> cnt0.tinc\n9999999 -> mmu0.addr\n0 -> mmu0.tread\n", 10, out_of_bounds.clone()),
    ];
    // The conflict is the fifth move's.
    let wide = "1 -> regs0.r1 | 2 -> regs0.r2 | 3 -> regs0.r0 | 4 -> regs0.r3 | 5 -> regs0.r0\n";
    let wide = (wide_machine(), (wide, 10, SimError::PortConflict { port: r0, cycle: 0 }));
    for (machine, (text, budget, error)) in
        cases.into_iter().map(|case| (MachineConfig::new(2), case)).chain([wide])
    {
        let load = |text, words| load_on(machine.clone(), text, words);
        let (mut decoded, mut reference) = (load(text, 16), load(text, 16));
        let d = observe(&mut decoded, Processor::run_with, identity, budget, None);
        let r = observe(&mut reference, Processor::run_reference, identity, budget, None);
        assert_eq!(d, r, "{text}");
        assert_eq!(d.result, Err(error.clone()), "{text}");
        // The counter trigger before the memory fault must already be
        // folded into the decoded side's statistics when the error surfaces.
        if error == out_of_bounds {
            assert_eq!(d.stats.triggers(FuKind::Counter), 1);
        }
        let run: Run<Processor> = |cpu, budget, _, _| cpu.run(budget);
        assert_untraced_agrees(&mut load(text, 16), run, identity, budget, r, text);
    }
}

// ---------------------------------------------------------------------------
// Same-cycle hazards and where a run ends.
// ---------------------------------------------------------------------------

/// Three buses, two memory ports, two counters.
fn hazard_machine() -> MachineConfig {
    MachineConfig::new(3).with_fu_count(FuKind::Mmu, 2).with_fu_count(FuKind::Counter, 2)
}

/// Words whose moves read what a move before them in execution order
/// writes in the same cycle, each with the registers the hardware's
/// read-then-write cycle leaves behind.
const HAZARDS: &[(&str, &[(u8, u32)])] = &[
    // A copy chain, then a swap each way round.
    (
        "1 -> regs0.r1 | 2 -> regs0.r2 | 3 -> regs0.r3
         regs0.r1 -> regs0.r2 | regs0.r2 -> regs0.r3
         regs0.r1 -> regs0.r3 | regs0.r3 -> regs0.r1
         regs0.r2 -> regs0.r4 | regs0.r4 -> regs0.r2
",
        &[(1, 2), (2, 0), (3, 1), (4, 1)],
    ),
    // A trigger whose source a same-cycle immediate and copy write.
    (
        "5 -> regs0.r1 | 6 -> regs0.r2
         9 -> regs0.r1 | regs0.r1 -> cnt0.tset | regs0.r1 -> regs0.r2
         regs0.r2 -> cnt1.tset | cnt0.r -> regs0.r4
         cnt1.r -> regs0.r5
",
        &[(1, 9), (2, 5), (4, 5), (5, 5)],
    ),
    // Guards a same-cycle `stop` write and trigger move: `done` is true at
    // power-on, false after the stop write, true again after `tset 3`.
    (
        "3 -> cnt0.stop | ?cnt0.done 1 -> regs0.r5
         3 -> cnt0.tset | !cnt0.done 2 -> regs0.r6 | ?cnt0.done 5 -> cnt1.tset
         0 -> cnt0.tset | ?cnt0.zero 7 -> regs0.r7 | !cnt0.zero 8 -> cnt1.tadd
         cnt1.r -> regs0.r8
",
        &[(5, 1), (6, 2), (7, 0), (8, 8)],
    ),
    // Two memory ports on one word: the write on the lower bus lands
    // before the read on the higher one, and a read before a write sees
    // the old word; a trigger reads a result another rewrites.
    (
        "16 -> mmu0.addr | 16 -> mmu1.addr
         42 -> mmu0.twrite | 0 -> mmu1.tread
         mmu1.r -> regs0.r8 | 0 -> mmu0.tread | 43 -> mmu1.twrite
         0 -> mmu1.tread | mmu0.r -> cnt0.tset | mmu1.r -> regs0.r10
         mmu0.r -> regs0.r9 | mmu1.r -> regs0.r11 | cnt0.r -> regs0.r12
",
        &[(8, 42), (9, 42), (10, 42), (11, 43), (12, 42)],
    ),
    // A jump whose guard and source a trigger and a copy of its word write.
    (
        "0 -> cnt0.tset | 1 -> cnt0.stop | 4 -> regs0.r1
         1 -> cnt0.tinc | regs0.r2 -> regs0.r1 | ?cnt0.done regs0.r1 -> nc0.pc
         7 -> regs0.r3
         9 -> regs0.r4
",
        &[(1, 0), (3, 7), (4, 9)],
    ),
];

#[test]
fn same_cycle_hazards_read_what_the_cycle_started_with() {
    for &(text, expected) in HAZARDS {
        for stall in [None, Some(PeriodicStall::new(3, 1))] {
            let load = || load_on(hazard_machine(), text, 64);
            let (mut decoded, mut reference) = (load(), load());
            let d = observe(&mut decoded, Processor::run_with, identity, 1_000, stall);
            let r = observe(&mut reference, Processor::run_reference, identity, 1_000, stall);
            assert_eq!(d, r, "{text}");
            assert!(d.result.is_ok() && d.halted, "{text}");
            for &(reg, value) in expected {
                assert_eq!(d.regs[usize::from(reg)], value, "r{reg}: {text}");
            }
        }
    }
}

/// Ten straight-line words, then a loop back over the last four twice.
const STRAIGHT: &str = "1 -> regs0.r1
     2 -> regs0.r2 | 0 -> cnt0.tset | 2 -> cnt0.stop
     3 -> regs0.r3
     4 -> regs0.r4
     5 -> regs0.r5
     6 -> regs0.r6
     back: 1 -> cnt0.tinc | 7 -> regs0.r7
     8 -> regs0.r8
     9 -> regs0.r9
     !cnt0.done @back -> nc0.pc | 10 -> regs0.r10
";

#[test]
fn a_budget_ending_inside_a_run_stops_at_its_cycle_and_resumes() {
    for budget in 1..=18 {
        for stall in [None, Some(PeriodicStall::new(4, 1))] {
            let load = || load_on(hazard_machine(), STRAIGHT, 64);
            let (mut decoded, mut reference) = (load(), load());
            let d = observe(&mut decoded, Processor::run_with, identity, budget, stall);
            let r = observe(&mut reference, Processor::run_reference, identity, budget, stall);
            assert_eq!(d, r, "budget {budget}");
            if d.result.is_err() {
                assert_eq!(d.result, Err(SimError::Watchdog { budget }), "budget {budget}");
                assert_eq!(d.cycles, budget, "budget {budget}");
            }
            // Resuming finishes the program on both sides alike.
            let d = observe(&mut decoded, Processor::run_with, identity, 100, stall);
            let r = observe(&mut reference, Processor::run_reference, identity, 100, stall);
            assert_eq!(d, r, "resumed after budget {budget}");
            assert!(d.halted && d.regs[10] == 10, "budget {budget}");
        }
    }
}

#[test]
fn a_stall_a_stolen_cycle_or_a_fault_ends_a_run_where_it_happens() {
    let out_of_bounds = SimError::MemoryOutOfBounds { addr: 9_999_999, size: 64 };
    let cases = [
        // The RTU read in the third word of a run stalls there.
        (
            "1 -> regs0.r1\n4 -> rtu0.t\n2 -> regs0.r2\nrtu0.iface -> regs0.r0\n3 -> regs0.r3\n",
            None,
        ),
        // The fault in the third word: the trigger after it is never fired
        // and the squashed moves of the word still count.
        (
            "1 -> regs0.r1\n9999999 -> mmu0.addr\n\
             0 -> mmu0.tread | !cnt0.zero 5 -> cnt1.tadd | ?cnt0.zero 3 -> cnt1.tinc\n\
             2 -> regs0.r2\n",
            Some(out_of_bounds),
        ),
    ];
    for (text, error) in cases {
        for stall in [None, Some(PeriodicStall::new(3, 1)), Some(PeriodicStall::new(7, 2))] {
            let load = || load_on(hazard_machine(), text, 64);
            let (mut decoded, mut reference) = (load(), load());
            let d = observe(&mut decoded, Processor::run_with, identity, 1_000, stall);
            let r = observe(&mut reference, Processor::run_reference, identity, 1_000, stall);
            assert_eq!(d, r, "{text}");
            assert_eq!(d.result.as_ref().err(), error.as_ref(), "{text}");
            if error.is_none() {
                assert!(d.stats.stall_cycles > 0, "{text}");
            } else {
                assert_eq!((d.stats.moves_squashed, d.pc), (1, 2), "{text}");
            }
            assert_eq!(d.stats.injected_stall_cycles > 0, stall.is_some(), "{text}");
        }
    }
    // Stolen cycles land inside the straight-line stretch of `STRAIGHT`.
    let load = || load_on(hazard_machine(), STRAIGHT, 64);
    for every in 2..=6 {
        let stall = Some(PeriodicStall::new(every, 1));
        let d = observe(&mut load(), Processor::run_with, identity, 1_000, stall);
        let r = observe(&mut load(), Processor::run_reference, identity, 1_000, stall);
        assert_eq!(d, r, "every {every}");
    }
}

// ---------------------------------------------------------------------------
// Seeded programs from the whole assembly grammar.
// ---------------------------------------------------------------------------

const SEED: u64 = 0x57E9_0D1F;
const CASES: u64 = 400;

/// 1–6 buses, 1–3 of each replicable unit, 1–2 memory ports.
fn any_machine(rng: &mut SplitMix64) -> MachineConfig {
    let mut machine = MachineConfig::new(rng.range_inclusive(1, 6) as u8)
        .with_fu_count(FuKind::Mmu, rng.range_inclusive(1, 2) as u8);
    for kind in FuKind::REPLICABLE {
        machine = machine.with_fu_count(kind, rng.range_inclusive(1, 3) as u8);
    }
    machine
}

#[test]
fn scheduled_random_programs_agree_with_the_reference() {
    cases(SEED, CASES, |rng| {
        let (seq, machine) = (move_seq(rng), any_machine(rng));
        let mut program = schedule(&seq, &machine);
        // A label referenced but never defined names the end: a clean halt.
        let end = program.instructions.len();
        let sources = program.instructions.iter().flat_map(|ins| ins.moves());
        let undefined: Vec<String> = sources
            .filter_map(|mv| match &mv.src {
                Source::Label(l) if !program.labels.contains_key(l) => Some(l.clone()),
                _ => None,
            })
            .collect();
        program.labels.extend(undefined.into_iter().map(|l| (l, end)));
        program.resolve_labels().expect("every label defined");
        let text = program.to_string();
        let stall = rng.chance(0.5).then(|| PeriodicStall::new(rng.range_inclusive(2, 9), 1));
        let load = || load_program(machine.clone(), program.clone(), 64);
        let (mut decoded, mut reference) = (load(), load());
        let d = observe(&mut decoded, Processor::run_with, identity, 2_000, stall);
        let r = observe(&mut reference, Processor::run_reference, identity, 2_000, stall);
        assert_eq!(d, r, "{machine}\n{text}");
        if stall.is_none() {
            let run: Run<Processor> = |cpu, budget, _, _| cpu.run(budget);
            assert_untraced_agrees(&mut load(), run, identity, 2_000, r, &text);
        }
    });
}
