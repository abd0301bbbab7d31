//! Golden digest of every scheduled microcode program.
//!
//! Runs each generator of `taco_router::microcode` — the four forwarding
//! programs and the checksum routine — through `optimize` + `schedule` over
//! a grid of machines (1–5 buses, 1–3 Counters/Comparators/Matchers, 1–2
//! MMUs), sequential table sizes on both sides of the padding edges, every
//! unroll and every screening word.  Each point is one line of
//! `tests/golden/schedules.txt`: its instruction count, its move count and a
//! 64-bit FNV-1a of the printed program followed by its label table.  Any
//! change to the scheduler, the optimiser, the generators or the way a port
//! prints moves a line; a change that must not move one (a faster
//! scheduler, another port representation) passes this file untouched.
//!
//! At every point the size a compiled program counts
//! (`CompiledProgram::program_bits`) is the size of the image
//! `taco_isa::encode` builds.
//!
//! A second test holds `schedule` to the per-move dependence-edge
//! formulation of the same hazard rules on sequences drawn from the whole
//! assembly grammar (seeded; see `common/mod.rs`).  A third holds every
//! router the compiled-program cache builds to a from-scratch compile of
//! its machine, a fourth holds every sequential table size's patched
//! template to a from-scratch compile of that size, and a fifth holds every
//! move `schedule` places on the oracle grid's machines to the unit
//! `MachineConfig::fold` names.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! BLESS=1 cargo test --test golden_schedules
//! ```
//!
//! then review the fixture diff like any other code change.

mod common;

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use common::{cases, machine, move_seq};
use taco::eval::{benchmark_routes, grid, SweepSpec};
use taco::ipv6::{Datagram, NextHeader};
use taco::isa::{
    asm, encode, optimize, schedule, FuKind, FuRef, Guard, Instruction, MachineConfig, Move,
    MoveSeq, PortDir, PortRef, Program, Source,
};
use taco::router::cycle::TableImage;
use taco::router::layout::{serialize_sequential, SEQ_ENTRY_WORDS, TABLE_BASE};
use taco::router::microcode::{
    checksum_program, choose_screen_word, pad_sequential_image, padded_entries, program_for,
    MicrocodeOptions,
};
use taco::router::traffic::TrafficGen;
use taco::router::CycleRouter;
use taco::routing::{PortId, Route, SequentialTable, TableKind};
use taco::sim::{CompiledProgram, SimStats};

const FIXTURE: &str = "tests/golden/schedules.txt";

/// 64-bit FNV-1a, written out so the digest is a fixed function of the
/// bytes and not of a hasher whose keys may change between releases.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Every machine of the grid, in a fixed order.
fn machines() -> Vec<MachineConfig> {
    let mut out = Vec::new();
    for buses in 1..=5u8 {
        for replication in 1..=3u8 {
            for mmus in 1..=2u8 {
                let mut m = MachineConfig::new(buses).with_fu_count(FuKind::Mmu, mmus);
                for kind in FuKind::REPLICABLE {
                    m = m.with_fu_count(kind, replication);
                }
                out.push(m);
            }
        }
    }
    out
}

/// One fixture line: the point's name, then what `optimize` + `schedule`
/// made of `seq` on `machine`.  Also holds the size the compiled program
/// counts to the size of the image the encoder builds.
fn line(out: &mut String, name: &str, mut seq: MoveSeq, machine: &MachineConfig) {
    optimize(&mut seq);
    let mut program = schedule(&seq, machine);
    let mut text = asm::print(&program);
    for (label, index) in &program.labels {
        writeln!(text, "{label}={index}").expect("write to string");
    }
    writeln!(
        out,
        "{name} @{machine}: {} instructions, {} moves, {:016x}",
        program.instructions.len(),
        program.move_count(),
        fnv1a64(text.as_bytes())
    )
    .expect("write to string");

    program.resolve_labels().expect("generated labels resolve");
    let encoded = encode(&program, machine).expect("scheduled microcode encodes").total_bits();
    let compiled = CompiledProgram::compile(machine.clone(), Arc::new(program))
        .expect("scheduled microcode compiles");
    assert_eq!(compiled.program_bits(), encoded, "{name} @{machine}: counted vs encoded size");
}

/// The whole fixture text, one line per grid point.
fn digest() -> String {
    let mut out = String::new();
    let defaults = MicrocodeOptions::default();
    for (mi, machine) in machines().iter().enumerate() {
        for kind in [TableKind::BalancedTree, TableKind::Cam, TableKind::Patricia] {
            line(&mut out, &kind.to_string(), program_for(kind, 0, &defaults), machine);
        }
        for words in [0u32, 1, 5] {
            line(
                &mut out,
                &format!("checksum words={words}"),
                checksum_program(0x40, words),
                machine,
            );
        }
        // The screening word rotates with the machine, so every (size,
        // unroll, word) triple meets several machines without the full
        // cross product.
        for (si, entries) in [1usize, 2, 3, 100, 1024].into_iter().enumerate() {
            for unroll in 1..=3u8 {
                let screen_word = ((mi + si + usize::from(unroll)) % 4) as u8;
                let opts = MicrocodeOptions { unroll, screen_word };
                let name = format!("sequential n={entries} unroll={unroll} screen={screen_word}");
                line(&mut out, &name, program_for(TableKind::Sequential, entries, &opts), machine);
            }
        }
    }
    out
}

#[test]
fn schedules_match_golden_digests() {
    let current = digest();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &current).expect("write fixture");
        eprintln!("blessed {FIXTURE} ({} lines)", current.lines().count());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {FIXTURE} ({e}); regenerate with BLESS=1 cargo test --test golden_schedules")
    });
    assert!(current.lines().count() >= 500, "the grid shrank below 500 points");
    for (got, want) in current.lines().zip(golden.lines()) {
        assert_eq!(
            got, want,
            "a scheduled program drifted from the golden digest; if the change is intentional, \
             regenerate with BLESS=1 and review the diff"
        );
    }
    assert_eq!(current, golden);
}

const SEED: u64 = 0x5C4E_D001;
const CASES: u64 = 512;

/// The hazard rules of `taco_isa::sched` as explicit dependence edges, one
/// list per move, `(i, d)`: the move starts no earlier than `d` cycles after
/// move `i`.  Placed greedily in program order, as `schedule` places.
fn edge_list_schedule(seq: &MoveSeq, config: &MachineConfig) -> Program {
    let fold = |fu: FuRef| FuRef::new(fu.kind, fu.index % config.fu_count(fu.kind));
    let mut moves = seq.moves.clone();
    for mv in &mut moves {
        mv.dst.fu = fold(mv.dst.fu);
        if let Source::Port(p) = &mut mv.src {
            p.fu = fold(p.fu);
        }
        if let Some(g) = &mut mv.guard {
            g.fu = fold(g.fu);
        }
    }
    let mut starts: Vec<usize> =
        seq.labels.values().copied().filter(|&at| at < moves.len()).collect();
    starts.extend((1..moves.len()).filter(|&i| moves[i - 1].is_control_transfer()));
    starts.push(0);
    starts.sort_unstable();
    starts.dedup();

    let mut program = Program::new();
    let mut block_base = BTreeMap::new();
    for (b, &start) in starts.iter().enumerate() {
        let end = starts.get(b + 1).copied().unwrap_or(moves.len());
        block_base.insert(start, program.instructions.len());
        program.instructions.extend(edge_list_block(&moves[start..end], config.buses()));
    }
    for (name, at) in &seq.labels {
        let target = block_base.get(at).copied().unwrap_or(program.instructions.len());
        program.labels.insert(name.clone(), target);
    }
    program
}

fn edge_list_block(block: &[Move], buses: u8) -> Vec<Instruction> {
    let mut edges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); block.len()];
    let mut last_trigger: HashMap<FuRef, usize> = HashMap::new();
    let mut last_write: HashMap<PortRef, usize> = HashMap::new();
    let mut reads_since_write: HashMap<PortRef, Vec<usize>> = HashMap::new();
    let mut fu_reads: HashMap<FuRef, Vec<usize>> = HashMap::new();
    for (j, mv) in block.iter().enumerate() {
        let mut dep = |i: Option<&usize>, d: usize| edges[j].extend(i.map(|&i| (i, d)));
        if let Source::Port(p) = &mv.src {
            match p.dir() {
                PortDir::Result => {
                    dep(last_trigger.get(&p.fu), 1);
                    fu_reads.entry(p.fu).or_default().push(j);
                }
                PortDir::Both => dep(last_write.get(p), 1),
                PortDir::Operand | PortDir::Trigger => {}
            }
            reads_since_write.entry(*p).or_default().push(j);
        }
        if let Some(g) = &mv.guard {
            dep(last_trigger.get(&g.fu), 1);
            fu_reads.entry(g.fu).or_default().push(j);
        }
        let dst = mv.dst;
        match dst.dir() {
            PortDir::Both => {
                dep(last_write.get(&dst), 1);
                for i in reads_since_write.get(&dst).into_iter().flatten().filter(|&&i| i != j) {
                    dep(Some(i), 0);
                }
            }
            PortDir::Operand => {
                dep(last_trigger.get(&dst.fu), 1);
                dep(last_write.get(&dst), 1);
            }
            PortDir::Trigger => {
                for (port, spec) in dst.fu.kind.ports().iter().enumerate() {
                    if spec.dir == PortDir::Operand {
                        dep(last_write.get(&PortRef { fu: dst.fu, port: port as u8 }), 0);
                    }
                }
                dep(last_trigger.get(&dst.fu), 1);
                for i in fu_reads.get(&dst.fu).into_iter().flatten().filter(|&&i| i != j) {
                    dep(Some(i), 0);
                }
                last_trigger.insert(dst.fu, j);
                fu_reads.remove(&dst.fu);
            }
            PortDir::Result => unreachable!("result ports are not writable"),
        }
        last_write.insert(dst, j);
        reads_since_write.remove(&dst);
        if mv.is_control_transfer() {
            edges[j].extend((0..j).map(|i| (i, 0)));
        }
    }

    let mut cycle_of = vec![0; block.len()];
    let mut instructions: Vec<Instruction> = Vec::new();
    for (j, mv) in block.iter().enumerate() {
        let mut c = edges[j].iter().map(|&(i, d)| cycle_of[i] + d).max().unwrap_or(0);
        while instructions.get(c).is_some_and(|ins| ins.move_count() == usize::from(buses)) {
            c += 1;
        }
        if c == instructions.len() {
            instructions.push(Instruction::empty(buses));
        }
        let slot = instructions[c].slots.iter_mut().find(|s| s.is_none()).expect("a free bus");
        *slot = Some(mv.clone());
        cycle_of[j] = c;
    }
    instructions
}

#[test]
fn the_one_pass_schedule_is_the_edge_list_schedule() {
    cases(SEED, CASES, |rng| {
        let (seq, machine) = (move_seq(rng), machine(rng));
        assert_eq!(schedule(&seq, &machine), edge_list_schedule(&seq, &machine), "{machine}");
    });
}

/// `n` sibling /48s, each on its own port.
fn sibling_routes(n: u16) -> Vec<Route> {
    (0..n)
        .map(|i| {
            let prefix = format!("2001:db8:{i:x}::/48").parse().expect("a prefix");
            Route::new(prefix, "fe80::1".parse().expect("an address"), PortId(i), 1)
        })
        .collect()
}

/// What `kind`'s microcode generator is given for `routes` under `opts`:
/// the padded entry count and the screening word for the sequential scan,
/// nothing else for the fixed-shape engines.
fn generator_input(
    kind: TableKind,
    routes: &[Route],
    opts: MicrocodeOptions,
) -> (usize, MicrocodeOptions) {
    if kind != TableKind::Sequential {
        return (0, opts);
    }
    let table = SequentialTable::from_routes(routes.iter().copied());
    let mut image = serialize_sequential(&table);
    pad_sequential_image(&mut image, opts.unroll);
    let screen_word = choose_screen_word(&table);
    (image.len() / SEQ_ENTRY_WORDS as usize, MicrocodeOptions { screen_word, ..opts })
}

#[test]
fn every_router_runs_what_a_fresh_compile_of_its_machine_makes() {
    // Two tables whose sequential scans differ only in their padded size,
    // so a cache that ignored the size would hand the second the first's
    // program.
    let tables = [sibling_routes(5), sibling_routes(40)];
    let [small, large] = tables
        .each_ref()
        .map(|routes| generator_input(TableKind::Sequential, routes, MicrocodeOptions::default()));
    assert_ne!(small.0, large.0);
    assert_eq!(small.1, large.1);
    // No other test in this binary builds a router and the two passes'
    // options differ, so each pass's first machine generates the sequence
    // every later one reuses: a 1-bus machine in one order, a 5-bus one in
    // the other.
    let machines = machines();
    let passes = [
        (MicrocodeOptions { unroll: 1, ..MicrocodeOptions::default() }, false),
        (MicrocodeOptions { unroll: 2, ..MicrocodeOptions::default() }, true),
    ];
    for kind in TableKind::ALL_KINDS {
        for (opts, reverse) in passes {
            let mut order: Vec<&MachineConfig> = machines.iter().collect();
            if reverse {
                order.reverse();
            }
            for machine in order {
                for routes in &tables {
                    let router = CycleRouter::for_kind(kind, machine, routes, 1, &opts)
                        .unwrap_or_else(|e| panic!("{kind} @{machine}: {e}"));
                    let (entries, opts) = generator_input(kind, routes, opts);
                    let mut seq = program_for(kind, entries, &opts);
                    optimize(&mut seq);
                    let mut fresh = schedule(&seq, machine);
                    fresh.resolve_labels().expect("generated labels resolve");
                    assert!(
                        *router.processor().program() == fresh,
                        "{kind} n={} unroll={} @{machine}: the cached program is not a fresh \
                         compile's",
                        routes.len(),
                        opts.unroll
                    );
                }
            }
        }
    }
}

/// The measurement datagram of a table over `routes`, built as an
/// evaluation builds it: its destination lies in the entry the sequential
/// scan reaches last, so the scan runs to that entry and its verify pass
/// reads to the end of the table.
fn measurement_datagram(routes: &[Route]) -> Datagram {
    let last = SequentialTable::scanned_last(routes).expect("a non-empty table");
    Datagram::builder(
        "2001:db8:ffff::1".parse().expect("an address"),
        TrafficGen::new(0x0DA7A, 4).addr_in(&last.prefix()),
    )
    .hop_limit(64)
    .payload(NextHeader::Udp, vec![0; 32])
    .build()
}

/// What `program` does with one measurement datagram over `image` — the
/// run a block profile is recorded from.
fn step(program: &Arc<CompiledProgram>, image: &TableImage, datagram: &Datagram) -> SimStats {
    let mut router =
        CycleRouter::unfolded(Arc::clone(program), image, 0).expect("the router builds");
    router.enqueue(PortId(0), datagram).expect("one datagram fits");
    router.run(50_000_000).expect("the datagram runs to its end")
}

#[test]
fn every_sequential_size_runs_what_a_fresh_compile_of_its_size_makes() {
    // A sequential table's size reaches its program only as two immediates
    // (the block count and the table's end), which each image patches into
    // its machine's one template.  Held here to a fresh compile of the
    // sequence generated for that size, on Table 1's machines and the
    // machine a profile is recorded on: every 23rd size up to the largest
    // prepared input and one past it, and every size whose block count or
    // table end equals another literal of the program (its literal pool is
    // one entry shorter than the template's).
    let opts = MicrocodeOptions::default();
    let unroll = usize::from(opts.unroll);
    let bounds = |n: usize| {
        let padded = padded_entries(n, opts.unroll);
        [(padded / unroll) as u32, TABLE_BASE + padded as u32 * SEQ_ENTRY_WORDS]
    };
    let compile = |seq: &MoveSeq, machine: &MachineConfig| {
        let mut program = schedule(seq, machine);
        program.resolve_labels().expect("generated labels resolve");
        CompiledProgram::compile(machine.clone(), Arc::new(program)).expect("it compiles")
    };
    let literals = |program: &Program| -> Vec<u32> {
        let moves = program.instructions.iter().flat_map(Instruction::moves);
        moves.filter_map(|mv| if let Source::Imm(v) = mv.src { Some(v) } else { None }).collect()
    };
    let mut machines = vec![
        MachineConfig::one_bus_one_fu(),
        MachineConfig::three_bus_one_fu(),
        MachineConfig::three_bus_three_fu(),
    ];
    let largest = 2049;
    let routes = benchmark_routes(largest);
    let image = TableImage::new(TableKind::Sequential, &routes, &opts).expect("an image");
    machines.push(image.unfolded_program(0).expect("it compiles").config().clone());

    // Every literal of a program but its two bounds: a fresh compile at the
    // largest size, whose bounds no other literal equals, less those.
    let (entries, tuned) = generator_input(TableKind::Sequential, &routes, opts);
    let mut seq = program_for(TableKind::Sequential, entries, &tuned);
    optimize(&mut seq);
    let distinct = |values: Vec<u32>| values.into_iter().collect::<BTreeSet<u32>>();
    let mut others = BTreeSet::new();
    let mut full_pools = Vec::new();
    for machine in &machines {
        let mut values = literals(compile(&seq, machine).program());
        full_pools.push(distinct(values.clone()).len());
        for bound in bounds(largest) {
            let at = values.iter().position(|&v| v == bound).expect("the bound is a literal");
            values.swap_remove(at);
        }
        assert!(values.iter().all(|v| !bounds(largest).contains(v)), "{machine}");
        others.extend(values);
    }
    let mut sizes: Vec<usize> = (1..=largest).step_by(23).chain([2048, largest]).collect();
    let colliding: BTreeSet<usize> = (1..=largest)
        .filter(|&n| bounds(n).iter().any(|b| others.contains(b)))
        .map(|n| padded_entries(n, opts.unroll))
        .collect();
    assert!(colliding.len() >= 10, "sizes whose bounds are other literals: {colliding:?}");
    sizes.extend(&colliding);

    let mut shorter_pools = 0;
    for n in sizes {
        let routes = benchmark_routes(n);
        let image = TableImage::new(TableKind::Sequential, &routes, &opts).expect("an image");
        let datagram = measurement_datagram(&routes);
        let (entries, tuned) = generator_input(TableKind::Sequential, &routes, opts);
        let mut seq = program_for(TableKind::Sequential, entries, &tuned);
        optimize(&mut seq);
        for (i, machine) in machines.iter().enumerate() {
            let at = format!("n={n} @{machine}");
            let patched = match i {
                3 => image.unfolded_program(0),
                _ => image.compiled(machine),
            }
            .expect("it compiles");
            let fresh = compile(&seq, machine);
            assert!(patched.program() == fresh.program(), "{at}: the program");
            assert_eq!(patched.blocks(), fresh.blocks(), "{at}: the block summary");
            assert_eq!(patched.program_bits(), fresh.program_bits(), "{at}: the image size");
            let stats = step(&patched, &image, &datagram);
            assert_eq!(stats, step(&fresh, &image, &datagram), "{at}: the measurement run");
            shorter_pools += usize::from(distinct(literals(fresh.program())).len() < full_pools[i]);
        }
    }
    assert!(shorter_pools >= colliding.len(), "{shorter_pools} shorter pools");
}

/// `mv` with every unit it names folded onto `machine`.
fn folded(mv: &Move, machine: &MachineConfig) -> Move {
    let port = |p: PortRef| PortRef { fu: machine.fold(p.fu), ..p };
    Move {
        src: match &mv.src {
            Source::Port(p) => Source::Port(port(*p)),
            other => other.clone(),
        },
        dst: port(mv.dst),
        guard: mv.guard.map(|g| Guard { fu: machine.fold(g.fu), ..g }),
    }
}

#[test]
fn every_scheduled_move_of_the_oracle_grid_names_its_machine_s_fold() {
    // The programs of `parallel_equivalence`'s 96-point oracle grid (every
    // kind, buses 1–6, replication 1–4) at its four table sizes: each
    // word's moves, printed and sorted, are the sequence's folded by
    // `MachineConfig::fold`, and each names a unit the machine has.
    let mut moved = 0;
    for entries in [1, 8, 100, 1024] {
        let routes = benchmark_routes(entries);
        for kind in TableKind::ALL_KINDS {
            let (size, opts) = generator_input(kind, &routes, MicrocodeOptions::default());
            let mut seq = program_for(kind, size, &opts);
            optimize(&mut seq);
            for config in grid(&SweepSpec {
                buses: (1..=6).collect(),
                replication: (1..=4).collect(),
                kinds: vec![kind],
                ..SweepSpec::default()
            }) {
                let machine = &config.machine;
                let program = schedule(&seq, machine);
                let mut scheduled: Vec<String> = program
                    .instructions
                    .iter()
                    .flat_map(Instruction::moves)
                    .map(Move::to_string)
                    .collect();
                let mut expected: Vec<String> =
                    seq.moves.iter().map(|mv| folded(mv, machine).to_string()).collect();
                scheduled.sort_unstable();
                expected.sort_unstable();
                assert_eq!(scheduled, expected, "{config} at {entries} entries");
                for fu in
                    program.instructions.iter().flat_map(Instruction::moves).map(|mv| mv.dst.fu)
                {
                    assert!(fu.index < machine.fu_count(fu.kind), "{config}: {fu}");
                }
                moved += seq.moves.iter().filter(|mv| machine.fold(mv.dst.fu) != mv.dst.fu).count();
            }
        }
    }
    assert!(moved > 0, "no move of the grid is folded onto another unit");
}
