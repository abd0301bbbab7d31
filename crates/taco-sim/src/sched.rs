//! Pre-decoded move schedules — the one form [`Processor`](crate::Processor)
//! executes.
//!
//! Resolving a move's ports costs a range check and a table lookup per port
//! and guard, and a dispatch on what writing the port does.  None of that
//! depends on machine state, so [`decode`] does it once per program: every
//! move becomes a flat
//! [`DMove`] whose guard, source and destination are slots in the
//! processor's port file ([`PortMap`]), every trigger gets a pre-assigned
//! statistics slot, and every instruction carries precomputed RTU-stall and
//! conflict flags.  The per-cycle work left for `Processor::run_with` is a
//! dispatch on [`Op`], a load and a store per move, a guard-bit test past
//! the unguarded stores, and an FU's operation where a trigger fires — the
//! "compile, don't interpret" result of the
//! cycle-accurate-simulator-generation literature, applied to TTA move
//! schedules.
//!
//! Three more things are fixed per program and resolved here too:
//!
//! * **Groups.** An instruction's moves are stored in execution order:
//!   guarded stores (with the `cntN.stop` writes), unguarded copies,
//!   unguarded immediates, triggers in bus order, then the moves into
//!   `nc0.pc`.  The unguarded plain stores are marked [`Op::Copy`] and
//!   [`Op::Imm`], so the loop executes a word in one pass with one dispatch
//!   per move and no guard test on those.  Immediates read nothing, so they
//!   go last among the stores; guarded stores go first, ahead of the copies
//!   that often overwrite their source in the same cycle (a software-
//!   pipelined scan's `?mtch0.match regs0.r14 -> regs0.r10 | cnt0.r ->
//!   regs0.r14`).
//! * **Early reads.** Executing the moves one after another is the
//!   hardware's read-everything-then-write cycle wherever no move reads a
//!   word or guard bit that an earlier move in that order writes.  Where one
//!   does (a copy chain `r1 -> r2 | r2 -> r3`, a guard a same-cycle
//!   `cntN.stop` moves, a trigger reading a result another trigger of the
//!   word rewrites), `decode` points that move's source or guard at a
//!   scratch slot past the end of its file and records an early read, which
//!   the loop copies from the original slot at the start of the
//!   instruction, before any move writes.
//! * **Runs.** [`InsMeta::run`] counts the straight-line instructions from
//!   an instruction through the next one that holds a jump, so the loop
//!   checks halt, deadline and PC range once per run instead of once per
//!   cycle.
//!
//! Decoding must preserve semantics: conflict detection compares `(op,
//! dst)`, which is exactly the equality [`taco_isa::PortRef`] has (a port
//! is its FU's slot plus what writing it does, and singleton FUs have one
//! instance), and the loop keeps the read/write timing and trace-event
//! order of the instruction words it replaces.  What checks that is the
//! reference interpreter in `reference.rs`, which executes the words
//! directly, resolving every port through the same [`PortMap`] and
//! firing the same [`Ports::apply`](crate::units::Ports::apply), but shares
//! nothing with this module; `tests/step_reference.rs` holds the two to
//! equal statistics, events and machine state.

use std::ops::Range;
use std::sync::Arc;

use taco_isa::{
    FuKind, FuRef, MachineConfig, PortDir, PortRef, Program, SlotLayout, SocketMap, Source,
};

use crate::blocks::{summarise, Block};
use crate::error::SimError;
use crate::units::{words, Op, PortMap};

/// `DMove::src` of a move whose source is its immediate.
pub(crate) const IMM: u16 = u16::MAX;

/// One decoded move.  The guard passes iff `guards[guard] != negate`
/// (slot 0 is constant-true for unguarded moves); the value is `imm` when
/// `src` is [`IMM`], else `file[src]`; either slot may be an early read's
/// scratch slot.  `dst` is the written word for a plain destination and the
/// FU's first word for a trigger, `gbase` the FU's first guard slot.
/// `slot`, the destination's place in [`MachineConfig::units`], indexes the
/// step loop's trigger counters; `fu` (the destination's) and `bus` are kept
/// for trace events, `bus` also for recovering the original
/// [`taco_isa::PortRef`] on the cold conflict-error path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DMove {
    pub imm: u32,
    pub src: u16,
    pub guard: u16,
    pub dst: u16,
    pub gbase: u16,
    pub slot: u16,
    pub fu: FuRef,
    pub op: Op,
    pub negate: bool,
    pub bus: u8,
}

/// Per-instruction metadata precomputed at decode time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InsMeta {
    /// This instruction's moves in [`DecodedProgram::moves`], in execution
    /// order.
    pub start: u32,
    pub end: u32,
    /// First of its early reads in [`DecodedProgram::early`]:
    /// `early_words` port words, then `early_guards` guard bits.
    pub early: u32,
    pub early_words: u8,
    pub early_guards: u8,
    /// Instructions in the straight-line run from this one through the
    /// next that holds a move into `nc0.pc`, or through the last.
    pub run: u32,
    /// Any move reads an RTU result or evaluates an RTU guard — the only
    /// condition under which the interlock can stall this instruction.
    pub rtu_sensitive: bool,
    /// Two moves share a destination port, so the dynamic conflict check
    /// must run; statically-conflict-free instructions (the vast majority)
    /// skip it.
    pub may_conflict: bool,
}

/// A program pre-decoded against a machine's port layout.  Immutable once
/// built; the processor shares it behind an `Arc` so the hot loop can walk
/// it while mutating machine state.
#[derive(Debug)]
pub(crate) struct DecodedProgram {
    /// Every instruction's moves, each instruction's in execution order.
    pub moves: Vec<DMove>,
    /// `(from, to)` slot pairs copied at the start of an instruction, before
    /// any of its moves writes ([`InsMeta::early`]).
    pub early: Vec<(u16, u16)>,
    pub ins: Vec<InsMeta>,
    /// Scratch words and guard bits the early reads need past the end of
    /// the word file and the guard file.
    pub scratch: (usize, usize),
    /// Size in bits of the program's encoded image.
    pub image_bits: u64,
}

/// A program compiled for one machine: validated, pre-decoded, sized and
/// cut into summarised basic blocks.
///
/// Everything [`Processor`](crate::Processor) construction used to redo per
/// instance — structural validation, decoding, and (for callers that charge
/// the program store) the encoded image size — is a pure function of
/// `(config, program)`, so [`CompiledProgram::compile`] does it in one walk
/// and the result is shared behind an `Arc` by every processor instantiated
/// from it ([`Processor::instantiate`](crate::Processor::instantiate)).  So
/// is the block summary a price is summed over.
#[derive(Debug)]
pub struct CompiledProgram {
    pub(crate) config: MachineConfig,
    pub(crate) program: Arc<Program>,
    pub(crate) map: PortMap,
    pub(crate) decoded: DecodedProgram,
    blocks: Box<[Block]>,
}

impl CompiledProgram {
    /// Validates `program` against `config`, pre-decodes it, sizes its
    /// encoded image and summarises its basic blocks.
    ///
    /// # Errors
    ///
    /// See [`Processor::new`](crate::Processor::new).
    pub fn compile(config: MachineConfig, program: Arc<Program>) -> Result<Arc<Self>, SimError> {
        let map = PortMap::new(&config);
        let decoded = decode(&config, &map, &program)?;
        let blocks = summarise(&program);
        Ok(Arc::new(CompiledProgram { config, program, map, decoded, blocks }))
    }

    /// The program's basic blocks in program order, each with its length
    /// and RTU shape.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The scheduled program this was compiled from.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Encoded program-image size in bits (instruction store + literal
    /// pool) — what the area estimate charges the program store, and what
    /// [`taco_isa::EncodedProgram::total_bits`] reports for the same
    /// program, counted from the encoder's field layout without building
    /// the image.
    pub fn program_bits(&self) -> u64 {
        self.decoded.image_bits
    }
}

/// Where a move executes within its instruction: guarded stores (with
/// every `cntN.stop` write, the one store that does more than store),
/// unguarded copies, unguarded immediates, triggers, jumps.
fn group(mv: &DMove) -> u8 {
    match mv.op {
        Op::Jump => 4,
        op if op.is_trigger() => 3,
        Op::Imm => 2,
        Op::Copy => 1,
        _ => 0,
    }
}

/// The word and guard slots executing `mv` may write: its destination word
/// (and, for `cntN.stop`, the counter's guards), or every slot of a
/// trigger's unit — `units::tests::a_trigger_writes_only_inside_its_unit`
/// holds [`Ports::apply`](crate::units::Ports::apply) to that.
fn writes(mv: &DMove) -> (Range<usize>, Range<usize>) {
    let (dst, gbase) = (usize::from(mv.dst), usize::from(mv.gbase));
    let guards = gbase..gbase + mv.fu.kind.guards().len();
    match mv.op {
        op if op.is_trigger() => (dst..dst + words(mv.fu.kind), guards),
        Op::CounterStop => (dst..dst + 1, guards),
        _ => (dst..dst + 1, 0..0),
    }
}

/// The slot of `port` in `map`'s layout, or why a move may not name it:
/// an FU instance or port the machine lacks, or a port of the wrong
/// direction (`written` says which end of the move it is).
fn checked_port(
    map: &PortMap,
    port: PortRef,
    written: bool,
) -> Result<(Op, usize, usize), SimError> {
    let resolved = map.port(port)?;
    match (written, port.dir()) {
        (true, PortDir::Result) => {
            Err(SimError::InvalidPort { port, why: "result ports cannot be written" })
        }
        (false, PortDir::Operand | PortDir::Trigger) => {
            Err(SimError::InvalidPort { port, why: "operand/trigger ports cannot be read" })
        }
        _ => Ok(resolved),
    }
}

/// Validates `program` against `config` and decodes it into a flat schedule
/// over the port layout `map`, in one walk that also counts the size of its
/// encoded image ([`SlotLayout`]: instruction words plus a pool of its
/// distinct literals).
///
/// Screening every port and guard here is what lets the execution core
/// return structured [`SimError`]s instead of panicking: microcode built by
/// hand (bypassing the assembler and `PortRef::new`) is rejected at
/// construction with [`SimError::InvalidPort`] / [`SimError::InvalidGuard`].
///
/// # Errors
///
/// The first of, in program order and within a move destination, source,
/// guard: an instruction wider than the machine, an FU instance, port or
/// guard signal the machine lacks, a port read or written against its
/// direction, or a label left unresolved.
pub(crate) fn decode(
    config: &MachineConfig,
    map: &PortMap,
    program: &Program,
) -> Result<DecodedProgram, SimError> {
    let mut moves: Vec<DMove> = Vec::with_capacity(program.move_count());
    let mut early: Vec<(u16, u16)> = Vec::new();
    let mut ins = Vec::with_capacity(program.instructions.len());
    let mut scratch = (0, 0);
    let mut literals: Vec<u32> = Vec::new();
    let first_unit = FuKind::ALL.map(|kind| config.units().take_while(|u| u.kind < kind).count());

    for (idx, instruction) in program.instructions.iter().enumerate() {
        if instruction.slots.len() > usize::from(config.buses()) {
            return Err(SimError::TooManySlots {
                instruction: idx,
                slots: instruction.slots.len(),
                buses: config.buses(),
            });
        }
        let start = moves.len();
        let mut rtu_sensitive = false;
        for (bus, mv) in
            instruction.slots.iter().enumerate().filter_map(|(b, s)| Some((b, s.as_ref()?)))
        {
            let (mut op, dst, gbase) = checked_port(map, mv.dst, true)?;
            let (imm, src) = match &mv.src {
                Source::Imm(v) => {
                    literals.push(*v);
                    (*v, IMM)
                }
                Source::Port(p) => {
                    rtu_sensitive |= p.fu.kind == FuKind::Rtu;
                    (0, checked_port(map, *p, false)?.1 as u16)
                }
                // Reported after the guard's checks (see `# Errors`).
                Source::Label(_) => (0, IMM),
            };
            let (guard, negate) = match &mv.guard {
                None => (0, false),
                Some(g) => {
                    rtu_sensitive |= g.fu.kind == FuKind::Rtu;
                    (map.guard(g.fu, g.signal)?, g.negate)
                }
            };
            if let Source::Label(l) = &mv.src {
                return Err(SimError::UnresolvedLabel(l.clone()));
            }
            if op == Op::Store && guard == 0 {
                op = if src == IMM { Op::Imm } else { Op::Copy };
            }
            moves.push(DMove {
                imm,
                src,
                guard: guard as u16,
                dst: dst as u16,
                gbase: gbase as u16,
                slot: (first_unit[mv.dst.fu.kind as usize] + usize::from(mv.dst.fu.index)) as u16,
                fu: mv.dst.fu,
                op,
                negate,
                bus: bus as u8,
            });
        }
        let word = &mut moves[start..];
        let port = |m: &DMove| (m.op.port_op(), m.dst);
        let may_conflict =
            word.iter().enumerate().any(|(i, m)| word[..i].iter().any(|e| port(e) == port(m)));
        word.sort_unstable_by_key(|m| (group(m), m.bus));
        let jumps = word.last().is_some_and(|m| m.op == Op::Jump);

        // Early reads: a source or guard an earlier move in execution order
        // writes is copied to scratch before the first move runs.
        let first = early.len();
        for k in 0..word.len() {
            let src = usize::from(word[k].src);
            if word[k].src != IMM && word[..k].iter().any(|e| writes(e).0.contains(&src)) {
                let to = (map.file_len + early.len() - first) as u16;
                early.push((word[k].src, to));
                word[k].src = to;
            }
        }
        let early_words = early.len() - first;
        for k in 0..word.len() {
            let guard = usize::from(word[k].guard);
            if guard != 0 && word[..k].iter().any(|e| writes(e).1.contains(&guard)) {
                let to = (map.guards_len + early.len() - first - early_words) as u16;
                early.push((word[k].guard, to));
                word[k].guard = to;
            }
        }
        let early_guards = early.len() - first - early_words;
        scratch = (scratch.0.max(early_words), scratch.1.max(early_guards));
        ins.push(InsMeta {
            start: start as u32,
            end: moves.len() as u32,
            early: first as u32,
            early_words: early_words as u8,
            early_guards: early_guards as u8,
            // A run ends at a jump: 1 here, the rest counted backwards below.
            run: u32::from(jumps),
            rtu_sensitive,
            may_conflict,
        });
    }
    let mut next = 0;
    for meta in ins.iter_mut().rev() {
        if meta.run == 0 {
            meta.run = next + 1;
        }
        next = meta.run;
    }
    // Compiled programs are retained for the life of the process; do not
    // retain the vectors' growth slack with them (`moves` has none).
    early.shrink_to_fit();
    // Every immediate widens the encoder's `src` field; only distinct ones
    // take a place in its literal pool.
    let layout = SlotLayout::new(&SocketMap::new(config), literals.len() as u64);
    literals.sort_unstable();
    literals.dedup();
    let image_bits = layout.image_bits(ins.len(), config.buses(), literals.len());
    Ok(DecodedProgram { moves, early, ins, scratch, image_bits })
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_isa::{asm, Instruction, Move, PortRef};

    fn decoded(text: &str, config: MachineConfig) -> (DecodedProgram, PortMap) {
        let mut prog = asm::parse(text).unwrap();
        prog.resolve_labels().unwrap();
        let map = PortMap::new(&config);
        (decode(&config, &map, &prog).unwrap(), map)
    }

    #[test]
    fn ports_fold_to_file_slots() {
        let (dp, map) = decoded(
            "7 -> regs0.r13\nregs0.r13 -> regs0.r2\n?cnt0.zero mmu0.r -> cnt0.stop\n",
            MachineConfig::new(1),
        );
        let r13 = map.port(PortRef::new(FuKind::Regs, 0, "r13")).unwrap().1 as u16;
        assert_eq!((dp.moves[0].imm, dp.moves[0].src, dp.moves[0].dst), (7, IMM, r13));
        assert_eq!((dp.moves[0].guard, dp.moves[0].negate, dp.moves[0].op), (0, false, Op::Imm));
        assert_eq!(dp.moves[1].op, Op::Copy);
        assert_eq!((dp.moves[1].src, dp.moves[1].dst), (r13, r13 - 11));
        let cnt0 = FuRef::new(FuKind::Counter, 0);
        assert_eq!(usize::from(dp.moves[2].guard), map.guard(cnt0, 1).unwrap());
        assert_eq!(usize::from(dp.moves[2].gbase), map.fu(cnt0).unwrap().1);
        assert_eq!(dp.moves[2].op, Op::CounterStop);
        assert!(std::mem::size_of::<DMove>() <= 20);
    }

    #[test]
    fn ports_the_machine_lacks_are_rejected_at_decode() {
        // What the string-port FU models used to panic on at run time.
        let config = MachineConfig::new(1);
        let map = PortMap::new(&config);
        let program = |mv| Program {
            instructions: vec![Instruction::single(mv, 1)],
            labels: Default::default(),
        };
        let r0 = PortRef::new(FuKind::Regs, 0, "r0");
        // The checksum unit has three ports.
        let bad_trigger = PortRef { fu: FuRef::new(FuKind::Checksum, 0), port: 3 };
        assert_eq!(
            decode(&config, &map, &program(Move::new(0u32, bad_trigger))).err(),
            Some(SimError::InvalidPort { port: bad_trigger, why: "no such port on this FU" })
        );
        let shft0 = FuRef::new(FuKind::Shifter, 0);
        let bad_guard = taco_isa::Guard { fu: shft0, signal: 0, negate: false };
        assert_eq!(
            decode(&config, &map, &program(Move::new(0u32, r0).with_guard(bad_guard))).err(),
            Some(SimError::InvalidGuard { fu: shft0, signal: 0 })
        );
    }

    #[test]
    fn rtu_sensitivity_is_per_instruction() {
        let (dp, _) = decoded(
            "1 -> rtu0.t\nrtu0.iface -> regs0.r0\n?rtu0.hit 1 -> regs0.r1\n2 -> regs0.r2\n",
            MachineConfig::new(1),
        );
        // Triggering the RTU does not stall; reading or guarding on it does.
        assert!(!dp.ins[0].rtu_sensitive);
        assert!(dp.ins[1].rtu_sensitive);
        assert!(dp.ins[2].rtu_sensitive);
        assert!(!dp.ins[3].rtu_sensitive);
    }

    #[test]
    fn static_conflicts_are_flagged() {
        // Two triggers of one FU are different ports; two stores to one
        // register (or two jumps) are the same.
        let (dp, _) = decoded(
            "1 -> regs0.r0 | 2 -> regs0.r1\n1 -> regs0.r3 | 2 -> regs0.r3\n\
             1 -> cnt0.tinc | 2 -> cnt0.tadd\n0 -> nc0.pc | 0 -> nc0.pc\n",
            MachineConfig::new(2),
        );
        let flags: Vec<bool> = dp.ins.iter().map(|m| m.may_conflict).collect();
        assert_eq!(flags, [false, true, false, true]);
        assert!(dp.ins.iter().all(|m| m.end - m.start == 2));
    }

    #[test]
    fn groups_are_in_execution_order() {
        let (dp, _) = decoded(
            "0 -> nc0.pc | ?cnt0.zero 2 -> regs0.r1 | 1 -> cnt0.tinc | 3 -> regs0.r2 | \
             regs0.r5 -> regs0.r3 | 4 -> cnt1.stop | 1 -> csum0.tadd | regs0.r6 -> regs0.r4\n",
            MachineConfig::new(8).with_fu_count(FuKind::Counter, 2),
        );
        let order: Vec<(u8, Op)> = dp.moves.iter().map(|m| (m.bus, m.op)).collect();
        // Guarded stores and `stop` writes, copies, immediates, triggers in
        // bus order, the jump.
        use Op::*;
        let expected = [
            (1, Store),
            (5, CounterStop),
            (4, Copy),
            (7, Copy),
            (3, Imm),
            (2, CntInc),
            (6, CsumAdd),
            (0, Jump),
        ];
        assert_eq!(order, expected);
        let m = dp.ins[0];
        assert_eq!((m.end - m.start, m.run, m.may_conflict), (8, 1, false));
        assert_eq!((m.early_words, m.early_guards, dp.scratch), (0, 0, (0, 0)));
    }

    #[test]
    fn early_reads_are_exactly_the_same_cycle_hazards() {
        // (word, early words, early guards): a read of what an earlier move
        // in execution order writes is early; a read before the write is not.
        let cases = [
            ("regs0.r1 -> regs0.r2 | regs0.r2 -> regs0.r3", 1, 0),
            ("regs0.r2 -> regs0.r3 | regs0.r1 -> regs0.r2", 0, 0),
            ("regs0.r1 -> regs0.r2 | regs0.r2 -> regs0.r1", 1, 0),
            ("3 -> cnt0.stop | ?cnt0.done 1 -> regs0.r0", 0, 1),
            ("1 -> cnt0.tinc | !cnt0.done 0 -> nc0.pc", 0, 1),
            ("1 -> cnt0.tinc | cnt0.r -> regs0.r0", 0, 0),
            ("0 -> mmu0.tread | mmu0.r -> csum0.tadd", 1, 0),
            ("mmu0.r -> csum0.tadd | 0 -> mmu0.tread", 0, 0),
            ("regs0.r1 -> regs0.r2 | ?cnt0.zero regs0.r2 -> cnt0.tset", 1, 0),
        ];
        for (text, words, guards) in cases {
            let (dp, map) = decoded(&format!("{text}\n"), MachineConfig::new(2));
            let m = dp.ins[0];
            assert_eq!((m.early_words, m.early_guards), (words, guards), "{text}");
            assert_eq!(dp.scratch, (usize::from(words), usize::from(guards)), "{text}");
            // The early move reads the scratch slot the early read fills.
            if let Some(&(from, to)) = dp.early.first() {
                let (file, guard) = (map.file_len as u16, map.guards_len as u16);
                let reader = dp.moves.iter().find(|m| m.src == to || m.guard == to).unwrap();
                assert!(to == file || to == guard, "{text}");
                assert!(from < file && reader.bus == 1, "{text}");
            }
        }
    }

    #[test]
    fn runs_end_at_the_next_jump() {
        let (dp, _) = decoded(
            "1 -> regs0.r0\n2 -> regs0.r1\nl: @l -> nc0.pc\n3 -> regs0.r2\n\
             ?cnt0.done @l -> nc0.pc\n5 -> regs0.r3\n6 -> regs0.r4\n",
            MachineConfig::new(1),
        );
        let runs: Vec<u32> = dp.ins.iter().map(|m| m.run).collect();
        assert_eq!(runs, [3, 2, 1, 2, 1, 2, 1]);
    }

    #[test]
    fn trigger_slots_are_per_fu_instance() {
        let machine = MachineConfig::new(1).with_fu_count(FuKind::Counter, 2);
        let (dp, _) = decoded("1 -> cnt1.tinc\n2 -> cnt1.tadd\n0 -> csum0.tclr\n", machine.clone());
        // A trigger's slot is its unit's place among the machine's units
        // (FuRef order); the counter's two trigger ports share its slot.
        let units: Vec<FuRef> = machine.units().collect();
        let slots: Vec<u16> = dp.moves.iter().map(|m| m.slot).collect();
        let unit = |fu| units.iter().position(|&u| u == fu).unwrap() as u16;
        let (cnt1, csum0) = (FuRef::new(FuKind::Counter, 1), FuRef::new(FuKind::Checksum, 0));
        assert_eq!(slots, [unit(cnt1), unit(cnt1), unit(csum0)]);
        assert_eq!(slots[0], 3, "a matcher, a comparator and the first counter come before it");
    }
}
