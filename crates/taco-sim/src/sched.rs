//! Pre-decoded move schedules — the one form [`Processor`](crate::Processor)
//! executes.
//!
//! Resolving a move's ports costs a range check and a table lookup per port
//! and guard, and a dispatch on what writing the port does.  None of that
//! depends on machine state, so [`decode`] does it once per program: every
//! move becomes a flat [`DMove`] whose guard, source and destination are
//! slots in the processor's port file ([`PortMap`]), stored in bus order;
//! every trigger gets a pre-assigned statistics slot, and every instruction
//! carries precomputed RTU-stall and conflict flags.  The per-cycle work
//! left for `Processor::run_with` is the hardware's two-phase word — a
//! guard-bit test and a load per move, then a store per passing move and
//! an FU's operation where a trigger fires — the "compile, don't
//! interpret" result of the cycle-accurate-simulator-generation
//! literature, applied to TTA move schedules.
//!
//! Decoding must preserve semantics: conflict detection compares `(op,
//! dst)`, which is exactly the equality [`taco_isa::PortRef`] has (a port
//! is its FU's slot plus what writing it does, and singleton FUs have one
//! instance).  `tests/step_reference.rs` holds the loop's statistics,
//! event streams and machine state to `tests/golden/step_matrix.txt`.

use std::sync::{Arc, OnceLock};

use taco_isa::{
    FuKind, FuRef, MachineConfig, PortDir, PortRef, Program, SlotLayout, SocketMap, Source,
};

use crate::blocks::{summarise, Block};
use crate::error::SimError;
use crate::units::{Op, PortMap};

/// `DMove::src` of a move whose source is its immediate.
pub(crate) const IMM: u16 = u16::MAX;

/// One decoded move.  The guard passes iff `guards[guard] != negate`
/// (slot 0 is constant-true for unguarded moves); the value is `imm` when
/// `src` is [`IMM`], else `file[src]`.  `dst` is the written word for a
/// plain destination and the FU's first word for a trigger, `gbase` the
/// FU's first guard slot.
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
    /// This instruction's moves in [`DecodedProgram::moves`], in bus order.
    pub start: u32,
    pub end: u32,
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
#[derive(Debug, Clone)]
pub(crate) struct DecodedProgram {
    /// Every instruction's moves, each instruction's in bus order.
    pub moves: Vec<DMove>,
    pub ins: Vec<InsMeta>,
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
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    pub(crate) config: MachineConfig,
    /// The scheduled program this was compiled from, shared with every
    /// program patched from it: a patch rewrites the decoded moves alone,
    /// and nothing but an immediate's value tells the two apart.
    pub(crate) scheduled: Arc<Program>,
    /// For a patched program, `scheduled` with the decoded moves'
    /// immediates written in, made on its first read
    /// ([`CompiledProgram::program`]); `None` where nothing was patched.
    patched: Option<OnceLock<Program>>,
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
        Ok(Arc::new(CompiledProgram {
            config,
            scheduled: program,
            patched: None,
            map,
            decoded,
            blocks,
        }))
    }

    /// The program's basic blocks in program order, each with its length
    /// and RTU shape.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The scheduled program this was compiled from, with any patched
    /// immediates written in.  A patched program's copy is made on the
    /// first call: no evaluation and no recording reads it, only the
    /// decoded moves, the block summary and the size.
    pub fn program(&self) -> &Program {
        let Some(patched) = &self.patched else { return &self.scheduled };
        patched.get_or_init(|| {
            let mut program = Program::clone(&self.scheduled);
            // The decoded moves are the occupied slots, in the same order.
            let slots = program.instructions.iter_mut().flat_map(|i| i.slots.iter_mut().flatten());
            for (mv, dmove) in slots.zip(&self.decoded.moves) {
                if let Source::Imm(value) = &mut mv.src {
                    *value = dmove.imm;
                }
            }
            program
        })
    }

    /// The number of instruction words, from the decoded program.
    pub fn word_count(&self) -> usize {
        self.decoded.ins.len()
    }

    /// The machine this was compiled for.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Encoded program-image size in bits (instruction store + literal
    /// pool) — what the area estimate charges the program store, and what
    /// [`taco_isa::EncodedProgram::total_bits`] reports for the same
    /// program, counted from the encoder's field layout without building
    /// the image.
    pub fn program_bits(&self) -> u64 {
        self.decoded.image_bits
    }

    /// Rewrites the immediate of move `at` to `value` for each `(at,
    /// value)` pair of `patch` in the decoded moves, and sizes the image
    /// again; `at` counts the program's moves in order, a word's in bus
    /// order.  Scheduling, validation, decoding and the block summary read
    /// no immediate's value, so a program compiled once and patched is the
    /// program a compile of the patched values makes.  Only the literal
    /// pool counts values: a value equal to another literal shares its
    /// place.  The scheduled program stays shared; [`CompiledProgram::program`]
    /// writes the patched values into a copy of it when it is first read.
    /// What `program` shares with another handle is copied first.
    ///
    /// # Panics
    ///
    /// If a move `at` does not exist or does not move an immediate.
    pub fn patch(program: &mut Arc<Self>, patch: &[(usize, u32)]) {
        let this = Arc::make_mut(program);
        for &(at, value) in patch {
            let dmove = &mut this.decoded.moves[at];
            // A compiled program has no label left, so `IMM` is an immediate.
            assert!(dmove.src == IMM, "move {at} is no immediate");
            dmove.imm = value;
        }
        this.patched = Some(OnceLock::new());
        let decoded = &mut this.decoded;
        decoded.image_bits = image_bits(&this.config, &decoded.moves, decoded.ins.len());
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
/// over the port layout `map`, and counts the size of its encoded image
/// ([`image_bits`]).
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
    let mut ins = Vec::with_capacity(program.instructions.len());
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
            let (op, dst, gbase) = checked_port(map, mv.dst, true)?;
            let (imm, src) = match &mv.src {
                Source::Imm(v) => (*v, IMM),
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
        let word = &moves[start..];
        let port = |m: &DMove| (m.op, m.dst);
        let may_conflict =
            word.iter().enumerate().any(|(i, m)| word[..i].iter().any(|e| port(e) == port(m)));
        ins.push(InsMeta {
            start: start as u32,
            end: moves.len() as u32,
            rtu_sensitive,
            may_conflict,
        });
    }
    let image_bits = image_bits(config, &moves, ins.len());
    Ok(DecodedProgram { moves, ins, image_bits })
}

/// Size in bits of the encoded image of `instructions` words holding the
/// decoded `moves` on `config` ([`SlotLayout`]): the instruction words plus
/// a pool of the distinct literals.
fn image_bits(config: &MachineConfig, moves: &[DMove], instructions: usize) -> u64 {
    let mut literals: Vec<u32> = moves.iter().filter(|m| m.src == IMM).map(|m| m.imm).collect();
    // Every immediate widens the encoder's `src` field; only distinct ones
    // take a place in its literal pool.
    let layout = SlotLayout::new(&SocketMap::new(config), literals.len() as u64);
    literals.sort_unstable();
    literals.dedup();
    layout.image_bits(instructions, config.buses(), literals.len())
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
        assert_eq!((dp.moves[0].guard, dp.moves[0].negate, dp.moves[0].op), (0, false, Op::Store));
        assert_eq!(dp.moves[1].op, Op::Store);
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
    fn moves_are_in_bus_order() {
        let (dp, _) = decoded(
            "0 -> nc0.pc | ?cnt0.zero 2 -> regs0.r1 | 1 -> cnt0.tinc | 3 -> regs0.r2 | \
             regs0.r5 -> regs0.r3 | 4 -> cnt1.stop | 1 -> csum0.tadd | regs0.r6 -> regs0.r4\n",
            MachineConfig::new(8).with_fu_count(FuKind::Counter, 2),
        );
        let order: Vec<(u8, Op)> = dp.moves.iter().map(|m| (m.bus, m.op)).collect();
        use Op::*;
        let expected = [
            (0, Jump),
            (1, Store),
            (2, CntInc),
            (3, Store),
            (4, Store),
            (5, CounterStop),
            (6, CsumAdd),
            (7, Store),
        ];
        assert_eq!(order, expected);
        let m = dp.ins[0];
        assert_eq!((m.end - m.start, m.may_conflict), (8, false));
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
