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
//! guard-bit test, a load and a store per move, with a dispatch on [`Op`]
//! only where a trigger fires — the "compile, don't interpret" result of
//! the cycle-accurate-simulator-generation literature, applied to TTA move
//! schedules.
//!
//! Decoding must preserve semantics: conflict detection compares `(op,
//! dst)`, which is exactly the equality [`taco_isa::PortRef`] has (a port
//! is its FU's slot plus what writing it does, and singleton FUs have one
//! instance), and the loop keeps the phase structure and trace-event order
//! of the instruction words it replaces.  What checks that is the
//! reference interpreter in `reference.rs`, which executes the words
//! directly, resolving every port through the same [`PortMap`] and
//! firing the same [`Ports::apply`](crate::units::Ports::apply), but shares
//! nothing with this module; `tests/step_reference.rs` holds the two to
//! equal statistics, events and machine state.

use std::sync::{Arc, OnceLock};

use taco_isa::{FuKind, FuRef, MachineConfig, Program, Source};

use crate::error::SimError;
use crate::units::{Op, PortMap};

/// `DMove::src` of a move whose source is its immediate.
pub(crate) const IMM: u16 = u16::MAX;

/// One decoded move.  The guard passes iff `guards[guard] != negate`
/// (slot 0 is constant-true for unguarded moves); the value is `imm` when
/// `src` is [`IMM`], else `file[src]`; `dst` is the written word for a
/// plain destination and the FU's first word for a trigger, `gbase` the
/// FU's first guard slot.  `slot` indexes [`DecodedProgram::trigger_fus`]
/// (FU triggers only); `fu` (the destination's) and `bus` are kept for
/// trace events, `bus` also for recovering the original
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
    /// Range of this instruction's moves in [`DecodedProgram::moves`].
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
#[derive(Debug)]
pub(crate) struct DecodedProgram {
    pub moves: Vec<DMove>,
    pub ins: Vec<InsMeta>,
    /// Trigger statistics slots: one entry per distinct triggered [`FuRef`],
    /// indexed by [`DMove::slot`].  The compiled loop bumps a flat counter
    /// per slot and folds into the `BTreeMap` stats only on exit.
    pub trigger_fus: Vec<FuRef>,
    /// Moves in the widest instruction.
    pub max_width: usize,
}

/// A program compiled for one machine: validated, pre-decoded and sized.
///
/// Everything [`Processor`](crate::Processor) construction used to redo per
/// instance — structural validation, [`decode`], and (for callers that
/// charge the program store) the encoded image size — is a pure function of
/// `(config, program)`, so it is done once here and shared behind an `Arc`
/// by every processor instantiated from it
/// ([`Processor::instantiate`](crate::Processor::instantiate)).
#[derive(Debug)]
pub struct CompiledProgram {
    pub(crate) config: MachineConfig,
    pub(crate) program: Arc<Program>,
    pub(crate) map: PortMap,
    pub(crate) decoded: DecodedProgram,
    bits: OnceLock<u64>,
}

impl CompiledProgram {
    /// Validates `program` against `config` and pre-decodes it.
    ///
    /// # Errors
    ///
    /// See [`Processor::new`](crate::Processor::new).
    pub fn compile(config: MachineConfig, program: Arc<Program>) -> Result<Arc<Self>, SimError> {
        crate::processor::validate(&config, &program)?;
        let map = PortMap::new(&config);
        let decoded = decode(&map, &program)?;
        Ok(Arc::new(CompiledProgram { config, program, map, decoded, bits: OnceLock::new() }))
    }

    /// Encoded program-image size in bits (instruction store + literal
    /// pool) — what the area estimate charges the program store.  Encoded
    /// on first use; zero for a program the encoder rejects.
    pub fn program_bits(&self) -> u64 {
        *self.bits.get_or_init(|| {
            taco_isa::encode(&self.program, &self.config).map_or(0, |e| e.total_bits())
        })
    }
}

/// Decodes `program` into a flat schedule over the port layout `map`.
///
/// # Errors
///
/// Decoding re-surfaces the structural errors
/// [`Processor`](crate::Processor) construction screens for — an FU
/// instance, port or guard signal the machine lacks; after a successful
/// `validate()` none of them are reachable.
pub(crate) fn decode(map: &PortMap, program: &Program) -> Result<DecodedProgram, SimError> {
    let mut moves: Vec<DMove> = Vec::new();
    let mut ins = Vec::with_capacity(program.instructions.len());
    let mut trigger_fus: Vec<FuRef> = Vec::new();

    for instruction in &program.instructions {
        let start = moves.len();
        let mut rtu_sensitive = false;
        for (bus, mv) in
            instruction.slots.iter().enumerate().filter_map(|(b, s)| Some((b, s.as_ref()?)))
        {
            let (guard, negate) = match &mv.guard {
                None => (0, false),
                Some(g) => {
                    rtu_sensitive |= g.fu.kind == FuKind::Rtu;
                    (map.guard(g.fu, g.signal)?, g.negate)
                }
            };
            let (imm, src) = match &mv.src {
                Source::Imm(v) => (*v, IMM),
                Source::Label(l) => return Err(SimError::UnresolvedLabel(l.clone())),
                Source::Port(p) => {
                    rtu_sensitive |= p.fu.kind == FuKind::Rtu;
                    (0, map.port(*p)?.1 as u16)
                }
            };
            let (op, dst, gbase) = map.port(mv.dst)?;
            let mut slot = 0;
            if op.is_trigger() && op != Op::Jump {
                slot = trigger_fus.iter().position(|f| *f == mv.dst.fu).unwrap_or_else(|| {
                    trigger_fus.push(mv.dst.fu);
                    trigger_fus.len() - 1
                });
            }
            moves.push(DMove {
                imm,
                src,
                guard: guard as u16,
                dst: dst as u16,
                gbase: gbase as u16,
                slot: slot as u16,
                fu: mv.dst.fu,
                op,
                negate,
                bus: bus as u8,
            });
        }
        let slice = &moves[start..];
        let may_conflict = slice
            .iter()
            .enumerate()
            .any(|(i, m)| slice[..i].iter().any(|e| (e.op, e.dst) == (m.op, m.dst)));
        let (start, end) = (start as u32, moves.len() as u32);
        ins.push(InsMeta { start, end, rtu_sensitive, may_conflict });
    }
    // Compiled programs are retained for the life of the process; do not
    // retain the vectors' growth slack with them.
    moves.shrink_to_fit();
    trigger_fus.shrink_to_fit();
    let max_width = ins.iter().map(|m| (m.end - m.start) as usize).max().unwrap_or(0);
    Ok(DecodedProgram { moves, ins, trigger_fus, max_width })
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_isa::{asm, Instruction, Move, PortRef};

    fn decoded(text: &str, config: MachineConfig) -> (DecodedProgram, PortMap) {
        let mut prog = asm::parse(text).unwrap();
        prog.resolve_labels().unwrap();
        crate::processor::validate(&config, &prog).unwrap();
        let map = PortMap::new(&config);
        (decode(&map, &prog).unwrap(), map)
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
        assert_eq!((dp.moves[1].src, dp.moves[1].dst), (r13, r13 - 11));
        let cnt0 = FuRef::new(FuKind::Counter, 0);
        assert_eq!(usize::from(dp.moves[2].guard), map.guard(cnt0, 1).unwrap());
        assert_eq!(usize::from(dp.moves[2].gbase), map.fu(cnt0).unwrap().1);
        assert_eq!(dp.moves[2].op, Op::CounterStop);
        assert!(std::mem::size_of::<DMove>() <= 20);
    }

    #[test]
    fn ports_the_machine_lacks_are_rejected_at_decode() {
        // What the string-port FU models used to panic on at run time, for
        // microcode that reaches `decode` without passing `validate`.
        let map = PortMap::new(&MachineConfig::new(1));
        let program = |mv| Program {
            instructions: vec![Instruction::single(mv, 1)],
            labels: Default::default(),
        };
        let r0 = PortRef::new(FuKind::Regs, 0, "r0");
        // The checksum unit has three ports.
        let bad_trigger = PortRef { fu: FuRef::new(FuKind::Checksum, 0), port: 3 };
        assert_eq!(
            decode(&map, &program(Move::new(0u32, bad_trigger))).err(),
            Some(SimError::InvalidPort { port: bad_trigger, why: "no such port on this FU" })
        );
        let shft0 = FuRef::new(FuKind::Shifter, 0);
        let bad_guard = taco_isa::Guard { fu: shft0, signal: 0, negate: false };
        assert_eq!(
            decode(&map, &program(Move::new(0u32, r0).with_guard(bad_guard))).err(),
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
        assert_eq!(dp.max_width, 2);
    }

    #[test]
    fn trigger_slots_are_per_fu_instance() {
        let (dp, _) =
            decoded("1 -> cnt0.tinc\n2 -> cnt0.tadd\n0 -> csum0.tclr\n", MachineConfig::new(1));
        // Two distinct FUs triggered -> two slots; the counter's two
        // trigger ports share its slot.
        assert_eq!(dp.trigger_fus.len(), 2);
        assert_eq!(dp.trigger_fus[0], FuRef::new(FuKind::Counter, 0));
        assert_eq!(dp.trigger_fus[1], FuRef::new(FuKind::Checksum, 0));
    }
}
