//! Pre-decoded move schedules — the one form [`Processor`](crate::Processor)
//! executes.
//!
//! Resolving a move's ports costs a match on the source and destination
//! vocabulary, a linear search of the datapath for the addressed FU
//! instance and a parse of each `"rN"` register name.  None of that
//! depends on machine state, so [`decode`] does it once, at processor
//! construction: every move becomes a flat [`DMove`] whose guard, source
//! and destination are dense indices into the processor's state arrays,
//! every trigger gets a pre-assigned statistics slot, and every
//! instruction carries precomputed RTU-stall and conflict flags.  The
//! per-cycle work left for `Processor::run_with` is an array walk — the
//! "compile, don't interpret" result of the
//! cycle-accurate-simulator-generation literature, applied to TTA move
//! schedules.
//!
//! Decoding must preserve semantics: conflict detection compares decoded
//! destinations with exactly the equality [`taco_isa::PortRef`] has
//! (instance indices are kept even where the architectural state is
//! shared), and the loop keeps the phase structure and trace-event order
//! of the instruction words it replaces.  What checks that is the
//! reference interpreter in `reference.rs`, which executes the words
//! directly and shares nothing with this module; `tests/step_reference.rs`
//! holds the two to equal statistics, events and machine state.

use std::sync::{Arc, OnceLock};

use taco_isa::{FuKind, FuRef, MachineConfig, Program, Source};

use crate::error::SimError;
use crate::units::DatapathFu;

/// A decoded move source: everything resolved to a direct state access.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DSrc {
    /// A folded immediate (resolved labels included).
    Imm(u32),
    /// General-purpose register, index pre-parsed from the `"rN"` name.
    Reg(u8),
    /// MMU port result register.
    MmuResult(u8),
    /// `rtu0.iface`.
    RtuIface,
    /// `rtu0.nh`.
    RtuNh,
    /// `ippu0.ptr`.
    IppuPtr,
    /// `ippu0.iface`.
    IppuIface,
    /// Result port of a datapath FU, by dense datapath index.
    Datapath(u16, &'static str),
}

/// A decoded guard condition.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DGuard {
    /// Unguarded move.
    Always,
    /// `rtu.hit` (possibly negated).
    Rtu { negate: bool },
    /// `ippu.pending` (possibly negated).
    IppuPending { negate: bool },
    /// A datapath FU guard signal, by dense datapath index.
    Datapath { index: u16, signal: &'static str, negate: bool },
}

/// A decoded trigger destination.  Instance indices are carried even where
/// the architectural state is shared (RTU, iPPU, oPPU are singletons) so
/// that [`DDst`] equality coincides with [`taco_isa::PortRef`] equality —
/// the relation the reference interpreter's conflict check uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DTrig {
    /// `mmuN.tread`.
    MmuRead(u8),
    /// `mmuN.twrite`.
    MmuWrite(u8),
    /// `rtuN.t`.
    Rtu(u8),
    /// `ippuN.tpop`.
    IppuPop(u8),
    /// `oppuN.t`.
    OppuEmit(u8),
    /// Trigger port of a datapath FU, by dense datapath index.
    Datapath(u16, &'static str),
}

/// A decoded move destination (see [`DTrig`] on instance indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DDst {
    /// General-purpose register (instance kept for conflict equality only).
    Reg { inst: u8, idx: u8 },
    /// `mmuN.addr`.
    MmuAddr(u8),
    /// `rtuN.k{0,1,2}`.
    RtuKey { inst: u8, k: u8 },
    /// `oppuN.iface`.
    OppuIface(u8),
    /// Operand port of a datapath FU, by dense datapath index.
    DatapathOperand(u16, &'static str),
    /// `ncN.pc` — the jump "trigger".
    Jump(u8),
    /// A real FU trigger; `slot` indexes [`DecodedProgram::trigger_fus`].
    Trigger { kind: DTrig, slot: u16 },
}

impl DDst {
    /// Mirrors [`taco_isa::PortRef::is_trigger`] for the write-phase
    /// ordering: operand and register writes land before triggers fire.
    pub(crate) fn is_trigger(self) -> bool {
        matches!(self, DDst::Jump(_) | DDst::Trigger { .. })
    }
}

/// One decoded move: `bus` is kept for trace events and for recovering the
/// original [`taco_isa::PortRef`] on the cold conflict-error path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DMove {
    pub bus: u8,
    pub guard: DGuard,
    pub src: DSrc,
    pub dst: DDst,
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

/// A program pre-decoded against a machine configuration and its datapath
/// layout.  Immutable once built; the processor shares it behind an `Arc`
/// so the hot loop can walk it while mutating machine state.
#[derive(Debug)]
pub(crate) struct DecodedProgram {
    pub moves: Vec<DMove>,
    pub ins: Vec<InsMeta>,
    /// Trigger statistics slots: one entry per distinct triggered [`FuRef`],
    /// indexed by the `slot` field of [`DDst::Trigger`].  The compiled loop
    /// bumps a flat counter per slot and folds into the `BTreeMap` stats
    /// only on exit.
    pub trigger_fus: Vec<FuRef>,
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
        let decoded = decode(&config, &program, &crate::processor::datapath_for(&config))?;
        Ok(Arc::new(CompiledProgram { config, program, decoded, bits: OnceLock::new() }))
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

/// Decodes `program` (already validated against `config`) into a flat
/// schedule over the given datapath layout.
///
/// # Errors
///
/// Decoding re-surfaces the same structural errors
/// [`Processor`](crate::Processor) construction screens for; after a
/// successful `validate()` none of them are reachable.
pub(crate) fn decode(
    config: &MachineConfig,
    program: &Program,
    datapath: &[(FuRef, DatapathFu)],
) -> Result<DecodedProgram, SimError> {
    let dp_index = |fu: FuRef| -> Result<u16, SimError> {
        datapath
            .iter()
            .position(|(f, _)| *f == fu)
            .map(|i| i as u16)
            .ok_or(SimError::InvalidFuIndex { fu, available: config.fu_count(fu.kind) })
    };
    let mut moves = Vec::new();
    let mut ins = Vec::with_capacity(program.instructions.len());
    let mut trigger_fus: Vec<FuRef> = Vec::new();

    for instruction in &program.instructions {
        let start = moves.len() as u32;
        let mut rtu_sensitive = false;
        for (bus, mv) in
            instruction.slots.iter().enumerate().filter_map(|(b, s)| Some((b, s.as_ref()?)))
        {
            let guard = match &mv.guard {
                None => DGuard::Always,
                Some(g) => match g.fu.kind {
                    FuKind::Rtu => {
                        rtu_sensitive = true;
                        DGuard::Rtu { negate: g.negate }
                    }
                    FuKind::Ippu => DGuard::IppuPending { negate: g.negate },
                    _ => DGuard::Datapath {
                        index: dp_index(g.fu)?,
                        signal: g.signal,
                        negate: g.negate,
                    },
                },
            };
            let src = match &mv.src {
                Source::Imm(v) => DSrc::Imm(*v),
                Source::Label(l) => return Err(SimError::UnresolvedLabel(l.clone())),
                Source::Port(p) => match p.fu.kind {
                    FuKind::Regs => DSrc::Reg(crate::processor::register_index(*p)? as u8),
                    FuKind::Mmu => DSrc::MmuResult(p.fu.index),
                    FuKind::Rtu => {
                        rtu_sensitive = true;
                        if p.port == "iface" {
                            DSrc::RtuIface
                        } else {
                            DSrc::RtuNh
                        }
                    }
                    FuKind::Ippu => {
                        if p.port == "ptr" {
                            DSrc::IppuPtr
                        } else {
                            DSrc::IppuIface
                        }
                    }
                    _ => DSrc::Datapath(dp_index(p.fu)?, p.port),
                },
            };
            let d = mv.dst;
            let dst = if d.is_trigger() {
                if d.fu.kind == FuKind::Nc {
                    DDst::Jump(d.fu.index)
                } else {
                    let kind = match d.fu.kind {
                        FuKind::Mmu => {
                            if d.port == "tread" {
                                DTrig::MmuRead(d.fu.index)
                            } else {
                                DTrig::MmuWrite(d.fu.index)
                            }
                        }
                        FuKind::Rtu => DTrig::Rtu(d.fu.index),
                        FuKind::Ippu => DTrig::IppuPop(d.fu.index),
                        FuKind::Oppu => DTrig::OppuEmit(d.fu.index),
                        _ => DTrig::Datapath(dp_index(d.fu)?, d.port),
                    };
                    let slot = match trigger_fus.iter().position(|f| *f == d.fu) {
                        Some(i) => i as u16,
                        None => {
                            trigger_fus.push(d.fu);
                            (trigger_fus.len() - 1) as u16
                        }
                    };
                    DDst::Trigger { kind, slot }
                }
            } else {
                match d.fu.kind {
                    FuKind::Regs => DDst::Reg {
                        inst: d.fu.index,
                        idx: crate::processor::register_index(d)? as u8,
                    },
                    FuKind::Mmu => DDst::MmuAddr(d.fu.index),
                    FuKind::Rtu => {
                        let k = match d.port {
                            "k0" => 0,
                            "k1" => 1,
                            _ => 2,
                        };
                        DDst::RtuKey { inst: d.fu.index, k }
                    }
                    FuKind::Oppu => DDst::OppuIface(d.fu.index),
                    _ => DDst::DatapathOperand(dp_index(d.fu)?, d.port),
                }
            };
            moves.push(DMove { bus: bus as u8, guard, src, dst });
        }
        let end = moves.len() as u32;
        let slice = &moves[start as usize..end as usize];
        let may_conflict =
            slice.iter().enumerate().any(|(i, m)| slice[..i].iter().any(|e| e.dst == m.dst));
        ins.push(InsMeta { start, end, rtu_sensitive, may_conflict });
    }
    // Compiled programs are retained for the life of the process; do not
    // retain the vectors' growth slack with them.
    moves.shrink_to_fit();
    trigger_fus.shrink_to_fit();
    Ok(DecodedProgram { moves, ins, trigger_fus })
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_isa::asm;

    fn decoded(text: &str, config: MachineConfig) -> (DecodedProgram, Program) {
        let mut prog = asm::parse(text).unwrap();
        prog.resolve_labels().unwrap();
        crate::processor::validate(&config, &prog).unwrap();
        let dp = decode(&config, &prog, &crate::processor::datapath_for(&config)).unwrap();
        (dp, prog)
    }

    #[test]
    fn register_names_fold_to_indices() {
        let (dp, _) = decoded("7 -> regs0.r13\nregs0.r13 -> regs0.r2\n", MachineConfig::new(1));
        assert!(matches!(dp.moves[0].dst, DDst::Reg { idx: 13, .. }));
        assert!(matches!(dp.moves[1].src, DSrc::Reg(13)));
        assert!(matches!(dp.moves[1].dst, DDst::Reg { idx: 2, .. }));
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
        let (dp, _) = decoded("1 -> regs0.r0 | 2 -> regs0.r1\n1 -> regs0.r3 | 2 -> regs0.r3\n", {
            MachineConfig::new(2)
        });
        assert!(!dp.ins[0].may_conflict);
        assert!(dp.ins[1].may_conflict);
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
