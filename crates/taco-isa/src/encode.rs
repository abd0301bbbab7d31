//! Binary instruction-word encoding.
//!
//! "TTAs are in essence one instruction processors … the instruction word
//! of any TTA processor consists mostly of source and destination
//! addresses."  This module makes that sentence concrete: it numbers every
//! socket (FU port) and guard signal of a [`MachineConfig`], packs each bus
//! slot into the minimal field layout, and measures how wide the resulting
//! instruction word is — the quantity that sizes the program memory in the
//! physical model.
//!
//! Slot layout (least-significant first):
//!
//! | field | width | meaning |
//! |---|---|---|
//! | `dst` | `socket_bits` | destination socket id |
//! | `src` | max(`socket_bits`, `imm_bits`) | source socket id, or literal-pool index |
//! | `is_imm` | 1 | source is a literal-pool index |
//! | `guard` | `guard_bits` | 0 = unguarded, else guard id + 1 |
//! | `negate` | 1 | invert the guard |
//! | `valid` | 1 | slot carries a move |
//!
//! 32-bit immediates live in a **literal pool** appended to the image (the
//! classic TTA long-immediate mechanism), so the slot stays narrow — a
//! one-bus paper configuration encodes to a 17-bit instruction word.
//!
//! [`encode`] and [`decode`] round-trip exactly (labels must be resolved
//! first; jump targets are immediates like any other).

use std::fmt;

use crate::fu::{FuKind, FuRef};
use crate::machine::MachineConfig;
use crate::program::{Guard, Instruction, Move, PortRef, Program, Source};

/// Stable numbering of the sockets and guard signals of one configuration:
/// every port of every FU instance, then every guard signal, kind by kind
/// in [`FuKind::ALL`] order, instance by instance, in table order.  Ids are
/// computed, not searched for.
#[derive(Debug, Clone)]
pub struct SocketMap {
    count: [u8; FuKind::ALL.len()],
    socket_base: [u64; FuKind::ALL.len()],
    guard_base: [u64; FuKind::ALL.len()],
    sockets: u64,
    guards: u64,
}

impl SocketMap {
    /// Numbers `config`'s sockets and guard signals.
    pub fn new(config: &MachineConfig) -> Self {
        let mut map = SocketMap {
            count: [0; FuKind::ALL.len()],
            socket_base: [0; FuKind::ALL.len()],
            guard_base: [0; FuKind::ALL.len()],
            sockets: 0,
            guards: 0,
        };
        for kind in FuKind::ALL {
            let (k, count) = (kind as usize, config.fu_count(kind));
            map.count[k] = count;
            map.socket_base[k] = map.sockets;
            map.guard_base[k] = map.guards;
            map.sockets += u64::from(count) * kind.ports().len() as u64;
            map.guards += u64::from(count) * kind.guards().len() as u64;
        }
        map
    }

    /// Number of sockets.
    pub(crate) fn socket_count(&self) -> usize {
        self.sockets as usize
    }

    /// Bits needed for a socket id.
    pub(crate) fn socket_bits(&self) -> u32 {
        bits_for(self.sockets - 1)
    }

    /// Bits needed for the guard field (including the "unguarded" code 0).
    pub(crate) fn guard_bits(&self) -> u32 {
        bits_for(self.guards)
    }

    /// The id of a socket.
    pub(crate) fn socket_id(&self, port: &PortRef) -> Option<u64> {
        let kind = port.fu.kind;
        self.id(&self.socket_base, port.fu, port.port, kind.ports().len())
    }

    /// The socket with a given id.
    pub(crate) fn socket(&self, id: u64) -> Option<PortRef> {
        let (fu, port) = self.locate(&self.socket_base, id, |k| k.ports().len())?;
        Some(PortRef { fu, port })
    }

    /// The id of guard signal `signal` (an index into `fu.kind.guards()`).
    pub(crate) fn guard_id(&self, fu: FuRef, signal: u8) -> Option<u64> {
        self.id(&self.guard_base, fu, signal, fu.kind.guards().len())
    }

    /// The guard signal with a given id.
    pub(crate) fn guard(&self, id: u64) -> Option<(FuRef, u8)> {
        self.locate(&self.guard_base, id, |k| k.guards().len())
    }

    /// Entry `entry` of `fu`, whose kind has `per_fu` entries per instance,
    /// in the numbering starting at `base`.
    fn id(
        &self,
        base: &[u64; FuKind::ALL.len()],
        fu: FuRef,
        entry: u8,
        per_fu: usize,
    ) -> Option<u64> {
        let k = fu.kind as usize;
        (fu.index < self.count[k] && usize::from(entry) < per_fu)
            .then(|| base[k] + u64::from(fu.index) * per_fu as u64 + u64::from(entry))
    }

    /// The inverse of [`SocketMap::id`].
    fn locate(
        &self,
        base: &[u64; FuKind::ALL.len()],
        id: u64,
        per_fu: fn(FuKind) -> usize,
    ) -> Option<(FuRef, u8)> {
        FuKind::ALL.into_iter().find_map(|kind| {
            let k = kind as usize;
            let per_fu = per_fu(kind) as u64;
            let offset = id.checked_sub(base[k])?;
            (offset < u64::from(self.count[k]) * per_fu)
                .then(|| (FuRef::new(kind, (offset / per_fu) as u8), (offset % per_fu) as u8))
        })
    }
}

fn bits_for(max_value: u64) -> u32 {
    (64 - max_value.leading_zeros()).max(1)
}

/// The field widths of one bus slot (the table above) for one machine and
/// one program: the socket and guard fields are the machine's, and the
/// `src` field must also index a literal pool as long as the program's
/// count of immediate moves.  [`encode`] packs slots with it, and a caller
/// that needs only the image size ([`SlotLayout::image_bits`]) uses it
/// without building the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotLayout {
    socket_bits: u32,
    src_bits: u32,
    guard_bits: u32,
}

impl SlotLayout {
    /// The layout for `map`'s machine and a program with `immediates`
    /// immediate-source moves.
    pub fn new(map: &SocketMap, immediates: u64) -> Self {
        let socket_bits = map.socket_bits();
        let src_bits = socket_bits.max(bits_for(immediates.saturating_sub(1)));
        SlotLayout { socket_bits, src_bits, guard_bits: map.guard_bits() }
    }

    /// Width of one slot in bits: `dst`, `src`, `is_imm`, `guard`,
    /// `negate` and `valid`.
    pub(crate) fn slot_bits(&self) -> u32 {
        self.socket_bits + self.src_bits + 1 + self.guard_bits + 1 + 1
    }

    /// Size in bits of an image of `instructions` instructions on `buses`
    /// buses with `literals` distinct literals: what
    /// [`EncodedProgram::total_bits`] reports for the same program.
    pub fn image_bits(&self, instructions: usize, buses: u8, literals: usize) -> u64 {
        image_bits(instructions, u32::from(buses) * self.slot_bits(), literals)
    }
}

/// Program store plus literal pool, in bits.
fn image_bits(instructions: usize, instruction_bits: u32, literals: usize) -> u64 {
    instructions as u64 * u64::from(instruction_bits) + literals as u64 * 32
}

/// A program packed into instruction words plus a literal pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedProgram {
    /// One `u64` per bus slot, row-major (`instructions × buses`); the
    /// meaningful low bits per slot are [`EncodedProgram::slot_bits`].
    pub slots: Vec<u64>,
    /// The 32-bit literals referenced by immediate slots.
    pub literals: Vec<u32>,
    /// Buses per instruction.
    pub buses: u8,
    /// Width of one slot in bits.
    pub slot_bits: u32,
}

impl EncodedProgram {
    /// Width of one full instruction word in bits (`buses × slot_bits`).
    pub(crate) fn instruction_bits(&self) -> u32 {
        u32::from(self.buses) * self.slot_bits
    }

    /// Number of instructions.
    pub(crate) fn instruction_count(&self) -> usize {
        self.slots.len() / usize::from(self.buses)
    }

    /// Total image size in bits: program store plus literal pool.
    pub fn total_bits(&self) -> u64 {
        image_bits(self.instruction_count(), self.instruction_bits(), self.literals.len())
    }
}

impl fmt::Display for EncodedProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instructions x {} bits + {} literals ({} bytes total)",
            self.instruction_count(),
            self.instruction_bits(),
            self.literals.len(),
            self.total_bits().div_ceil(8)
        )
    }
}

/// Why a program could not be encoded or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodeError {
    /// A move still carries an unresolved label.
    UnresolvedLabel(String),
    /// A move references a socket the configuration lacks.
    UnknownSocket(PortRef),
    /// A guard references a signal the configuration lacks.
    UnknownGuard(FuRef),
    /// An instruction is wider than the configuration's bus count.
    TooManySlots {
        /// Offending instruction index.
        instruction: usize,
    },
    /// A decoded field held an out-of-range id.
    BadField {
        /// Slot index in the image.
        slot: usize,
        /// Field name.
        field: &'static str,
    },
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::UnresolvedLabel(l) => write!(f, "unresolved label {l:?}"),
            CodeError::UnknownSocket(p) => write!(f, "no socket for {p}"),
            CodeError::UnknownGuard(g) => write!(f, "no guard signals on {g}"),
            CodeError::TooManySlots { instruction } => {
                write!(f, "instruction {instruction} is wider than the machine")
            }
            CodeError::BadField { slot, field } => {
                write!(f, "slot {slot} holds an out-of-range {field}")
            }
        }
    }
}

impl std::error::Error for CodeError {}

/// Encodes a label-resolved program for `config`.
///
/// # Errors
///
/// [`CodeError::UnresolvedLabel`] / [`CodeError::UnknownSocket`] /
/// [`CodeError::UnknownGuard`] / [`CodeError::TooManySlots`] for programs
/// that do not fit the configuration.
pub fn encode(prog: &Program, config: &MachineConfig) -> Result<EncodedProgram, CodeError> {
    let map = SocketMap::new(config);
    let buses = config.buses();
    // The src field must hold socket ids and literal indices alike.
    let moves = prog.instructions.iter().flat_map(Instruction::moves);
    let immediates = moves.filter(|mv| matches!(mv.src, Source::Imm(_))).count();
    let layout = SlotLayout::new(&map, immediates as u64);
    let SlotLayout { socket_bits, src_bits, guard_bits } = layout;

    let mut literals: Vec<u32> = Vec::new();
    let mut slots = Vec::new();

    for (idx, ins) in prog.instructions.iter().enumerate() {
        if ins.slots.len() > usize::from(buses) {
            return Err(CodeError::TooManySlots { instruction: idx });
        }
        for b in 0..usize::from(buses) {
            let word = match ins.slots.get(b).and_then(|s| s.as_ref()) {
                None => 0u64, // valid bit clear
                Some(mv) => {
                    let dst = map.socket_id(&mv.dst).ok_or(CodeError::UnknownSocket(mv.dst))?;
                    let (is_imm, src) = match &mv.src {
                        Source::Port(p) => {
                            (0u64, map.socket_id(p).ok_or(CodeError::UnknownSocket(*p))?)
                        }
                        Source::Imm(v) => {
                            // Pool deduplicates literals.
                            let i = literals.iter().position(|x| x == v).unwrap_or_else(|| {
                                literals.push(*v);
                                literals.len() - 1
                            });
                            (1u64, i as u64)
                        }
                        Source::Label(l) => return Err(CodeError::UnresolvedLabel(l.clone())),
                    };
                    let (guard, negate) = match &mv.guard {
                        None => (0u64, 0u64),
                        Some(g) => {
                            let id = map
                                .guard_id(g.fu, g.signal)
                                .ok_or(CodeError::UnknownGuard(g.fu))?;
                            (id + 1, u64::from(g.negate))
                        }
                    };
                    let mut w = dst;
                    w |= src << socket_bits;
                    w |= is_imm << (socket_bits + src_bits);
                    w |= guard << (socket_bits + src_bits + 1);
                    w |= negate << (socket_bits + src_bits + 1 + guard_bits);
                    w |= 1u64 << (socket_bits + src_bits + 1 + guard_bits + 1);
                    w
                }
            };
            slots.push(word);
        }
    }

    Ok(EncodedProgram { slots, literals, buses, slot_bits: layout.slot_bits() })
}

/// Decodes an image back into a program (label-free: jumps stay immediate).
///
/// # Errors
///
/// [`CodeError::BadField`] when an id falls outside the configuration's
/// socket/guard/literal spaces.
pub fn decode(enc: &EncodedProgram, config: &MachineConfig) -> Result<Program, CodeError> {
    let map = SocketMap::new(config);
    let socket_bits = map.socket_bits();
    let guard_bits = map.guard_bits();
    let src_bits = enc.slot_bits - socket_bits - 1 - guard_bits - 1 - 1;

    let field = |w: u64, shift: u32, bits: u32| (w >> shift) & ((1u64 << bits) - 1);

    let mut prog = Program::new();
    for chunk in enc.slots.chunks(usize::from(enc.buses)) {
        let mut ins = Instruction::empty(enc.buses);
        for (b, &w) in chunk.iter().enumerate() {
            let valid = field(w, socket_bits + src_bits + 1 + guard_bits + 1, 1);
            if valid == 0 {
                continue;
            }
            let slot_index = prog.instructions.len() * usize::from(enc.buses) + b;
            let dst = map
                .socket(field(w, 0, socket_bits))
                .ok_or(CodeError::BadField { slot: slot_index, field: "dst" })?;
            let src_raw = field(w, socket_bits, src_bits);
            let is_imm = field(w, socket_bits + src_bits, 1) == 1;
            let src = if is_imm {
                let v = enc
                    .literals
                    .get(src_raw as usize)
                    .ok_or(CodeError::BadField { slot: slot_index, field: "literal" })?;
                Source::Imm(*v)
            } else {
                Source::Port(
                    map.socket(src_raw)
                        .ok_or(CodeError::BadField { slot: slot_index, field: "src" })?,
                )
            };
            let guard_raw = field(w, socket_bits + src_bits + 1, guard_bits);
            let negate = field(w, socket_bits + src_bits + 1 + guard_bits, 1) == 1;
            let guard = if guard_raw == 0 {
                None
            } else {
                let (fu, signal) = map
                    .guard(guard_raw - 1)
                    .ok_or(CodeError::BadField { slot: slot_index, field: "guard" })?;
                Some(Guard { fu, signal, negate })
            };
            ins.slots[b] = Some(Move { src, dst, guard });
        }
        prog.instructions.push(ins);
    }
    Ok(prog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm;
    use crate::sched::schedule;

    fn sample_program(buses: u8) -> Program {
        let mut b = crate::builder::CodeBuilder::new();
        let cnt = b.fu(FuKind::Counter, 0);
        let cmp = b.fu(FuKind::Comparator, 0);
        b.mv(0u32, cnt.port("tset"));
        b.mv(5u32, cnt.port("stop"));
        b.label("loop");
        b.mv(1u32, cnt.port("tinc"));
        b.mv(cnt.port("r"), cmp.port("t"));
        b.jump_unless(cnt.guard("done"), "loop");
        let mut prog = schedule(&b.finish(), &MachineConfig::new(buses));
        prog.resolve_labels().expect("labels defined");
        prog
    }

    #[test]
    fn socket_map_is_dense_and_invertible() {
        let config = MachineConfig::three_bus_three_fu();
        let map = SocketMap::new(&config);
        assert_eq!(map.socket_count() as u32, config.total_sockets());
        for id in 0..map.socket_count() as u64 {
            let port = map.socket(id).expect("dense");
            assert_eq!(map.socket_id(&port), Some(id));
        }
        assert!(map.socket(map.socket_count() as u64).is_none());
        let guards = (0u64..).take_while(|&id| map.guard(id).is_some()).count();
        assert_eq!(
            guards,
            3 + 3 * 3 + 3 * 2 + 1 + 1,
            "match, eq/lt/gt, done/zero ×3; hit; pending"
        );
        for id in 0..guards as u64 {
            let (fu, signal) = map.guard(id).expect("dense");
            assert_eq!(map.guard_id(fu, signal), Some(id));
        }
        let cnt3 = FuRef::new(FuKind::Counter, 3);
        assert_eq!(map.socket_id(&PortRef { fu: cnt3, port: 0 }), None, "no fourth counter");
        assert_eq!(map.guard_id(FuRef::new(FuKind::Counter, 0), 2), None, "two counter signals");
    }

    #[test]
    fn round_trip_exactly() {
        for buses in [1u8, 3] {
            let config = MachineConfig::new(buses);
            let prog = sample_program(buses);
            let enc = encode(&prog, &config).expect("encodes");
            let dec = decode(&enc, &config).expect("decodes");
            // Decoded programs are label-free; compare instructions only.
            assert_eq!(dec.instructions, prog.instructions, "{buses} buses");
        }
    }

    #[test]
    fn instruction_word_is_mostly_addresses() {
        // The paper's observation, checked numerically: on the one-bus
        // configuration, source+destination fields dominate the slot.
        let config = MachineConfig::one_bus_one_fu();
        let map = SocketMap::new(&config);
        let enc = encode(&sample_program(1), &config).expect("encodes");
        let addr_bits = map.socket_bits() * 2; // dst + (socket-sized src)
        assert!(
            f64::from(addr_bits) > 0.6 * f64::from(enc.slot_bits),
            "addresses {addr_bits} of {} slot bits",
            enc.slot_bits
        );
        // And the whole word is compact: tens of bits, not hundreds.
        assert!(enc.instruction_bits() < 32, "{}", enc.instruction_bits());
    }

    #[test]
    fn literal_pool_deduplicates() {
        let mut prog = asm::parse("7 -> cnt0.tset\n7 -> cnt0.stop\n9 -> cnt0.tadd\n").unwrap();
        prog.resolve_labels().unwrap();
        let enc = encode(&prog, &MachineConfig::new(1)).expect("encodes");
        assert_eq!(enc.literals, vec![7, 9]);
    }

    #[test]
    fn empty_slots_stay_empty() {
        let mut prog = asm::parse("... | 1 -> cnt0.tinc | ...\n").unwrap();
        prog.resolve_labels().unwrap();
        let config = MachineConfig::new(3);
        let enc = encode(&prog, &config).expect("encodes");
        let dec = decode(&enc, &config).expect("decodes");
        assert!(dec.instructions[0].slots[0].is_none());
        assert!(dec.instructions[0].slots[1].is_some());
        assert!(dec.instructions[0].slots[2].is_none());
    }

    #[test]
    fn unresolved_labels_rejected() {
        let prog = asm::parse("@nowhere -> nc0.pc\n").unwrap();
        assert!(matches!(
            encode(&prog, &MachineConfig::new(1)),
            Err(CodeError::UnresolvedLabel(_))
        ));
    }

    #[test]
    fn missing_fu_rejected() {
        let mut prog = asm::parse("1 -> mtch2.t\n").unwrap();
        prog.resolve_labels().unwrap();
        assert!(matches!(encode(&prog, &MachineConfig::new(1)), Err(CodeError::UnknownSocket(_))));
    }

    #[test]
    fn wide_instruction_rejected() {
        let mut prog = asm::parse("1 -> regs0.r0 | 2 -> regs0.r1\n").unwrap();
        prog.resolve_labels().unwrap();
        assert!(matches!(
            encode(&prog, &MachineConfig::new(1)),
            Err(CodeError::TooManySlots { instruction: 0 })
        ));
    }

    #[test]
    fn corrupted_image_decodes_to_error_not_panic() {
        let config = MachineConfig::new(1);
        let mut enc = encode(&sample_program(1), &config).expect("encodes");
        // Blast a slot with all-ones: valid bit set, ids out of range.
        enc.slots[0] = u64::MAX;
        assert!(matches!(decode(&enc, &config), Err(CodeError::BadField { .. })));
    }

    #[test]
    fn image_size_accounting() {
        let config = MachineConfig::new(3);
        let enc = encode(&sample_program(3), &config).expect("encodes");
        assert_eq!(enc.instruction_count(), enc.slots.len() / 3);
        let expect = enc.instruction_count() as u64 * u64::from(enc.instruction_bits())
            + enc.literals.len() as u64 * 32;
        assert_eq!(enc.total_bits(), expect);
        assert!(enc.to_string().contains("instructions"));
    }
}
