//! Program representation: moves, instructions, and programs.
//!
//! "TTAs are in essence one instruction processors, as instructions only
//! specify data moves between functional units."  A TACO instruction word
//! carries up to one move per bus; a program is a sequence of instruction
//! words plus labels for control transfers (which are themselves moves into
//! the network controller's `pc` register).

use std::collections::BTreeMap;
use std::fmt;

use crate::fu::{FuKind, FuRef, PortDir, PortSpec};

/// A reference to one FU port, e.g. `mtch0.t`: the FU instance plus the
/// port's index in its kind's [`FuKind::ports`] table.  Equality, ordering,
/// hashing and [`PortRef::dir`] are integer operations; the name is looked
/// up only to print it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortRef {
    /// The FU instance.
    pub fu: FuRef,
    /// Index into `fu.kind.ports()`.
    pub port: u8,
}

impl PortRef {
    /// Creates a reference to the port of `kind[index]` called `port`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` has no port called `port` — that is a programming
    /// error in generated code, not a runtime condition.
    pub fn new(kind: FuKind, index: u8, port: &str) -> Self {
        let port =
            kind.find_port(port).unwrap_or_else(|| panic!("{kind} has no port named {port:?}"));
        PortRef { fu: FuRef::new(kind, index), port }
    }

    /// The port's entry in its kind's table.
    ///
    /// # Panics
    ///
    /// Panics if the index is past the table, which only a hand-built
    /// `PortRef` can be (the simulator rejects one before running it).
    fn spec(&self) -> PortSpec {
        self.fu.kind.ports()[usize::from(self.port)]
    }

    /// The port's name (`"t"` for `mtch0.t`).
    pub fn name(&self) -> &'static str {
        self.spec().name
    }

    /// The direction of this port.
    pub fn dir(&self) -> PortDir {
        self.spec().dir
    }

    /// Returns `true` if a move may read from this port.
    pub(crate) fn is_readable(&self) -> bool {
        matches!(self.dir(), PortDir::Result | PortDir::Both)
    }

    /// Returns `true` if a move may write to this port.
    pub(crate) fn is_writable(&self) -> bool {
        matches!(self.dir(), PortDir::Operand | PortDir::Trigger | PortDir::Both)
    }

    /// Returns `true` if writing this port triggers the FU.
    pub fn is_trigger(&self) -> bool {
        self.dir() == PortDir::Trigger
    }
}

impl fmt::Display for PortRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.fu.kind.ports().get(usize::from(self.port)) {
            Some(spec) => write!(f, "{}.{}", self.fu, spec.name),
            None => write!(f, "{}.#{}", self.fu, self.port),
        }
    }
}

/// The source of a move: a port, an immediate, or an unresolved label.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Source {
    /// Read a result (or register-file) port.
    Port(PortRef),
    /// An immediate carried in the instruction word.
    Imm(u32),
    /// A label, resolved to an instruction index by the assembler or
    /// scheduler before execution.
    Label(String),
}

impl Source {
    /// Returns the port if this source reads one.
    pub(crate) fn port(&self) -> Option<PortRef> {
        match self {
            Source::Port(p) => Some(*p),
            _ => None,
        }
    }
}

impl From<u32> for Source {
    fn from(v: u32) -> Self {
        Source::Imm(v)
    }
}

impl From<PortRef> for Source {
    fn from(p: PortRef) -> Self {
        Source::Port(p)
    }
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Source::Port(p) => p.fmt(f),
            Source::Imm(v) => write!(f, "{v:#x}"),
            Source::Label(l) => write!(f, "@{l}"),
        }
    }
}

/// A guard: predicate a move on an FU's 1-bit result signal.
///
/// The paper's Matcher "reports its result to the Interconnection Network
/// Controller by means of a result bit signal directly connected between
/// them"; guards are how programs consume those bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Guard {
    /// The FU driving the signal.
    pub fu: FuRef,
    /// Index into `fu.kind.guards()`.
    pub signal: u8,
    /// If `true` the move executes when the signal is *low*.
    pub negate: bool,
}

impl Guard {
    /// Creates a guard on the signal of `kind[index]` called `signal`.
    ///
    /// # Panics
    ///
    /// Panics if the FU kind does not drive a guard signal of that name.
    pub fn new(kind: FuKind, index: u8, signal: &str, negate: bool) -> Self {
        let signal = kind
            .find_guard(signal)
            .unwrap_or_else(|| panic!("{kind} drives no guard signal {signal:?}"));
        Guard { fu: FuRef::new(kind, index), signal, negate }
    }

    /// The signal's name (`"done"` for `?cnt0.done`).
    ///
    /// # Panics
    ///
    /// Panics if the index is past the kind's table (see [`PortRef::name`]).
    pub fn name(&self) -> &'static str {
        self.fu.kind.guards()[usize::from(self.signal)]
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}.", if self.negate { '!' } else { '?' }, self.fu)?;
        match self.fu.kind.guards().get(usize::from(self.signal)) {
            Some(name) => f.write_str(name),
            None => write!(f, "#{}", self.signal),
        }
    }
}

/// One data transport: `src -> dst`, optionally guarded.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Move {
    /// Where the value comes from.
    pub src: Source,
    /// The written port.
    pub dst: PortRef,
    /// Optional predicate.
    pub guard: Option<Guard>,
}

impl Move {
    /// Creates an unguarded move.
    pub fn new(src: impl Into<Source>, dst: PortRef) -> Self {
        Move { src: src.into(), dst, guard: None }
    }

    /// Returns a copy with a guard attached.
    pub fn with_guard(mut self, guard: Guard) -> Self {
        self.guard = Some(guard);
        self
    }

    /// Returns `true` if this move writes the network controller's program
    /// counter (i.e. is a jump).
    pub fn is_control_transfer(&self) -> bool {
        self.dst.fu.kind == FuKind::Nc
    }
}

impl fmt::Display for Move {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(g) = &self.guard {
            write!(f, "{g} ")?;
        }
        write!(f, "{} -> {}", self.src, self.dst)
    }
}

/// One instruction word: up to one move per bus.
///
/// `slots[i]` is the move carried by bus `i` this cycle, or `None` if the
/// bus idles.  Bus utilisation — a Table 1 column — is the fraction of
/// non-`None` slots over a whole execution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Instruction {
    /// Per-bus move slots.
    pub slots: Vec<Option<Move>>,
}

impl Instruction {
    /// Creates an instruction with `buses` empty slots.
    pub fn empty(buses: u8) -> Self {
        Instruction { slots: vec![None; usize::from(buses)] }
    }

    /// Creates a single-move instruction occupying the first of `buses`
    /// slots.
    pub fn single(mv: Move, buses: u8) -> Self {
        let mut ins = Self::empty(buses);
        ins.slots[0] = Some(mv);
        ins
    }

    /// Iterates over the occupied slots.
    pub fn moves(&self) -> impl Iterator<Item = &Move> {
        self.slots.iter().flatten()
    }

    /// Number of occupied slots.
    pub fn move_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .slots
            .iter()
            .map(|s| s.as_ref().map_or_else(|| "...".to_string(), |m| m.to_string()))
            .collect();
        f.write_str(&parts.join(" | "))
    }
}

/// A scheduled program: instruction words plus a label table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// The instruction words, executed from index 0.
    pub instructions: Vec<Instruction>,
    /// Label name → instruction index.
    pub labels: BTreeMap<String, usize>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a linear move sequence as a one-move-per-instruction program —
    /// the "non-optimized" form of the paper's Fig. 3.
    pub fn from_moves(seq: &MoveSeq, buses: u8) -> Self {
        let mut labels = BTreeMap::new();
        for (name, idx) in &seq.labels {
            labels.insert(name.clone(), *idx);
        }
        Program {
            instructions: seq.moves.iter().map(|m| Instruction::single(m.clone(), buses)).collect(),
            labels,
        }
    }

    /// Replaces every [`Source::Label`] with the immediate instruction index
    /// it names.
    ///
    /// # Errors
    ///
    /// Returns the offending label name if it is not defined.
    pub fn resolve_labels(&mut self) -> Result<(), String> {
        let Program { instructions, labels } = self;
        for ins in instructions {
            for slot in ins.slots.iter_mut().flatten() {
                if let Source::Label(name) = &slot.src {
                    let target = *labels.get(name).ok_or_else(|| name.clone())?;
                    slot.src = Source::Imm(target as u32);
                }
            }
        }
        Ok(())
    }

    /// Total number of move slots across all instructions (occupied or not).
    pub(crate) fn slot_capacity(&self) -> usize {
        self.instructions.iter().map(|i| i.slots.len()).sum()
    }

    /// Total number of moves.
    pub fn move_count(&self) -> usize {
        self.instructions.iter().map(|i| i.move_count()).sum()
    }

    /// Trigger counts per FU kind across the whole program — a static
    /// pressure profile.  The design-space explorer uses it as the
    /// replication heuristic the paper's future-work section asks for: the
    /// kind with the most triggers is the first candidate for an extra
    /// instance.
    pub fn fu_pressure(&self) -> std::collections::BTreeMap<crate::fu::FuKind, usize> {
        let mut counts = std::collections::BTreeMap::new();
        for ins in &self.instructions {
            for mv in ins.moves() {
                if mv.dst.is_trigger() && mv.dst.fu.kind != crate::fu::FuKind::Nc {
                    *counts.entry(mv.dst.fu.kind).or_insert(0) += 1;
                }
            }
        }
        counts
    }

    /// Static bus utilisation: occupied slots over total slots (0..=1).
    ///
    /// The dynamic equivalent — weighted by how often each instruction
    /// actually executes — is reported by the simulator.
    pub fn static_bus_utilization(&self) -> f64 {
        if self.instructions.is_empty() {
            return 0.0;
        }
        self.move_count() as f64 / self.slot_capacity() as f64
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Every label, not one per index: two names for one instruction
        // both stay resolvable in the printed text.
        let mut by_index: BTreeMap<usize, Vec<&str>> = BTreeMap::new();
        for (name, i) in &self.labels {
            by_index.entry(*i).or_default().push(name);
        }
        let labels_at = |f: &mut fmt::Formatter<'_>, i: usize| {
            by_index.get(&i).into_iter().flatten().try_for_each(|name| writeln!(f, "{name}:"))
        };
        for (i, ins) in self.instructions.iter().enumerate() {
            labels_at(f, i)?;
            writeln!(f, "  {ins}")?;
        }
        // Labels past the last instruction (the clean-halt target).
        labels_at(f, self.instructions.len())
    }
}

/// A linear move sequence with labels — the unscheduled form produced by
/// code generators and consumed by the scheduler.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MoveSeq {
    /// The moves in program order.
    pub moves: Vec<Move>,
    /// Label name → index of the move it precedes (may equal `moves.len()`
    /// for a label at the very end).
    pub labels: BTreeMap<String, usize>,
}

impl MoveSeq {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a move.
    pub fn push(&mut self, mv: Move) {
        self.moves.push(mv);
    }

    /// Defines `name` at the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label is already defined.
    pub fn define_label(&mut self, name: impl Into<String>) {
        let name = name.into();
        let prev = self.labels.insert(name.clone(), self.moves.len());
        assert!(prev.is_none(), "label {name:?} defined twice");
    }

    /// Number of moves.
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// Returns `true` if the sequence holds no moves.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mmu_read() -> Move {
        Move::new(PortRef::new(FuKind::Mmu, 0, "r"), PortRef::new(FuKind::Regs, 0, "r1"))
    }

    #[test]
    fn port_directions() {
        let res = PortRef::new(FuKind::Mmu, 0, "r");
        assert!(res.is_readable() && !res.is_writable());
        let trig = PortRef::new(FuKind::Mmu, 0, "tread");
        assert!(trig.is_trigger() && trig.is_writable() && !trig.is_readable());
        let reg = PortRef::new(FuKind::Regs, 0, "r5");
        assert!(reg.is_readable() && reg.is_writable() && !reg.is_trigger());
    }

    #[test]
    #[should_panic(expected = "no port named")]
    fn bad_port_panics() {
        let _ = PortRef::new(FuKind::Matcher, 0, "bogus");
    }

    #[test]
    #[should_panic(expected = "no guard signal")]
    fn bad_guard_panics() {
        let _ = Guard::new(FuKind::Checksum, 0, "match", false);
    }

    #[test]
    fn display_forms() {
        let mv = Move::new(5u32, PortRef::new(FuKind::Counter, 1, "stop"));
        assert_eq!(mv.to_string(), "0x5 -> cnt1.stop");
        let guarded =
            Move::new(PortRef::new(FuKind::Counter, 0, "r"), PortRef::new(FuKind::Nc, 0, "pc"))
                .with_guard(Guard::new(FuKind::Counter, 0, "done", true));
        assert_eq!(guarded.to_string(), "!cnt0.done cnt0.r -> nc0.pc");
        let lbl = Move::new(Source::Label("loop".into()), PortRef::new(FuKind::Nc, 0, "pc"));
        assert_eq!(lbl.to_string(), "@loop -> nc0.pc");
    }

    #[test]
    fn indices_past_the_tables_print_as_numbers() {
        // Only hand-built references hold one; printing one must not panic.
        let port = PortRef { fu: FuRef::new(FuKind::Matcher, 0), port: 4 };
        assert_eq!(port.to_string(), "mtch0.#4");
        let guard = Guard { fu: FuRef::new(FuKind::Checksum, 1), signal: 0, negate: false };
        assert_eq!(guard.to_string(), "?csum1.#0");
    }

    #[test]
    fn control_transfer_detection() {
        let jump = Move::new(0u32, PortRef::new(FuKind::Nc, 0, "pc"));
        assert!(jump.is_control_transfer());
        assert!(!mmu_read().is_control_transfer());
    }

    #[test]
    fn instruction_slots_and_utilization() {
        let mut ins = Instruction::empty(3);
        assert_eq!(ins.move_count(), 0);
        ins.slots[1] = Some(mmu_read());
        assert_eq!(ins.move_count(), 1);
        assert_eq!(ins.to_string(), "... | mmu0.r -> regs0.r1 | ...");

        let prog = Program {
            instructions: vec![ins, Instruction::single(mmu_read(), 3)],
            labels: BTreeMap::new(),
        };
        assert_eq!(prog.move_count(), 2);
        assert_eq!(prog.slot_capacity(), 6);
        assert!((prog.static_bus_utilization() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn label_resolution() {
        let mut seq = MoveSeq::new();
        seq.define_label("start");
        seq.push(Move::new(Source::Label("start".into()), PortRef::new(FuKind::Nc, 0, "pc")));
        let mut prog = Program::from_moves(&seq, 1);
        prog.resolve_labels().unwrap();
        match &prog.instructions[0].slots[0].as_ref().unwrap().src {
            Source::Imm(0) => {}
            other => panic!("expected resolved label, got {other:?}"),
        }
    }

    #[test]
    fn unresolved_label_reported() {
        let mut seq = MoveSeq::new();
        seq.push(Move::new(Source::Label("nowhere".into()), PortRef::new(FuKind::Nc, 0, "pc")));
        let mut prog = Program::from_moves(&seq, 1);
        assert_eq!(prog.resolve_labels(), Err("nowhere".to_string()));
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn duplicate_label_panics() {
        let mut seq = MoveSeq::new();
        seq.define_label("x");
        seq.define_label("x");
    }

    #[test]
    fn fu_pressure_counts_triggers_per_kind() {
        let mut seq = MoveSeq::new();
        seq.push(Move::new(1u32, PortRef::new(FuKind::Counter, 0, "tinc")));
        seq.push(Move::new(2u32, PortRef::new(FuKind::Counter, 1, "tset")));
        seq.push(Move::new(3u32, PortRef::new(FuKind::Matcher, 0, "t")));
        seq.push(Move::new(4u32, PortRef::new(FuKind::Matcher, 0, "mask"))); // operand, not trigger
        seq.push(Move::new(0u32, PortRef::new(FuKind::Nc, 0, "pc"))); // jumps excluded
        let prog = Program::from_moves(&seq, 1);
        let pressure = prog.fu_pressure();
        assert_eq!(pressure.get(&FuKind::Counter), Some(&2));
        assert_eq!(pressure.get(&FuKind::Matcher), Some(&1));
        assert_eq!(pressure.get(&FuKind::Nc), None);
    }

    #[test]
    fn empty_program_utilization_is_zero() {
        assert_eq!(Program::new().static_bus_utilization(), 0.0);
    }
}
