//! Ergonomic code generation for TACO move programs.
//!
//! "From the programmer's point of view, programming TACO processors is a
//! matter of moving data from output to input registers."  [`CodeBuilder`]
//! is the matching API: it appends moves to a [`MoveSeq`] one at a time,
//! handles labels and guards, and hands out *virtual* FU instances so that
//! a code generator can expose parallelism without knowing how many physical
//! units the final architecture will have — the scheduler folds virtual
//! instances onto the physical ones.

use crate::fu::{FuKind, FuRef};
use crate::program::{Guard, Move, MoveSeq, PortRef, Source};

/// A builder over a [`MoveSeq`].
///
/// # Examples
///
/// Count from 0 to 3 in a loop (the builder equivalent of the assembly
/// example in [`crate::asm`]):
///
/// ```
/// use taco_isa::{CodeBuilder, FuKind};
///
/// let mut b = CodeBuilder::new();
/// let cnt = b.fu(FuKind::Counter, 0);
/// b.mv(0u32, cnt.port("tset"));
/// b.mv(3u32, cnt.port("stop"));
/// b.label("loop");
/// b.mv(1u32, cnt.port("tinc"));
/// b.jump_unless(cnt.guard("done"), "loop");
/// let seq = b.finish();
/// assert_eq!(seq.len(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CodeBuilder {
    seq: MoveSeq,
    next_virtual: std::collections::BTreeMap<FuKind, u8>,
    next_label: u32,
}

/// A handle to one (virtual or physical) FU instance, for building port and
/// guard references tersely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuHandle {
    fu: FuRef,
}

impl FuHandle {
    /// The underlying FU reference.
    pub fn fu_ref(&self) -> FuRef {
        self.fu
    }

    /// A reference to port `name` of this instance.
    ///
    /// # Panics
    ///
    /// Panics if the kind has no such port.
    pub fn port(&self, name: &str) -> PortRef {
        PortRef::new(self.fu.kind, self.fu.index, name)
    }

    /// A positive guard on signal `name` of this instance.
    ///
    /// # Panics
    ///
    /// Panics if the kind drives no such signal.
    pub fn guard(&self, name: &str) -> Guard {
        Guard::new(self.fu.kind, self.fu.index, name, false)
    }
}

impl CodeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle to instance `index` of `kind`.
    pub fn fu(&self, kind: FuKind, index: u8) -> FuHandle {
        FuHandle { fu: FuRef::new(kind, index) }
    }

    /// Allocates the next unused virtual instance of `kind`.
    ///
    /// Code that wants `w`-way parallelism calls this `w` times and
    /// interleaves uses; the scheduler maps virtual instance `v` onto
    /// physical instance `v mod count(kind)`.
    pub fn alloc(&mut self, kind: FuKind) -> FuHandle {
        let idx = self.next_virtual.entry(kind).or_insert(0);
        let handle = FuHandle { fu: FuRef::new(kind, *idx) };
        *idx += 1;
        handle
    }

    /// General-purpose register `i` (`regs0.rI`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 16`.
    pub fn reg(&self, i: u8) -> PortRef {
        assert!(i < 16, "register index {i} out of range");
        // Register `ri` is port `i` of the register file.
        PortRef { fu: FuRef::new(FuKind::Regs, 0), port: i }
    }

    /// Appends an unguarded move.
    pub fn mv(&mut self, src: impl Into<Source>, dst: PortRef) {
        self.seq.push(Move::new(src, dst));
    }

    /// Appends a guarded move.
    pub fn mv_if(&mut self, guard: Guard, src: impl Into<Source>, dst: PortRef) {
        self.seq.push(Move::new(src, dst).with_guard(guard));
    }

    /// Appends a move guarded on the *negation* of `guard`.
    pub fn mv_unless(&mut self, mut guard: Guard, src: impl Into<Source>, dst: PortRef) {
        guard.negate = !guard.negate;
        self.seq.push(Move::new(src, dst).with_guard(guard));
    }

    /// Defines `name` at the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label is already defined.
    pub fn label(&mut self, name: impl Into<String>) {
        self.seq.define_label(name);
    }

    /// Generates a fresh label name (`.L0`, `.L1`, ...) without defining it.
    pub fn fresh_label(&mut self, hint: &str) -> String {
        let name = format!("L{}_{hint}", self.next_label);
        self.next_label += 1;
        name
    }

    /// Appends an unconditional jump to `label`.
    pub fn jump(&mut self, label: impl Into<String>) {
        self.seq.push(Move::new(Source::Label(label.into()), PortRef::new(FuKind::Nc, 0, "pc")));
    }

    /// Appends a jump taken when `guard` is high.
    pub fn jump_if(&mut self, guard: Guard, label: impl Into<String>) {
        self.seq.push(
            Move::new(Source::Label(label.into()), PortRef::new(FuKind::Nc, 0, "pc"))
                .with_guard(guard),
        );
    }

    /// Appends a jump taken when `guard` is low.
    pub fn jump_unless(&mut self, mut guard: Guard, label: impl Into<String>) {
        guard.negate = !guard.negate;
        self.jump_if(guard, label);
    }

    /// Number of moves emitted so far.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// Returns `true` if nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Finishes and returns the move sequence.
    pub fn finish(self) -> MoveSeq {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_hands_out_distinct_instances() {
        let mut b = CodeBuilder::new();
        let m0 = b.alloc(FuKind::Matcher);
        let m1 = b.alloc(FuKind::Matcher);
        let c0 = b.alloc(FuKind::Counter);
        assert_eq!(m0.fu_ref().index, 0);
        assert_eq!(m1.fu_ref().index, 1);
        assert_eq!(c0.fu_ref().index, 0);
    }

    #[test]
    fn reg_helper() {
        let b = CodeBuilder::new();
        assert_eq!(b.reg(3).to_string(), "regs0.r3");
        assert_eq!(b.reg(15).to_string(), "regs0.r15");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_out_of_range() {
        let _ = CodeBuilder::new().reg(16);
    }

    #[test]
    fn guarded_moves() {
        let mut b = CodeBuilder::new();
        let cnt = b.fu(FuKind::Counter, 0);
        b.mv_if(cnt.guard("done"), 1u32, b.reg(0));
        b.mv_unless(cnt.guard("done"), 2u32, b.reg(1));
        let seq = b.finish();
        assert!(!seq.moves[0].guard.as_ref().unwrap().negate);
        assert!(seq.moves[1].guard.as_ref().unwrap().negate);
    }

    #[test]
    fn jumps_and_labels() {
        let mut b = CodeBuilder::new();
        b.label("top");
        let cnt = b.fu(FuKind::Counter, 0);
        b.mv(1u32, cnt.port("tinc"));
        b.jump_unless(cnt.guard("done"), "top");
        b.jump("top");
        let seq = b.finish();
        assert_eq!(seq.labels["top"], 0);
        assert!(seq.moves[1].is_control_transfer());
        assert!(seq.moves[1].guard.as_ref().unwrap().negate);
        assert!(seq.moves[2].guard.is_none());
    }

    #[test]
    fn fresh_labels_are_unique() {
        let mut b = CodeBuilder::new();
        let l1 = b.fresh_label("loop");
        let l2 = b.fresh_label("loop");
        assert_ne!(l1, l2);
    }

    #[test]
    fn len_tracks_moves_not_labels() {
        let mut b = CodeBuilder::new();
        assert!(b.is_empty());
        b.label("x");
        assert!(b.is_empty());
        b.mv(1u32, b.reg(0));
        assert_eq!(b.len(), 1);
    }
}
