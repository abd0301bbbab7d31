//! Pre-scheduling move-level optimizations.
//!
//! The paper lists the classic TTA code improvements: "moving operands from
//! an output register to an input register without additional temporary
//! storage (*bypassing*), using the same output register or general purpose
//! register for multiple data transports (*operand sharing*), easy removing
//! of registers that are no longer in use".  This module implements the two
//! that shrink move counts directly:
//!
//! * `bypass` — copy propagation through general-purpose registers: the
//!   pair `x -> regs0.rN; regs0.rN -> y` becomes `x -> regs0.rN; x -> y`,
//!   making the temporary candidate for removal;
//! * `eliminate_dead_moves_with` — removes register writes that are
//!   unconditionally overwritten before any read and, under its live-out
//!   policy, writes no caller will ever observe.
//!
//! Both transformations are deliberately conservative (they never change
//! observable FU or memory state), so they can run before [`schedule`]
//! unconditionally.  [`optimize`] chains them to a fixed point.
//!
//! [`schedule`]: crate::schedule

use std::collections::BTreeSet;

use crate::fu::{FuKind, PortDir};
use crate::program::{MoveSeq, PortRef, Source};

/// Copy-propagates through general-purpose registers within basic blocks.
///
/// For a pair `x -> rN` … `rN -> y` with no intervening write to `rN`, no
/// intervening redefinition of `x`, and no intervening label or control
/// transfer, the second move's source is replaced by `x`.  When `x` is an FU
/// result, propagation additionally stops at the FU's next trigger (the
/// result register would have been overwritten).
///
/// Returns the number of moves rewritten.
pub(crate) fn bypass(seq: &mut MoveSeq) -> usize {
    let label_positions: BTreeSet<usize> = seq.labels.values().copied().collect();
    let mut rewritten = 0usize;

    for j in 0..seq.moves.len() {
        let Source::Port(src_port) = seq.moves[j].src else { continue };
        if src_port.fu.kind != FuKind::Regs {
            continue;
        }
        // Find the defining move of this register, scanning backwards while
        // the copy remains provably transparent.
        let mut replacement: Option<Source> = None;
        for i in (0..j).rev() {
            if label_positions.contains(&(i + 1)) {
                break; // block boundary between i and j
            }
            let mv = &seq.moves[i];
            if mv.is_control_transfer() {
                break;
            }
            if mv.dst == src_port {
                if mv.guard.is_none() {
                    replacement = Some(mv.src.clone());
                }
                break;
            }
            // A move between def and use that re-triggers the FU whose
            // result we'd forward kills the opportunity — handled below by
            // validating the replacement over the gap instead.
        }
        let Some(rep) = replacement else { continue };

        // Validate the replacement across the gap (def+1 .. j).
        let def =
            (0..j).rev().find(|&i| seq.moves[i].dst == src_port).expect("definition found above");
        let transparent = match &rep {
            Source::Imm(_) | Source::Label(_) => true,
            Source::Port(p) => {
                let stable = match p.dir() {
                    // A forwarded FU result must not be overwritten by a
                    // retrigger in the gap.  The check is *kind*-wide, not
                    // instance-wide: virtual instances may later fold onto
                    // one physical unit, so a trigger of any same-kind
                    // instance could alias the forwarded result register.
                    PortDir::Result => !seq.moves[def + 1..j]
                        .iter()
                        .any(|m| m.dst.fu.kind == p.fu.kind && m.dst.is_trigger()),
                    // A forwarded register must not be rewritten in the gap.
                    PortDir::Both => !seq.moves[def + 1..j].iter().any(|m| m.dst == *p),
                    PortDir::Operand | PortDir::Trigger => false,
                };
                stable
            }
        };
        if transparent && seq.moves[j].src != rep {
            seq.moves[j].src = rep;
            rewritten += 1;
        }
    }
    rewritten
}

/// Removes dead register writes.
///
/// A write is dead when, scanning forward within its basic block, an
/// unguarded write to the same register occurs before any read of it and
/// before any label or control transfer.  A register write that survives
/// to the end of the program is kept only if `live_out` returns `true` for
/// it: `|_| true` treats every register as architectural state a caller may
/// observe, and code generators that know their ABI (e.g. "only r2 carries
/// the result") get the paper's full "easy removing of registers that are
/// no longer in use".
///
/// Returns the number of moves removed.
pub(crate) fn eliminate_dead_moves_with(
    seq: &mut MoveSeq,
    live_out: impl Fn(PortRef) -> bool,
) -> usize {
    let label_positions: BTreeSet<usize> = seq.labels.values().copied().collect();

    let mut removed = 0usize;
    let mut kept: Vec<bool> = vec![true; seq.moves.len()];
    #[allow(clippy::needless_range_loop)] // i indexes both moves and kept flags
    'writes: for i in 0..seq.moves.len() {
        let dst = seq.moves[i].dst;
        if dst.fu.kind != FuKind::Regs {
            continue;
        }
        for j in i + 1..seq.moves.len() {
            if label_positions.contains(&j) {
                continue 'writes; // another path may enter and read
            }
            let m2 = &seq.moves[j];
            if m2.src.port() == Some(dst) {
                continue 'writes; // read before overwrite: live
            }
            if m2.dst == dst && m2.guard.is_none() {
                kept[i] = false; // unconditionally overwritten unread
                removed += 1;
                continue 'writes;
            }
            if m2.is_control_transfer() {
                continue 'writes;
            }
        }
        // Reached program end without a read or overwrite.
        if !live_out(dst) {
            kept[i] = false;
            removed += 1;
        }
    }
    if removed == 0 {
        return 0;
    }

    // Remap label positions: a label at move index i now points at the
    // number of kept moves before i.
    let mut kept_before = vec![0usize; seq.moves.len() + 1];
    for i in 0..seq.moves.len() {
        kept_before[i + 1] = kept_before[i] + usize::from(kept[i]);
    }
    for pos in seq.labels.values_mut() {
        *pos = kept_before[*pos];
    }
    let mut keep_iter = kept.into_iter();
    seq.moves.retain(|_| keep_iter.next().unwrap());
    removed
}

/// Runs `bypass` and `eliminate_dead_moves_with` to a fixed point, returning
/// the total number of moves removed.  Every register is treated as live at
/// program end; see [`optimize_with`] when the ABI is known.
pub fn optimize(seq: &mut MoveSeq) -> usize {
    optimize_with(seq, |_| true)
}

/// Runs `bypass` and `eliminate_dead_moves_with` to a fixed point under
/// an explicit live-out policy, returning the total number of moves
/// removed.
pub fn optimize_with(seq: &mut MoveSeq, live_out: impl Fn(PortRef) -> bool) -> usize {
    let before = seq.len();
    loop {
        let changed = bypass(seq) + eliminate_dead_moves_with(seq, &live_out);
        if changed == 0 {
            break;
        }
    }
    before - seq.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CodeBuilder;
    use crate::fu::FuKind;
    use crate::program::Move;

    #[test]
    fn bypass_forwards_immediates() {
        let mut b = CodeBuilder::new();
        let cnt = b.fu(FuKind::Counter, 0);
        b.mv(5u32, b.reg(0));
        b.mv(b.reg(0), cnt.port("tset"));
        let mut seq = b.finish();
        assert_eq!(bypass(&mut seq), 1);
        assert_eq!(seq.moves[1].src, Source::Imm(5));
    }

    #[test]
    fn bypass_forwards_results_when_fu_idle() {
        let mut b = CodeBuilder::new();
        let cnt = b.fu(FuKind::Counter, 0);
        let sh = b.fu(FuKind::Shifter, 0);
        b.mv(cnt.port("r"), b.reg(0));
        b.mv(1u32, sh.port("amount"));
        b.mv(b.reg(0), sh.port("tshl"));
        let mut seq = b.finish();
        assert_eq!(bypass(&mut seq), 1);
        assert_eq!(seq.moves[2].src, Source::Port(cnt.port("r")));
    }

    #[test]
    fn bypass_blocked_by_retrigger() {
        let mut b = CodeBuilder::new();
        let cnt = b.fu(FuKind::Counter, 0);
        b.mv(cnt.port("r"), b.reg(0));
        b.mv(1u32, cnt.port("tinc")); // overwrites cnt result
        b.mv(b.reg(0), b.reg(1));
        let mut seq = b.finish();
        assert_eq!(bypass(&mut seq), 0);
    }

    #[test]
    fn bypass_blocked_by_register_rewrite() {
        let mut b = CodeBuilder::new();
        b.mv(1u32, b.reg(0));
        b.mv(2u32, b.reg(0));
        b.mv(b.reg(0), b.reg(1));
        let mut seq = b.finish();
        bypass(&mut seq);
        // The use must see the *second* definition.
        assert_eq!(seq.moves[2].src, Source::Imm(2));
    }

    #[test]
    fn bypass_blocked_by_label_boundary() {
        let mut b = CodeBuilder::new();
        b.mv(1u32, b.reg(0));
        b.label("target"); // jumped to from elsewhere: r0 unknown here
        b.mv(b.reg(0), b.reg(1));
        let mut seq = b.finish();
        assert_eq!(bypass(&mut seq), 0);
    }

    #[test]
    fn bypass_blocked_by_guarded_definition() {
        let mut b = CodeBuilder::new();
        let cnt = b.fu(FuKind::Counter, 0);
        b.mv_if(cnt.guard("done"), 1u32, b.reg(0)); // may not execute
        b.mv(b.reg(0), b.reg(1));
        let mut seq = b.finish();
        assert_eq!(bypass(&mut seq), 0);
    }

    #[test]
    fn dead_store_removed_and_labels_remapped() {
        let mut b = CodeBuilder::new();
        b.mv(1u32, b.reg(7)); // overwritten below before any read
        b.mv(2u32, b.reg(7));
        b.label("after");
        let cnt = b.fu(FuKind::Counter, 0);
        b.mv(b.reg(7), cnt.port("tinc"));
        b.jump("after");
        let mut seq = b.finish();
        assert_eq!(eliminate_dead_moves_with(&mut seq, |_| true), 1);
        assert_eq!(seq.len(), 3);
        assert_eq!(seq.labels["after"], 1);
        assert_eq!(seq.moves[0].src, Source::Imm(2)); // the surviving write
    }

    #[test]
    fn registers_are_live_at_program_end_by_default() {
        let mut b = CodeBuilder::new();
        b.mv(1u32, b.reg(0));
        b.mv(b.reg(0), b.reg(1)); // r1 is an architectural output
        let mut seq = b.finish();
        assert_eq!(eliminate_dead_moves_with(&mut seq, |_| true), 0);
        // With an explicit ABI that keeps nothing, both become removable
        // (the r1 write first, then the now-unread r0 write on a rerun).
        assert_eq!(optimize_with(&mut seq, |_| false), 2);
        assert!(seq.is_empty());
    }

    #[test]
    fn label_blocks_overwrite_analysis() {
        let mut b = CodeBuilder::new();
        b.mv(1u32, b.reg(0));
        b.label("entry"); // a jump may land here and read r0
        b.mv(2u32, b.reg(0));
        b.jump("entry");
        let mut seq = b.finish();
        assert_eq!(eliminate_dead_moves_with(&mut seq, |_| true), 0);
    }

    #[test]
    fn guarded_overwrite_does_not_kill() {
        let mut b = CodeBuilder::new();
        let cnt = b.fu(FuKind::Counter, 0);
        b.mv(1u32, b.reg(0));
        b.mv_if(cnt.guard("done"), 2u32, b.reg(0)); // may not execute
        b.mv(b.reg(0), cnt.port("tset"));
        let mut seq = b.finish();
        assert_eq!(eliminate_dead_moves_with(&mut seq, |_| true), 0);
    }

    #[test]
    fn fu_writes_never_removed() {
        let mut b = CodeBuilder::new();
        let cnt = b.fu(FuKind::Counter, 0);
        b.mv(1u32, cnt.port("tinc"));
        b.mv(2u32, cnt.port("stop"));
        let mut seq = b.finish();
        assert_eq!(eliminate_dead_moves_with(&mut seq, |_| true), 0);
        assert_eq!(seq.len(), 2);
    }

    #[test]
    fn optimize_reaches_fixed_point() {
        // r0 := 5; tset := r0  — after bypass, r0 is dead and removed.
        let mut b = CodeBuilder::new();
        let cnt = b.fu(FuKind::Counter, 0);
        b.mv(5u32, b.reg(0));
        b.mv(b.reg(0), cnt.port("tset"));
        let mut seq = b.finish();
        assert_eq!(optimize_with(&mut seq, |_| false), 1);
        assert_eq!(seq.moves, vec![Move::new(5u32, cnt.port("tset"))]);
    }

    #[test]
    fn optimize_on_clean_code_is_a_noop() {
        let mut b = CodeBuilder::new();
        let cnt = b.fu(FuKind::Counter, 0);
        b.mv(5u32, cnt.port("tset"));
        let mut seq = b.finish();
        assert_eq!(optimize(&mut seq), 0);
        assert_eq!(seq.len(), 1);
    }
}
