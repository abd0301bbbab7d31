//! Pricing a design point from its table's block profile instead of
//! stepping it.
//!
//! What the microcode does with one measurement input does not depend on
//! the machine:
//!
//! * `taco_isa::schedule` works per basic block — blocks end at labels and
//!   after control transfers, and never exchange moves — so every machine's
//!   program has the same blocks in the same order, each packed to that
//!   machine's length;
//! * every schedule keeps the sequence's semantics, so every machine takes
//!   the same branches, executes and squashes the same moves and fires the
//!   same triggers of the same *virtual* units;
//! * the one multi-cycle unit, the RTU, stalls the word that first reads it
//!   until its latency has passed, and nothing else.
//!
//! So a [`BlockProfile`] — each block's visit count, each virtual unit's
//! trigger count, the move counts and the forwarded datagrams — recorded by
//! stepping the table once, on the machine that folds no unit
//! (`TableImage::unfolded`) and at RTU latency 1 (where no interlock
//! stalls), prices any machine exactly: cycles are Σ visits × block length
//! plus the RTU stalls, and triggers fold onto physical units by
//! `index % count`, as `schedule` folds them.  A profile depends only on
//! the table, so it is recorded once per prepared input, beside the table
//! image, and every evaluation — a single `evaluate_request`, a sweep point,
//! a Table 1 cell — prices its fixed-point rounds from it.
//!
//! Stepping stays for four jobs: recording a profile; a round where the
//! argument does not hold, which [`BlockProfile::price`] refuses; a fault
//! plan that injects stalls, whose cycles no price follows; and
//! `trace_request`'s timeline.  `explore_serial` steps every round and
//! never consults a profile: it is the oracle the priced evaluations are
//! held to.

use std::collections::BTreeMap;
use std::sync::Arc;

use taco_isa::{FuKind, FuRef, Instruction, MachineConfig, Move, Program, Source};
use taco_router::cycle::CycleRouter;
use taco_routing::TableKind;
use taco_sim::{CompiledProgram, SimStats, TraceEvent, Tracer};

use crate::evaluate::{measure, CYCLE_BUDGET};
use crate::prepared::PreparedInput;

/// What stepping one table once over the measurement input observed, in
/// the terms every machine shares.
#[derive(Debug)]
pub(crate) struct BlockProfile {
    /// Visits per basic block, in program order.
    visits: Vec<u64>,
    /// Passing triggers per virtual unit instance.
    triggers: Vec<(FuRef, u64)>,
    moves_executed: u64,
    moves_squashed: u64,
    /// Datagrams forwarded (at least 1): what cycles per datagram divides
    /// by.
    forwarded: usize,
}

/// Counts the words the step loop issues, per instruction index.
struct IssueCounter(Vec<u64>);

impl Tracer for IssueCounter {
    fn event(&mut self, _event: &TraceEvent) {}

    fn enabled(&self) -> bool {
        false
    }

    fn issued(&mut self, pc: usize) {
        self.0[pc] += 1;
    }
}

/// Where `program`'s basic blocks start: instruction 0, every label target
/// and the word after each one that holds a jump.
fn block_starts(program: &Program) -> Vec<usize> {
    let len = program.instructions.len();
    let after_jumps = program
        .instructions
        .iter()
        .enumerate()
        .filter(|(_, ins)| ins.moves().any(Move::is_control_transfer))
        .map(|(at, _)| at + 1);
    let mut starts: Vec<usize> = std::iter::once(0)
        .chain(program.labels.values().copied())
        .chain(after_jumps)
        .filter(|&at| at < len)
        .collect();
    starts.sort_unstable();
    starts.dedup();
    starts
}

/// A move that triggers the RTU's search.
fn triggers_rtu(mv: &Move) -> bool {
    mv.dst.fu.kind == FuKind::Rtu && mv.dst.is_trigger()
}

/// A move that reads an RTU result or guard: what the interlock stalls.
fn reads_rtu(mv: &Move) -> bool {
    matches!(&mv.src, Source::Port(p) if p.fu.kind == FuKind::Rtu)
        || mv.guard.is_some_and(|g| g.fu.kind == FuKind::Rtu)
}

/// The RTU interlock's stall cycles per visit of `block` at `latency`: the
/// first word after an unguarded trigger that reads the RTU, `d` words
/// later, waits `latency − d` cycles.  `None`, so the round is stepped,
/// where that would not be exact: a guarded trigger (whether it fires is
/// data), a second trigger in the block, or a search still pending when the
/// block ends.
fn rtu_stall(block: &[Instruction], latency: u32) -> Option<u64> {
    let mut triggers = block.iter().enumerate().filter(|(_, ins)| ins.moves().any(triggers_rtu));
    let Some((at, ins)) = triggers.next() else {
        return Some(0);
    };
    if triggers.next().is_some() || ins.moves().any(|mv| triggers_rtu(mv) && mv.guard.is_some()) {
        return None;
    }
    let latency = u64::from(latency);
    match block[at + 1..].iter().position(|ins| ins.moves().any(reads_rtu)) {
        Some(waits) => Some(latency.saturating_sub(waits as u64 + 1)),
        None if (block.len() - at) as u64 >= latency => Some(0),
        None => None,
    }
}

impl BlockProfile {
    /// Steps `input` once through the `kind` table on its unfolded machine
    /// at RTU latency 1, counting block visits; `None` when the table does
    /// not build or the run fails, so every round of the table's points is
    /// stepped and reports the failure itself.
    pub(crate) fn record(input: &PreparedInput, kind: TableKind) -> Option<Self> {
        let mut router = CycleRouter::unfolded(input.image(kind).ok()?).ok()?;
        let program = Arc::clone(router.processor().compiled());
        let mut issued = IssueCounter(vec![0; program.program().instructions.len()]);
        let (_, stats) = measure(&mut router, input, None, &mut issued).ok()?;
        Some(BlockProfile {
            visits: block_starts(program.program()).iter().map(|&at| issued.0[at]).collect(),
            triggers: stats.fu_instance_triggers.into_iter().collect(),
            moves_executed: stats.moves_executed,
            moves_squashed: stats.moves_squashed,
            forwarded: router.processor().outputs().len().max(1),
        })
    }

    /// Cycles per datagram and the counters stepping `compiled` (scheduled
    /// for `machine`) over the profiled input at `rtu_latency` returns;
    /// `None`, so the round is stepped, where the price would not be exact
    /// or the run comes within half of the watchdog.
    pub(crate) fn price(
        &self,
        compiled: &CompiledProgram,
        machine: &MachineConfig,
        rtu_latency: u32,
    ) -> Option<(f64, SimStats)> {
        let program = compiled.program();
        let starts = block_starts(program);
        if starts.len() != self.visits.len() {
            return None;
        }
        let ends = starts.iter().skip(1).copied().chain([program.instructions.len()]);
        let (mut issued, mut stalled) = (0u64, 0u64);
        for ((&start, end), &visits) in starts.iter().zip(ends).zip(&self.visits) {
            issued += visits * (end - start) as u64;
            stalled += visits * rtu_stall(&program.instructions[start..end], rtu_latency)?;
        }
        let cycles = issued + stalled;
        if cycles > CYCLE_BUDGET / 2 {
            return None;
        }
        let mut fu_instance_triggers = BTreeMap::new();
        for &(fu, passes) in &self.triggers {
            let unit = FuRef::new(fu.kind, fu.index % machine.fu_count(fu.kind));
            *fu_instance_triggers.entry(unit).or_insert(0) += passes;
        }
        let stats = SimStats {
            cycles,
            stall_cycles: stalled,
            injected_stall_cycles: 0,
            moves_executed: self.moves_executed,
            moves_squashed: self.moves_squashed,
            fu_instance_triggers,
            buses: machine.buses(),
        };
        Some((cycles as f64 / self.forwarded as f64, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_isa::asm;

    fn program(text: &str) -> Program {
        let mut program = asm::parse(text).unwrap();
        program.resolve_labels().unwrap();
        program
    }

    #[test]
    fn blocks_start_at_zero_at_labels_and_after_jumps() {
        let p = program(
            "1 -> regs0.r0\n2 -> regs0.r1\nl: 3 -> regs0.r2\n?cnt0.done @l -> nc0.pc\n\
             4 -> regs0.r3\n@end -> nc0.pc\n5 -> regs0.r4\nend:\n",
        );
        assert_eq!(block_starts(&p), [0, 2, 4, 6]);
        assert_eq!(block_starts(&Program::new()), Vec::<usize>::new());
    }

    #[test]
    fn an_rtu_stall_runs_to_the_first_word_that_reads_the_search() {
        let block = |text: &str| program(text).instructions;
        // The read two words after the trigger waits latency − 2.
        let b =
            block("1 -> rtu0.t\n0 -> regs0.r0\nrtu0.iface -> regs0.r1\n?rtu0.hit 1 -> regs0.r2\n");
        assert_eq!(rtu_stall(&b, 1), Some(0));
        assert_eq!(rtu_stall(&b, 2), Some(0));
        assert_eq!(rtu_stall(&b, 5), Some(3));
        // A word that reads the RTU before the trigger waits for nothing.
        let b = block("rtu0.iface -> regs0.r1\n1 -> rtu0.t\n?rtu0.hit 1 -> regs0.r2\n");
        assert_eq!(rtu_stall(&b, 4), Some(3));
        assert_eq!(rtu_stall(&block("1 -> regs0.r0\n"), 9), Some(0));
    }

    #[test]
    fn a_search_the_price_cannot_follow_is_stepped() {
        let block = |text: &str| program(text).instructions;
        // Guarded: whether it fires is data.
        let guarded = block("?cnt0.done 1 -> rtu0.t\nrtu0.iface -> regs0.r1\n");
        assert_eq!(rtu_stall(&guarded, 1), None);
        // Two searches in one block.
        let twice =
            block("1 -> rtu0.t\nrtu0.iface -> regs0.r1\n2 -> rtu0.t\nrtu0.iface -> regs0.r1\n");
        assert_eq!(rtu_stall(&twice, 1), None);
        // Unread at the block's end: pending only if the latency outlasts it.
        let unread = block("1 -> rtu0.t\n0 -> regs0.r0\n");
        assert_eq!(rtu_stall(&unread, 2), Some(0));
        assert_eq!(rtu_stall(&unread, 3), None);
    }
}
