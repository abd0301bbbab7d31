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
//! stepping the table on the machine that folds no unit
//! (`TableImage::unfolded_program`) and at RTU latency 1 (where no
//! interlock stalls), prices any machine exactly: cycles are Σ visits ×
//! block length plus the RTU stalls, both read from the block summary the point's
//! compiled program carries (`CompiledProgram::blocks`), and triggers fold
//! onto physical units by `MachineConfig::fold`, as `schedule` folds them.  A
//! profile depends only on the table, so it is recorded once per prepared
//! input, beside the table image, and every evaluation — a single
//! `evaluate_request`, a sweep point, a Table 1 cell — prices its
//! fixed-point rounds from it.
//!
//! The measurement input is one datagram enqueued eight times, and each
//! copy takes the same path through the microcode, so every count is the
//! batch envelope plus eight times one datagram's path.  A recording
//! therefore steps one datagram and an empty run, on one compiled program,
//! and extrapolates each count as `empty + 8 × (one − empty)`: about an
//! eighth of the cycles stepping all eight takes.  It refuses where the
//! eight datagram slots do not fit above the whole table image, as
//! stepping eight fails there.
//!
//! A sequential datagram's path is shorter to step than its scan.  The
//! screen pass stops at the first block `h` where a lane's screening pair
//! matches (`TableImage::scan_stop`).  Every block before it is a miss and
//! runs the same words with the same guard outcomes — each lane's guarded
//! record squashed, the verify branch not taken, the block counter stepped
//! and a jump back to the scan — and from block `h` on the path reads only
//! the entries there and after, at the same offsets from the lane
//! pointers.  So with `window(h)` the image's own words from block `h` on,
//! run by the template with the window's scan bounds patched in
//! (`TableImage::unfolded_program`, `CycleRouter::unfolded`),
//! `one(image) = one(window(h)) + h × (one(window(h − 1)) − one(window(h)))`,
//! count for count.  The recording steps those two windows, not the
//! table's scan (5 514 cycles at 1 024 entries).  A kind with no screen
//! pass has `h = 0`, whose window is the whole image.
//! `tests/profile_extrapolation.rs` holds the
//! recording equal to stepping all eight datagrams over the whole table,
//! for every kind and, for the sequential scan, at 100 sizes up to its fit
//! boundary.
//!
//! Stepping stays for four jobs: recording a profile; a round where the
//! argument does not hold, which [`BlockProfile::price`] refuses; a fault
//! plan that injects stalls, whose cycles no price follows; and
//! `trace_request`'s timeline.  `explore_serial` steps every round and
//! never consults a profile: it is the oracle the priced evaluations are
//! held to.

use std::sync::Arc;

use taco_isa::MachineConfig;
use taco_router::cycle::{CycleRouter, TableImage};
use taco_routing::TableKind;
use taco_sim::{CompiledProgram, SimStats, TraceEvent, Tracer, TriggerCounts};

use crate::evaluate::{run_frames, CYCLE_BUDGET};
use crate::prepared::{PreparedInput, MEASURE_DATAGRAMS};

/// What stepping one table over the measurement input observes, in the
/// terms every machine shares.
#[derive(Debug, PartialEq)]
pub struct BlockProfile {
    /// Visits per basic block, in program order.
    visits: Vec<u64>,
    /// Passing triggers per virtual unit instance: the unfolded run's
    /// record, one entry per virtual unit that fired.
    triggers: TriggerCounts,
    moves_executed: u64,
    moves_squashed: u64,
    /// Datagrams forwarded; cycles per datagram divide by at least 1.
    forwarded: u64,
}

/// The `kind` table's block profile over the `entries`-entry measurement
/// input twice: as every evaluation records it ([`BlockProfile::record`]),
/// and recorded by stepping all eight measurement datagrams over the whole
/// table; each `None` where that path refuses to record.  Only tests call
/// it: `tests/profile_extrapolation.rs` holds the two equal.
pub fn profile_pair(
    kind: TableKind,
    entries: usize,
) -> (Option<BlockProfile>, Option<BlockProfile>) {
    let input = PreparedInput::shared(entries);
    let eight =
        input.image(kind).ok().and_then(|image| recorder(&input, image, 0)?(MEASURE_DATAGRAMS));
    (BlockProfile::record(&input, kind), eight)
}

/// Steps the given number of measurement datagrams through window `block`
/// of `image` (the whole image at 0) on one compiled unfolded program, at
/// RTU latency 1, and returns what each run observed; `None` where the
/// program does not compile, and the recorder's own `None` where a run
/// fails (the datagrams do not fit above the window, say).
fn recorder<'a>(
    input: &'a PreparedInput,
    image: &'a TableImage,
    block: usize,
) -> Option<impl Fn(usize) -> Option<BlockProfile> + 'a> {
    let program = image.unfolded_program(block).ok()?;
    Some(move |datagrams| {
        let mut router = CycleRouter::unfolded(Arc::clone(&program), image, block).ok()?;
        let mut issued = IssueCounter(vec![0; program.word_count()]);
        let stats = run_frames(&mut router, input, datagrams, &mut issued, None).ok()?;
        // A block's visits are its first word's issues.
        let starts = program.blocks().iter().scan(0, |at, block| {
            let start = *at;
            *at += block.words() as usize;
            Some(start)
        });
        Some(BlockProfile {
            visits: starts.map(|at| issued.0[at]).collect(),
            triggers: stats.fu_instance_triggers,
            moves_executed: stats.moves_executed,
            moves_squashed: stats.moves_squashed,
            forwarded: router.processor().outputs().len() as u64,
        })
    })
}

/// Counts the words the step loop issues, per instruction index.
struct IssueCounter(Vec<u64>);

impl Tracer for IssueCounter {
    fn event(&mut self, _event: &TraceEvent) {}

    fn issued(&mut self, pc: usize) {
        self.0[pc] += 1;
    }
}

impl BlockProfile {
    /// The `kind` table's profile over `input`'s eight measurement
    /// datagrams, from an empty run and a one-datagram run, each count
    /// extrapolated as `empty + 8 × (one − empty)`.  The one-datagram run
    /// steps only the image's window from the block where the screen pass
    /// stops, `h` ([`TableImage::scan_stop`], 0 for a kind with no screen),
    /// and the window one block longer, and counts the whole table's run as
    /// `one(window(h)) + h × (one(window(h − 1)) − one(window(h)))` (the
    /// module doc says why that is exact).  `None` when the table does not
    /// build, eight datagrams would not fit above the whole image or a run
    /// fails, so every round of the table's points is stepped and reports
    /// the failure itself.
    pub(crate) fn record(input: &PreparedInput, kind: TableKind) -> Option<Self> {
        let image = input.image(kind).ok()?;
        image.check_fit(MEASURE_DATAGRAMS, input.frame().0.len()).ok()?;
        let stop = image.scan_stop(input.destination());
        let step = recorder(input, image, stop)?;
        let (empty, mut one) = (step(0)?, step(1)?);
        if stop > 0 {
            let one_more_miss = recorder(input, image, stop - 1)?(1)?;
            one = one.extrapolate(&one_more_miss, stop as u64);
        }
        Some(empty.extrapolate(&one, MEASURE_DATAGRAMS as u64))
    }

    /// Each count of `self` plus `times` × (`to`'s − `self`'s): the run
    /// that repeats `times` over what `to` adds to `self`.  `to`'s path
    /// holds `self`'s, so it fires every unit `self` fires.
    fn extrapolate(&self, to: &Self, times: u64) -> Self {
        let at = |from: u64, to: u64| from + times * (to - from);
        let triggers = to.triggers.iter().map(|(fu, n)| (fu, at(self.triggers.get(fu), n)));
        BlockProfile {
            visits: self.visits.iter().zip(&to.visits).map(|(&e, &o)| at(e, o)).collect(),
            triggers: triggers.collect(),
            moves_executed: at(self.moves_executed, to.moves_executed),
            moves_squashed: at(self.moves_squashed, to.moves_squashed),
            forwarded: at(self.forwarded, to.forwarded),
        }
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
        let blocks = compiled.blocks();
        if blocks.len() != self.visits.len() {
            return None;
        }
        let (mut issued, mut stalled) = (0u64, 0u64);
        for (block, &visits) in blocks.iter().zip(&self.visits) {
            issued += visits * u64::from(block.words());
            stalled += visits * block.stall(rtu_latency)?;
        }
        let cycles = issued + stalled;
        if cycles > CYCLE_BUDGET / 2 {
            return None;
        }
        // The virtual units' triggers, folded as `schedule` folds them.
        let folded = self.triggers.iter().map(|(fu, n)| (machine.fold(fu), n));
        let stats = SimStats {
            cycles,
            stall_cycles: stalled,
            injected_stall_cycles: 0,
            moves_executed: self.moves_executed,
            moves_squashed: self.moves_squashed,
            fu_instance_triggers: folded.collect(),
            buses: machine.buses(),
        };
        Some((cycles as f64 / self.forwarded.max(1) as f64, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_isa::{FuKind, Instruction, Move, Program, Source};

    use crate::explorer::{grid, SweepSpec};

    // The instruction-level definitions the compiled programs' block
    // summaries are held to: what `price` walked on every call before the
    // summary was built once per compile.

    /// Where `program`'s basic blocks start: instruction 0, every label
    /// target and the word after each one that holds a jump.
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

    /// The RTU interlock's stall cycles per visit of `block` at `latency`:
    /// the first word after an unguarded trigger that reads the RTU, `d`
    /// words later, waits `latency − d` cycles.  `None` where that would
    /// not be exact: a guarded trigger, a second trigger in the block, or a
    /// search still pending when the block ends.
    fn rtu_stall(block: &[Instruction], latency: u32) -> Option<u64> {
        let mut triggers =
            block.iter().enumerate().filter(|(_, ins)| ins.moves().any(triggers_rtu));
        let Some((at, ins)) = triggers.next() else {
            return Some(0);
        };
        if triggers.next().is_some() || ins.moves().any(|mv| triggers_rtu(mv) && mv.guard.is_some())
        {
            return None;
        }
        let latency = u64::from(latency);
        match block[at + 1..].iter().position(|ins| ins.moves().any(reads_rtu)) {
            Some(waits) => Some(latency.saturating_sub(waits as u64 + 1)),
            None if (block.len() - at) as u64 >= latency => Some(0),
            None => None,
        }
    }

    #[test]
    fn every_oracle_program_s_block_summary_is_its_instruction_level_blocks() {
        // The 96-point oracle grid of `parallel_equivalence`: every kind,
        // buses 1–6, replication 1–4.
        let spec = SweepSpec {
            buses: (1..=6).collect(),
            replication: (1..=4).collect(),
            kinds: TableKind::ALL_KINDS.to_vec(),
            ..SweepSpec::default()
        };
        let (mut programs, mut searches) = (0, 0);
        for entries in [8, 100] {
            let input = PreparedInput::shared(entries);
            for config in grid(&spec) {
                let image = input.image(config.table).expect("the table builds");
                let compiled = image.compiled(&config.machine).expect("the program compiles");
                let program = compiled.program();
                let starts = block_starts(program);
                let ends = starts.iter().skip(1).copied().chain([program.instructions.len()]);
                let blocks = compiled.blocks();
                assert_eq!(blocks.len(), starts.len(), "{config} at {entries} entries");
                for ((start, end), block) in starts.iter().copied().zip(ends).zip(blocks) {
                    let words = &program.instructions[start..end];
                    assert_eq!(block.words() as usize, words.len(), "{config}, block at {start}");
                    for latency in 1..=64 {
                        assert_eq!(
                            block.stall(latency),
                            rtu_stall(words, latency),
                            "{config} at {entries} entries, block at {start}, latency {latency}"
                        );
                    }
                    searches += usize::from(words.iter().any(|w| w.moves().any(triggers_rtu)));
                }
                programs += 1;
            }
        }
        assert_eq!(programs, 2 * grid(&spec).len());
        assert!(searches > 0, "no block of the grid triggers the RTU");
    }
}
