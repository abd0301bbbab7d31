//! A compiled program's basic blocks, summarised once per compile.
//!
//! A block starts at instruction 0, at every label target and after every
//! word that holds a jump.  Pricing a design point from a block profile
//! needs, per block, only two things the program fixes: its length and the
//! shape of its RTU interlock.  Both are pure functions of the scheduled
//! program, so [`summarise`] computes them in one walk when the program is
//! compiled, and [`CompiledProgram::blocks`](crate::CompiledProgram::blocks)
//! hands the same summary to every round at every latency.

use taco_isa::{FuKind, Move, Program, Source};

/// One basic block of a compiled program: its length in instruction words
/// and what the RTU interlock does to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    words: u32,
    rtu: Rtu,
}

/// A block's RTU shape.  The interlock stalls only the first word that
/// reads the RTU's result or guard after a search was triggered, until the
/// search's latency has passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rtu {
    /// No word triggers a search.
    Idle,
    /// A guarded trigger (whether it fires is data) or a second triggering
    /// word: no stall count holds for every visit.
    Refuse,
    /// One unguarded trigger, first read this many words after it.
    Read(u32),
    /// One unguarded trigger that no later word of the block reads, this
    /// many words from the trigger through the block's last.
    Unread(u32),
}

impl Block {
    /// Instruction words in the block: the cycles one visit issues.
    pub fn words(&self) -> u32 {
        self.words
    }

    /// The RTU interlock's stall cycles per visit at RTU latency `latency`:
    /// a search first read `d` words after its trigger stalls `latency −
    /// d`.  `None` where no count is exact for every visit: a guarded or
    /// second trigger, or a search still pending when the block ends.
    pub fn stall(&self, latency: u32) -> Option<u64> {
        match self.rtu {
            Rtu::Idle => Some(0),
            Rtu::Refuse => None,
            Rtu::Read(d) => Some(u64::from(latency.saturating_sub(d))),
            Rtu::Unread(left) => (left >= latency).then_some(0),
        }
    }
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

/// The block being walked: where it starts, its first trigger and the
/// first word after that trigger that reads the RTU.
struct Open {
    start: usize,
    trigger: Option<usize>,
    read: Option<usize>,
    refuse: bool,
}

impl Open {
    fn at(start: usize) -> Self {
        Open { start, trigger: None, read: None, refuse: false }
    }

    /// The summary of the block when it ends before word `end`.
    fn close(&self, end: usize) -> Block {
        let rtu = match (self.refuse, self.trigger, self.read) {
            (true, ..) => Rtu::Refuse,
            (false, None, _) => Rtu::Idle,
            (false, Some(t), Some(r)) => Rtu::Read((r - t) as u32),
            (false, Some(t), None) => Rtu::Unread((end - t) as u32),
        };
        Block { words: (end - self.start) as u32, rtu }
    }
}

/// `program`'s blocks in program order, in one walk over its words.
pub(crate) fn summarise(program: &Program) -> Box<[Block]> {
    let words = &program.instructions;
    let mut labelled = vec![false; words.len()];
    for &at in program.labels.values() {
        if let Some(start) = labelled.get_mut(at) {
            *start = true;
        }
    }
    let mut blocks = Vec::new();
    let mut open = Open::at(0);
    for (at, word) in words.iter().enumerate() {
        if labelled[at] && at > open.start {
            blocks.push(open.close(at));
            open = Open::at(at);
        }
        if word.moves().any(triggers_rtu) {
            let guarded = word.moves().any(|mv| triggers_rtu(mv) && mv.guard.is_some());
            open.refuse |= guarded || open.trigger.is_some();
            open.trigger = Some(at);
        } else if open.trigger.is_some() && open.read.is_none() && word.moves().any(reads_rtu) {
            open.read = Some(at);
        }
        if word.moves().any(Move::is_control_transfer) {
            blocks.push(open.close(at + 1));
            open = Open::at(at + 1);
        }
    }
    if open.start < words.len() {
        blocks.push(open.close(words.len()));
    }
    blocks.into_boxed_slice()
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

    /// The one block of `text`.
    fn block(text: &str) -> Block {
        let blocks = summarise(&program(text));
        assert_eq!(blocks.len(), 1, "{text}");
        blocks[0]
    }

    #[test]
    fn blocks_start_at_zero_at_labels_and_after_jumps() {
        let p = program(
            "1 -> regs0.r0\n2 -> regs0.r1\nl: 3 -> regs0.r2\n?cnt0.done @l -> nc0.pc\n\
             4 -> regs0.r3\n@end -> nc0.pc\n5 -> regs0.r4\nend:\n",
        );
        let lengths: Vec<u32> = summarise(&p).iter().map(Block::words).collect();
        assert_eq!(lengths, [2, 2, 2, 1]);
        assert!(summarise(&Program::new()).is_empty());
    }

    #[test]
    fn an_rtu_stall_runs_to_the_first_word_that_reads_the_search() {
        // The read two words after the trigger waits latency − 2.
        let b =
            block("1 -> rtu0.t\n0 -> regs0.r0\nrtu0.iface -> regs0.r1\n?rtu0.hit 1 -> regs0.r2\n");
        assert_eq!(b.stall(1), Some(0));
        assert_eq!(b.stall(2), Some(0));
        assert_eq!(b.stall(5), Some(3));
        // A word that reads the RTU before the trigger waits for nothing.
        let b = block("rtu0.iface -> regs0.r1\n1 -> rtu0.t\n?rtu0.hit 1 -> regs0.r2\n");
        assert_eq!(b.stall(4), Some(3));
        assert_eq!(block("1 -> regs0.r0\n").stall(9), Some(0));
    }

    #[test]
    fn a_search_the_price_cannot_follow_is_refused() {
        // Guarded: whether it fires is data.
        let guarded = block("?cnt0.done 1 -> rtu0.t\nrtu0.iface -> regs0.r1\n");
        assert_eq!(guarded.stall(1), None);
        // Two searches in one block.
        let twice =
            block("1 -> rtu0.t\nrtu0.iface -> regs0.r1\n2 -> rtu0.t\nrtu0.iface -> regs0.r1\n");
        assert_eq!(twice.stall(1), None);
        // Unread at the block's end: pending only if the latency outlasts it.
        let unread = block("1 -> rtu0.t\n0 -> regs0.r0\n");
        assert_eq!(unread.stall(2), Some(0));
        assert_eq!(unread.stall(3), None);
    }
}
