//! The TACO code optimizer: bus scheduling and FU instance allocation.
//!
//! "Code optimization for TACO processors reduces in fact to well-known bus
//! scheduling and registry allocation problems.  We have to schedule move
//! instructions on the buses and to allocate registers to the operands of
//! the instructions."  (Paper, §3 and Fig. 3.)
//!
//! [`schedule`] turns a linear [`MoveSeq`] (the *non-optimized* one-move-
//! per-instruction form) into a packed [`Program`] for a concrete
//! [`MachineConfig`]:
//!
//! 1. **FU allocation** — virtual FU instances used by the code generator
//!    are folded onto the physical instances (`virtual index mod physical
//!    count`), so the same source code speeds up when the architecture gets
//!    more Matchers/Counters/Comparators;
//! 2. **list scheduling** — moves are packed into instruction words, at most
//!    one move per bus per cycle, honouring the TTA hazard rules below.
//!
//! Hazard model (all TACO FUs have single-cycle latency):
//!
//! | hazard | rule |
//! |---|---|
//! | trigger → result read | ≥ 1 cycle later |
//! | trigger → guard use   | ≥ 1 cycle later |
//! | operand write → trigger | same cycle allowed |
//! | trigger → operand rewrite | ≥ 1 cycle later (operands latch at trigger) |
//! | trigger → trigger (same FU) | ≥ 1 cycle later |
//! | result read → retrigger | same cycle allowed |
//! | register write → read | ≥ 1 cycle later |
//! | write → write (same port) | ≥ 1 cycle later |
//! | any move → control transfer | jump is the last cycle of its block |
//!
//! Scheduling is per basic block; blocks end at labels and after control
//! transfers, and never exchange moves.
//!
//! The list scheduler is one greedy pass in program order.  Every rule
//! above bounds a move's cycle from below by the cycle of one earlier move
//! (plus 0 or 1), and only the latest such cycle matters, so the whole
//! hazard state of a block is a handful of latest-cycle values:
//!
//! * per FU instance: one past its last trigger, and the latest cycle its
//!   result was read or its guard used since that trigger;
//! * per port: one past its last write, and the latest cycle it was read
//!   since that write;
//! * per block: the latest cycle placed so far, which a jump may not
//!   precede.
//!
//! The values live in vectors indexed by the machine's socket numbering
//! ([`SocketMap`]: its ports, kind by kind and instance by instance), reset
//! (not reallocated) per block.  A move's own reads are recorded only once
//! it is placed, so its source never constrains its own write; a trigger
//! then clears its FU's pending reads, its own included, as a write clears
//! its port's.

use crate::encode::SocketMap;
use crate::fu::{FuKind, FuRef, PortDir};
use crate::machine::MachineConfig;
use crate::program::{Guard, Instruction, Move, MoveSeq, PortRef, Program, Source};

/// Schedules `seq` onto the buses and FUs of `config`.
///
/// The returned program preserves the sequential semantics of `seq` (this is
/// checked by cross-simulation property tests in `taco-sim`).  Labels are
/// carried over, remapped to the instruction index where their block starts;
/// label sources are left unresolved so the caller can still inspect them.
pub fn schedule(seq: &MoveSeq, config: &MachineConfig) -> Program {
    let sockets = SocketMap::new(config);
    let buses = config.buses();
    let mut state = BlockState::new(sockets.socket_count());
    // Virtual instances fold onto physical ones by `index mod count`.
    let counts = FuKind::ALL.map(|kind| config.fu_count(kind));
    let fold = |fu: FuRef| FuRef::new(fu.kind, fu.index % counts[fu.kind as usize]);
    let fold_port = |p: PortRef| PortRef { fu: fold(p.fu), ..p };

    // Label positions inside the sequence, ascending: each starts a block,
    // and `label_base[i]` is where the block at `label_at[i]` begins.
    let mut label_at: Vec<usize> =
        seq.labels.values().copied().filter(|&at| at < seq.moves.len()).collect();
    label_at.sort_unstable();
    label_at.dedup();
    let mut label_base = Vec::with_capacity(label_at.len());

    let mut program = Program::new();
    let mut base = 0;
    for (i, mv) in seq.moves.iter().enumerate() {
        let labelled = label_at.get(label_base.len()) == Some(&i);
        if i == 0 || labelled || seq.moves[i - 1].is_control_transfer() {
            base = program.instructions.len();
            state.reset();
            if labelled {
                label_base.push(base);
            }
        }
        let mv = Move {
            src: match &mv.src {
                Source::Port(p) => Source::Port(fold_port(*p)),
                other => other.clone(),
            },
            dst: fold_port(mv.dst),
            guard: mv.guard.map(|g| Guard { fu: fold(g.fu), ..g }),
        };
        let (cycle, bus) = state.place(&sockets, &mv, buses);
        // A move lands at most one cycle past the block's last instruction.
        if base + cycle == program.instructions.len() {
            program.instructions.push(Instruction::empty(buses));
        }
        program.instructions[base + cycle].slots[bus] = Some(mv);
    }

    // Labels past the last move map past the last instruction.
    for (name, at) in &seq.labels {
        let target =
            label_at.binary_search(at).map_or(program.instructions.len(), |i| label_base[i]);
        program.labels.insert(name.clone(), target);
    }
    program
}

/// The latest-cycle hazard state of one basic block, indexed by socket id
/// ([`SocketMap`]); an FU's values sit at its first port's id.  Every value
/// is a lower bound on a later move's cycle, and 0 binds nothing.
struct BlockState {
    /// Per FU: one past the cycle of its last trigger.
    trigger_next: Vec<usize>,
    /// Per FU: the latest cycle its result was read or its guard used
    /// since that trigger.
    fu_reads: Vec<usize>,
    /// Per port: one past the cycle of its last write.
    write_next: Vec<usize>,
    /// Per port: the latest cycle it was read since that write.
    port_reads: Vec<usize>,
    /// Moves placed per cycle of the block.
    bus_load: Vec<u8>,
    /// The latest cycle placed in the block.
    latest: usize,
}

impl BlockState {
    fn new(sockets: usize) -> Self {
        BlockState {
            trigger_next: vec![0; sockets],
            fu_reads: vec![0; sockets],
            write_next: vec![0; sockets],
            port_reads: vec![0; sockets],
            bus_load: Vec::new(),
            latest: 0,
        }
    }

    fn reset(&mut self) {
        self.trigger_next.fill(0);
        self.fu_reads.fill(0);
        self.write_next.fill(0);
        self.port_reads.fill(0);
        self.bus_load.clear();
        self.latest = 0;
    }

    /// Places the folded move `mv` at the first cycle the hazard rules and
    /// the bus count allow, records what it reads and writes, and returns
    /// its `(cycle, bus)` within the block.
    fn place(&mut self, sockets: &SocketMap, mv: &Move, buses: u8) -> (usize, usize) {
        let id = |p: PortRef| sockets.socket_id(&p).expect("a folded port is on the machine");
        let (port, fu) = (|p| id(p) as usize, |fu| id(PortRef { fu, port: 0 }) as usize);
        let dst = mv.dst;
        let (dst_fu, dst_port) = (fu(dst.fu), port(dst));
        let mut earliest = match &mv.src {
            Source::Port(p) => match p.dir() {
                PortDir::Result => self.trigger_next[fu(p.fu)],
                PortDir::Both => self.write_next[port(*p)],
                // Parser/builder forbid reading operand/trigger ports.
                PortDir::Operand | PortDir::Trigger => 0,
            },
            Source::Imm(_) | Source::Label(_) => 0,
        };
        if let Some(g) = &mv.guard {
            earliest = earliest.max(self.trigger_next[fu(g.fu)]);
        }
        earliest = earliest.max(match dst.dir() {
            // WAW; WAR may share the read's cycle.
            PortDir::Both => self.write_next[dst_port].max(self.port_reads[dst_port]),
            // Operands latch at the trigger.
            PortDir::Operand => self.write_next[dst_port].max(self.trigger_next[dst_fu]),
            // Operands written no later than the trigger, results read and
            // guards used no later than the retrigger, triggers serialised.
            PortDir::Trigger => {
                let operands = dst.fu.kind.ports().iter().enumerate();
                let latched = operands
                    .filter(|(_, spec)| spec.dir == PortDir::Operand)
                    .map(|(i, _)| self.write_next[dst_fu + i].saturating_sub(1))
                    .max()
                    .unwrap_or(0);
                latched.max(self.fu_reads[dst_fu]).max(self.trigger_next[dst_fu])
            }
            PortDir::Result => unreachable!("result ports are not writable"),
        });
        if mv.is_control_transfer() {
            earliest = earliest.max(self.latest);
        }

        let mut cycle = earliest;
        while self.bus_load.get(cycle) == Some(&buses) {
            cycle += 1;
        }
        if cycle == self.bus_load.len() {
            self.bus_load.push(0);
        }
        let bus = usize::from(self.bus_load[cycle]);
        self.bus_load[cycle] += 1;
        self.latest = self.latest.max(cycle);

        // Reads first, then the write, which clears the reads it supersedes.
        if let Source::Port(p) = &mv.src {
            let read = port(*p);
            self.port_reads[read] = self.port_reads[read].max(cycle);
            if p.dir() == PortDir::Result {
                let f = fu(p.fu);
                self.fu_reads[f] = self.fu_reads[f].max(cycle);
            }
        }
        if let Some(g) = &mv.guard {
            let f = fu(g.fu);
            self.fu_reads[f] = self.fu_reads[f].max(cycle);
        }
        if dst.is_trigger() {
            self.trigger_next[dst_fu] = cycle + 1;
            self.fu_reads[dst_fu] = 0;
        }
        self.write_next[dst_port] = cycle + 1;
        self.port_reads[dst_port] = 0;
        (cycle, bus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CodeBuilder;
    use crate::fu::FuKind;

    /// Fig. 3's expression `a = (b*2 + c)/4` as TACO moves: shift-left for
    /// the multiply, counter-add for the sum, shift-right for the divide.
    fn fig3_moves() -> MoveSeq {
        let mut b = CodeBuilder::new();
        let shl = b.alloc(FuKind::Shifter);
        let cnt = b.alloc(FuKind::Counter);
        // b is in r0, c in r1; result goes to r2.
        b.mv(1u32, shl.port("amount"));
        b.mv(b.reg(0), shl.port("tshl")); // r5 = b * 2
        b.mv(shl.port("r"), cnt.port("tset"));
        b.mv(b.reg(1), cnt.port("tadd")); // r6 = r5 + c
        b.mv(2u32, shl.port("amount"));
        b.mv(cnt.port("r"), shl.port("tshr")); // r7 = r6 / 4
        b.mv(shl.port("r"), b.reg(2));
        b.finish()
    }

    #[test]
    fn one_bus_schedule_is_sequential_length() {
        let seq = fig3_moves();
        let prog = schedule(&seq, &MachineConfig::one_bus_one_fu());
        // One bus: one move per cycle, no packing possible.
        assert_eq!(prog.instructions.len(), seq.len());
        assert_eq!(prog.move_count(), seq.len());
    }

    #[test]
    fn more_buses_shorten_the_schedule() {
        let seq = fig3_moves();
        let one = schedule(&seq, &MachineConfig::one_bus_one_fu()).instructions.len();
        let three = schedule(&seq, &MachineConfig::three_bus_one_fu()).instructions.len();
        assert!(three < one, "3-bus ({three}) should beat 1-bus ({one})");
        assert_eq!(schedule(&seq, &MachineConfig::three_bus_one_fu()).move_count(), seq.len());
    }

    #[test]
    fn result_read_is_one_cycle_after_trigger() {
        let mut b = CodeBuilder::new();
        let cnt = b.fu(FuKind::Counter, 0);
        b.mv(5u32, cnt.port("tset"));
        b.mv(cnt.port("r"), b.reg(0));
        let prog = schedule(&b.finish(), &MachineConfig::new(4));
        // The read cannot share the trigger's cycle.
        assert_eq!(prog.instructions.len(), 2);
    }

    #[test]
    fn operand_and_trigger_may_share_a_cycle() {
        let mut b = CodeBuilder::new();
        let sh = b.fu(FuKind::Shifter, 0);
        b.mv(1u32, sh.port("amount"));
        b.mv(4u32, sh.port("tshl"));
        let prog = schedule(&b.finish(), &MachineConfig::new(4));
        assert_eq!(prog.instructions.len(), 1);
        assert_eq!(prog.instructions[0].move_count(), 2);
    }

    #[test]
    fn operand_rewrite_waits_for_trigger_to_latch() {
        let mut b = CodeBuilder::new();
        let sh = b.fu(FuKind::Shifter, 0);
        b.mv(1u32, sh.port("amount"));
        b.mv(4u32, sh.port("tshl"));
        b.mv(2u32, sh.port("amount")); // for a later op; must not corrupt the first
        let prog = schedule(&b.finish(), &MachineConfig::new(4));
        assert_eq!(prog.instructions.len(), 2);
    }

    #[test]
    fn independent_fus_run_in_parallel() {
        let mut b = CodeBuilder::new();
        let c0 = b.fu(FuKind::Counter, 0);
        let c1 = b.fu(FuKind::Counter, 1);
        let c2 = b.fu(FuKind::Counter, 2);
        b.mv(1u32, c0.port("tset"));
        b.mv(2u32, c1.port("tset"));
        b.mv(3u32, c2.port("tset"));
        // Three physical counters: all three triggers fit in one cycle.
        let wide = schedule(&b.clone().finish(), &MachineConfig::three_bus_three_fu());
        assert_eq!(wide.instructions.len(), 1);
        // One physical counter: virtual 0,1,2 all fold to instance 0 and
        // serialize.
        let narrow = schedule(&b.finish(), &MachineConfig::three_bus_one_fu());
        assert_eq!(narrow.instructions.len(), 3);
    }

    #[test]
    fn guard_waits_for_its_trigger() {
        let mut b = CodeBuilder::new();
        let cmp = b.fu(FuKind::Comparator, 0);
        b.mv(7u32, cmp.port("refv"));
        b.mv(7u32, cmp.port("t"));
        b.mv_if(cmp.guard("eq"), 1u32, b.reg(0));
        let prog = schedule(&b.finish(), &MachineConfig::new(4));
        // refv+t in cycle 0; the guarded move must wait for the eq bit.
        assert_eq!(prog.instructions.len(), 2);
    }

    #[test]
    fn jump_is_last_cycle_of_its_block() {
        let mut b = CodeBuilder::new();
        b.label("top");
        let cnt = b.fu(FuKind::Counter, 0);
        b.mv(1u32, cnt.port("tinc"));
        b.mv(2u32, b.reg(0));
        b.mv(3u32, b.reg(1));
        b.jump("top");
        let prog = schedule(&b.finish(), &MachineConfig::new(4));
        let last = prog.instructions.last().unwrap();
        assert!(last.moves().any(|m| m.is_control_transfer()));
        assert_eq!(prog.labels["top"], 0);
    }

    #[test]
    fn labels_split_blocks_and_remap() {
        let mut b = CodeBuilder::new();
        b.mv(1u32, b.reg(0));
        b.mv(2u32, b.reg(1));
        b.label("middle");
        b.mv(3u32, b.reg(2));
        b.jump("middle");
        let prog = schedule(&b.finish(), &MachineConfig::new(4));
        // Block 1 (two independent reg writes) packs into 1 instruction;
        // "middle" points at the next instruction.
        assert_eq!(prog.labels["middle"], 1);
    }

    #[test]
    fn trailing_label_maps_past_the_end() {
        let mut b = CodeBuilder::new();
        b.mv(1u32, b.reg(0));
        b.label("end");
        let prog = schedule(&b.finish(), &MachineConfig::new(2));
        assert_eq!(prog.labels["end"], prog.instructions.len());
    }

    #[test]
    fn same_register_writes_keep_order() {
        let mut b = CodeBuilder::new();
        b.mv(1u32, b.reg(0));
        b.mv(2u32, b.reg(0));
        let prog = schedule(&b.finish(), &MachineConfig::new(4));
        assert_eq!(prog.instructions.len(), 2);
        // Final value must be from the second write.
        let last = prog.instructions[1].slots[0].as_ref().unwrap();
        assert_eq!(last.src, Source::Imm(2));
    }

    #[test]
    fn register_read_after_write_waits_a_cycle() {
        let mut b = CodeBuilder::new();
        b.mv(1u32, b.reg(0));
        b.mv(b.reg(0), b.reg(1));
        let prog = schedule(&b.finish(), &MachineConfig::new(4));
        assert_eq!(prog.instructions.len(), 2);
    }

    #[test]
    fn empty_sequence_schedules_to_nothing() {
        let prog = schedule(&MoveSeq::new(), &MachineConfig::default());
        assert!(prog.instructions.is_empty());
    }

    #[test]
    fn bus_capacity_limits_parallelism() {
        let mut b = CodeBuilder::new();
        // Six fully independent register writes.
        for i in 0..6 {
            b.mv(u32::from(i), b.reg(i));
        }
        let seq = b.finish();
        assert_eq!(schedule(&seq, &MachineConfig::new(1)).instructions.len(), 6);
        assert_eq!(schedule(&seq, &MachineConfig::new(2)).instructions.len(), 3);
        assert_eq!(schedule(&seq, &MachineConfig::new(3)).instructions.len(), 2);
        assert_eq!(schedule(&seq, &MachineConfig::new(6)).instructions.len(), 1);
    }
}
