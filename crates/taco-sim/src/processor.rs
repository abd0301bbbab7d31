//! The cycle-accurate TACO processor model.
//!
//! [`Processor`] executes a scheduled [`Program`] against a
//! [`MachineConfig`] exactly one instruction word per cycle:
//!
//! 1. **read phase** — every occupied bus slot evaluates its guard against
//!    the FU state at the start of the cycle and, if it passes, samples its
//!    source (results latched in earlier cycles, register values, or an
//!    immediate);
//! 2. **write phase** — operand and register writes land, then triggers
//!    fire (each TACO FU completes its operation within the cycle, so its
//!    result and guard bits are visible from the next cycle on);
//! 3. **PC update** — a move into `nc0.pc` redirects control; otherwise the
//!    PC advances.  Falling off the end of the program (or jumping exactly
//!    to `len`) halts cleanly.
//!
//! The only multi-cycle citizen is the Routing Table Unit: its backend (a
//! CAM in the paper's third case) answers after a configurable latency, and
//! any read of an RTU result or guard before the latency has elapsed stalls
//! the whole processor — the hardware interlock that lets the same
//! microcode run at any clock/CAM-latency ratio.

use std::collections::VecDeque;
use std::sync::Arc;

use taco_isa::{FuKind, FuRef, MachineConfig, Program};

use crate::error::SimError;
use crate::memory::DataMemory;
use crate::rtu::RtuConfig;
use crate::sched::{CompiledProgram, DMove, IMM};
use crate::stats::SimStats;
use crate::trace::{NullTracer, TraceEvent, Tracer};
use crate::units::{Op, Ports, RtuState};

/// A deterministic periodic stall: steals the first `len` cycles of every
/// `every`-cycle window, modelling bus glitches or FU brown-outs that
/// freeze the interconnection network for a beat without corrupting state.
/// `len` is clamped below `every` so the processor always makes forward
/// progress.
///
/// A run consults it *before* each instruction issues; a stolen cycle
/// behaves exactly like an RTU interlock stall (PC and architectural state
/// untouched) but is accounted separately in
/// [`SimStats::injected_stall_cycles`](crate::SimStats).
#[derive(Debug, Clone, Copy)]
pub struct PeriodicStall {
    every: u64,
    len: u64,
}

impl PeriodicStall {
    /// Creates a stall pattern stealing `len` of every `every` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn new(every: u64, len: u64) -> Self {
        assert!(every > 0, "stall period must be positive");
        PeriodicStall { every, len: len.min(every - 1) }
    }

    /// Returns `true` if the stall steals `cycle`.
    #[inline]
    pub fn steals(&self, cycle: u64) -> bool {
        cycle % self.every < self.len
    }
}

/// A simulated TACO processor.
///
/// # Examples
///
/// Assemble and run a loop that counts to five:
///
/// ```
/// use taco_isa::{asm, MachineConfig};
/// use taco_sim::Processor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut prog = asm::parse(
///     "        0 -> cnt0.tset | 5 -> cnt0.stop\n\
///      loop:   1 -> cnt0.tinc\n\
///              !cnt0.done @loop -> nc0.pc\n\
///              cnt0.r -> regs0.r1\n",
/// )?;
/// prog.resolve_labels().map_err(|l| format!("undefined label {l}"))?;
/// let mut cpu = Processor::new(MachineConfig::three_bus_one_fu(), prog)?;
/// let stats = cpu.run(1_000)?;
/// assert_eq!(cpu.reg(1), 5);
/// assert!(stats.cycles > 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Processor {
    compiled: Arc<CompiledProgram>,
    trigger_counts: Vec<u64>,
    pc: usize,
    halted: bool,
    cycle: u64,
    /// Every port register, laid out by `compiled.map`.
    file: Vec<u32>,
    /// Every guard bit, likewise; slot 0 is constant-true.
    guards: Vec<bool>,
    mem: DataMemory,
    rtu: RtuState,
    ippu_queue: VecDeque<(u32, u32)>,
    oppu_out: Vec<(u32, u32)>,
    stats: SimStats,
    stall_open: bool,
    fault_open: bool,
}

/// Default data memory size in 32-bit words (256 KiB).
pub const DEFAULT_MEMORY_WORDS: u32 = 65_536;

impl Processor {
    /// Builds a processor for `config` loaded with `program`, with
    /// [`DEFAULT_MEMORY_WORDS`] of data memory.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnresolvedLabel`] if the program still contains label
    ///   sources;
    /// * [`SimError::TooManySlots`] if an instruction is wider than the bus
    ///   count;
    /// * [`SimError::InvalidFuIndex`] if the program references FU instances
    ///   the configuration lacks.
    pub fn new(config: MachineConfig, program: Program) -> Result<Self, SimError> {
        Self::new_shared(config, Arc::new(program))
    }

    /// Like [`Processor::new`] but sharing an already-built program:
    /// [`CompiledProgram::compile`] followed by [`Processor::instantiate`].
    /// Callers that build many processors from the same microcode keep the
    /// compiled handle and skip the first half.
    ///
    /// # Errors
    ///
    /// See [`Processor::new`].
    pub fn new_shared(config: MachineConfig, program: Arc<Program>) -> Result<Self, SimError> {
        let compiled = CompiledProgram::compile(config, program)?;
        Ok(Self::instantiate(compiled))
    }

    /// A powered-on processor executing `compiled`, with
    /// [`DEFAULT_MEMORY_WORDS`] of zeroed data memory and an always-missing
    /// RTU.  The LIU is an empty table: every read of it returns zero.
    pub fn instantiate(compiled: Arc<CompiledProgram>) -> Self {
        let (file, guards) = compiled.map.power_on();
        Processor {
            trigger_counts: vec![0; compiled.config.units().count()],
            pc: 0,
            halted: false,
            cycle: 0,
            file,
            guards,
            mem: DataMemory::new(DEFAULT_MEMORY_WORDS),
            rtu: RtuState { ready_at: 0, config: RtuConfig::default() },
            ippu_queue: VecDeque::new(),
            oppu_out: Vec::new(),
            stats: SimStats { buses: compiled.config.buses(), ..SimStats::default() },
            stall_open: false,
            fault_open: false,
            compiled,
        }
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        self.compiled.program()
    }

    /// The compiled handle this processor was instantiated from.
    pub fn compiled(&self) -> &Arc<CompiledProgram> {
        &self.compiled
    }

    /// Data memory (read side).
    pub fn memory(&self) -> &DataMemory {
        &self.mem
    }

    /// Data memory (write side) — for loading datagrams and tables before a
    /// run, as the paper's iPPU does.
    pub fn memory_mut(&mut self) -> &mut DataMemory {
        &mut self.mem
    }

    /// Installs the Routing Table Unit's backend and latency.
    pub fn set_rtu(&mut self, config: RtuConfig) {
        self.rtu.config = config;
    }

    /// Queues a pending datagram `(memory pointer, input interface)` at the
    /// iPPU, as a line card would.
    pub fn push_input(&mut self, ptr: u32, iface: u32) {
        self.ippu_queue.push_back((ptr, iface));
        let ippu = FuRef::new(FuKind::Ippu, 0);
        let pending = self.compiled.map.fu(ippu).expect("every machine has one iPPU").1;
        self.guards[pending] = true;
    }

    /// Datagrams emitted through the oPPU as `(memory pointer, output
    /// interface)` pairs, in emission order.
    pub fn outputs(&self) -> &[(u32, u32)] {
        &self.oppu_out
    }

    /// Removes and returns all oPPU output.
    pub fn drain_outputs(&mut self) -> Vec<(u32, u32)> {
        std::mem::take(&mut self.oppu_out)
    }

    /// Current value of general-purpose register `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 16`.
    pub fn reg(&self, i: u8) -> u32 {
        self.file[self.reg_slot(i)]
    }

    /// Sets general-purpose register `i` (test and setup convenience).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 16`.
    pub fn set_reg(&mut self, i: u8, v: u32) {
        let slot = self.reg_slot(i);
        self.file[slot] = v;
    }

    /// The register file is sixteen words of a larger file, so the bound
    /// is checked here: a bad index must not read another FU's port.
    fn reg_slot(&self, i: u8) -> usize {
        assert!(i < 16, "no general-purpose register r{i}");
        let regs = FuRef::new(FuKind::Regs, 0);
        self.compiled.map.fu(regs).expect("every machine has one register file").0 + usize::from(i)
    }

    /// Elapsed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Current program counter.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Runs until the program halts.
    ///
    /// # Errors
    ///
    /// Propagates memory faults, port/PC write conflicts and out-of-range
    /// jumps, plus [`SimError::Watchdog`] if the program has not halted
    /// within `budget` cycles.
    pub fn run(&mut self, budget: u64) -> Result<SimStats, SimError> {
        self.run_with(budget, &mut NullTracer, None)
    }

    /// [`Processor::run`] reporting cycle-level events to `tracer`, with
    /// `stalls` stealing transient stall cycles (see [`PeriodicStall`]).
    /// Generic over the tracer, so [`NullTracer`] monomorphises to nothing.
    ///
    /// This is the step loop, the one place instruction words execute.
    /// Each cycle is stolen, stalled for the RTU or issues the word at the
    /// PC, whose moves [`sched::decode`](crate::sched) resolved to port-file
    /// slots and stored in bus order.  An issued word is the hardware's
    /// cycle: a read phase samples every move's guard and source as the
    /// cycle starts, then (after the conflict check, where two moves share
    /// a destination) the passing stores land in bus order, then the
    /// passing triggers fire and the jump is taken, in bus order, and the
    /// PC moves on.  The cycle, PC, stall flags and move counters live in
    /// locals while it runs and are folded into `self` on every exit path;
    /// so is the trigger record, rebuilt from the per-unit counters
    /// (numbered in the machine's unit order, so in key order).  Stats stay
    /// complete even when the run errors out mid-cycle.
    ///
    /// # Errors
    ///
    /// See [`Processor::run`].
    pub fn run_with<T: Tracer + ?Sized>(
        &mut self,
        budget: u64,
        tracer: &mut T,
        stalls: Option<PeriodicStall>,
    ) -> Result<SimStats, SimError> {
        let compiled = Arc::clone(&self.compiled);
        let decoded = &compiled.decoded;
        let len = decoded.ins.len();
        let start = self.cycle;
        let deadline = start.saturating_add(budget);
        let (mut cycle, mut pc, mut halted) = (self.cycle, self.pc, self.halted);
        let (mut stall_open, mut fault_open) = (self.stall_open, self.fault_open);
        let (mut stalled, mut stolen) = (0u64, 0u64);
        // Every move of every word issued, and those whose guard failed.
        let (mut issued, mut squashed) = (0u64, 0u64);
        // The issuing word's `(passes, value)` per move, from its read phase.
        let mut reads = [(false, 0u32); u8::MAX as usize];
        let mut ports = self.ports();

        let result = 'cycles: loop {
            if halted {
                break Ok(());
            }
            if cycle >= deadline {
                break Err(SimError::Watchdog { budget });
            }
            if pc >= len {
                halted = true;
                break Ok(());
            }
            if let Some(stalls) = stalls {
                if stalls.steals(cycle) {
                    if !fault_open {
                        fault_open = true;
                        tracer.event(&TraceEvent::FaultStallBegin { cycle });
                    }
                    cycle += 1;
                    stolen += 1;
                    continue;
                }
                if fault_open {
                    fault_open = false;
                    tracer.event(&TraceEvent::FaultStallEnd { cycle });
                }
            }
            let meta = &decoded.ins[pc];
            if meta.rtu_sensitive && cycle < ports.rtu.ready_at {
                if !stall_open {
                    stall_open = true;
                    tracer.event(&TraceEvent::StallBegin { cycle });
                }
                cycle += 1;
                stalled += 1;
                continue;
            }
            if stall_open {
                stall_open = false;
                tracer.event(&TraceEvent::StallEnd { cycle });
            }

            // --- read phase: every guard and source as the cycle starts ----
            tracer.issued(pc);
            let moves = &decoded.moves[meta.start as usize..meta.end as usize];
            issued += moves.len() as u64;
            for (read, mv) in reads.iter_mut().zip(moves) {
                let passes = ports.guards[usize::from(mv.guard)] != mv.negate;
                let value = if mv.src == IMM { mv.imm } else { ports.file[usize::from(mv.src)] };
                *read = (passes, value);
                squashed += u64::from(!passes);
                let (bus, pc) = (mv.bus, pc as u32);
                tracer.event(&if passes {
                    TraceEvent::MoveExecuted { cycle, bus, pc }
                } else {
                    TraceEvent::MoveSquashed { cycle, bus, pc }
                });
            }
            let reads = &reads[..moves.len()];
            // Only words with statically aliased destinations can conflict
            // dynamically, so the (vast) conflict-free majority skips the scan.
            if meta.may_conflict {
                if let Err(e) = conflict(&compiled.scheduled, moves, reads, cycle, pc) {
                    break Err(e);
                }
            }

            // --- write phase: stores, then triggers and the jump ------------
            for (mv, &(passes, value)) in moves.iter().zip(reads) {
                if passes && !mv.op.is_trigger() {
                    ports.store(mv.op, usize::from(mv.dst), usize::from(mv.gbase), value);
                }
            }
            let mut jump = None;
            for (mv, &(passes, value)) in moves.iter().zip(reads) {
                match mv.op {
                    _ if !passes => {}
                    Op::Store | Op::CounterStop => {}
                    Op::Jump => jump = Some(value),
                    op => {
                        let fu = mv.fu;
                        // Counted where the event is emitted, so a trigger
                        // that faults is in the stats as it is in the trace.
                        tracer.event(&TraceEvent::FuTriggered { cycle, fu });
                        ports.trigger_counts[usize::from(mv.slot)] += 1;
                        let (dst, gbase) = (usize::from(mv.dst), usize::from(mv.gbase));
                        if let Err(e) = ports.apply(op, dst, gbase, value, cycle, tracer) {
                            break 'cycles Err(e);
                        }
                        // Results become architecturally visible the next
                        // cycle — except RTU lookups, which retire when the
                        // interlock opens.
                        let retire = if op == Op::Rtu {
                            ports.rtu.ready_at.max(cycle + 1)
                        } else {
                            cycle + 1
                        };
                        tracer.event(&TraceEvent::FuRetired { cycle: retire, fu });
                    }
                }
            }

            // --- PC update -------------------------------------------------
            cycle += 1;
            match jump {
                None => {
                    pc += 1;
                    halted = pc >= len;
                }
                Some(t) if (t as usize) < len => pc = t as usize,
                Some(t) if t as usize == len => halted = true,
                Some(t) => break Err(SimError::JumpOutOfRange { target: t, len }),
            }
        };

        self.cycle = cycle;
        self.pc = pc;
        self.halted = halted;
        self.stall_open = stall_open;
        self.fault_open = fault_open;
        self.stats.cycles += cycle - start;
        self.stats.stall_cycles += stalled;
        self.stats.injected_stall_cycles += stolen;
        self.stats.moves_executed += issued - squashed;
        self.stats.moves_squashed += squashed;
        let counts = self.compiled.config.units().zip(self.trigger_counts.iter().copied());
        self.stats.fu_instance_triggers = counts.filter(|&(_, n)| n > 0).collect();
        result?;
        Ok(self.stats.clone())
    }

    /// The machine state a move can touch, as disjoint borrows.
    pub(crate) fn ports(&mut self) -> Ports<'_> {
        Ports {
            file: &mut self.file,
            guards: &mut self.guards,
            mem: &mut self.mem,
            rtu: &mut self.rtu,
            ippu_queue: &mut self.ippu_queue,
            oppu_out: &mut self.oppu_out,
            trigger_counts: &mut self.trigger_counts,
        }
    }
}

/// The dynamic conflict scan, out of line: two passing moves of one word
/// write the same port.  Runs after the read phase, before any move
/// writes, and reports the first move in bus order whose port a passing
/// move on a lower bus also writes.
#[cold]
#[inline(never)]
fn conflict(
    program: &Program,
    moves: &[DMove],
    reads: &[(bool, u32)],
    cycle: u64,
    pc: usize,
) -> Result<(), SimError> {
    let port = |i: usize| (moves[i].op, moves[i].dst);
    let live = |i: &usize| reads[*i].0;
    let Some(clash) =
        (0..moves.len()).filter(live).find(|&i| (0..i).filter(live).any(|e| port(e) == port(i)))
    else {
        return Ok(());
    };
    let mv = &moves[clash];
    if mv.op == Op::Jump {
        return Err(SimError::DoublePcWrite { cycle });
    }
    // Recover the original PortRef from the instruction word (a patch
    // rewrites immediates only, so the scheduled program's word names it).
    let port = program.instructions[pc].slots[usize::from(mv.bus)]
        .as_ref()
        .expect("decoded move maps to an occupied slot")
        .dst;
    Err(SimError::PortConflict { port, cycle })
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_isa::{asm, Guard, Instruction, PortRef, Source};

    fn load(text: &str, config: MachineConfig) -> Processor {
        let mut prog = asm::parse(text).unwrap();
        prog.resolve_labels().unwrap();
        Processor::new(config, prog).unwrap()
    }

    /// An FU result register by kind/instance/port.
    fn read_port(p: &Processor, kind: FuKind, index: u8, port: &str) -> Result<u32, SimError> {
        Ok(p.file[p.compiled.map.port(PortRef::new(kind, index, port))?.1])
    }

    /// A guard signal; `false` for an instance the configuration lacks.
    fn read_guard(p: &Processor, kind: FuKind, index: u8, signal: &str) -> bool {
        let g = Guard::new(kind, index, signal, false);
        p.compiled.map.guard(g.fu, g.signal).is_ok_and(|slot| p.guards[slot])
    }

    #[test]
    fn straight_line_immediates() {
        let mut p = load("7 -> regs0.r0\n9 -> regs0.r1\n", MachineConfig::new(1));
        p.run(10).unwrap();
        assert_eq!((p.reg(0), p.reg(1)), (7, 9));
        assert_eq!(p.cycles(), 2);
        assert!(p.halted);
    }

    #[test]
    fn counting_loop_terminates() {
        let mut p = load(
            "0 -> cnt0.tset | 5 -> cnt0.stop\nloop: 1 -> cnt0.tinc\n!cnt0.done @loop -> nc0.pc\n",
            MachineConfig::new(3),
        );
        let stats = p.run(100).unwrap();
        assert_eq!(read_port(&p, FuKind::Counter, 0, "r").unwrap(), 5);
        // 1 setup + 5 × (inc + branch) cycles.
        assert_eq!(stats.cycles, 11);
        assert_eq!(stats.fu_instance_triggers.of_kind(FuKind::Counter), 6);
    }

    #[test]
    fn the_issue_hook_counts_every_word_issued_and_no_stalled_cycle() {
        use crate::rtu::{MapRtu, RtuConfig};
        /// Words issued per instruction index.
        struct Issued(Vec<u64>);
        impl Tracer for Issued {
            fn event(&mut self, _event: &TraceEvent) {}
            fn issued(&mut self, pc: usize) {
                self.0[pc] += 1;
            }
        }
        let text = "0 -> cnt0.tset | 3 -> cnt0.stop\nloop: 1 -> cnt0.tinc\n\
                    1 -> rtu0.t\nrtu0.iface -> regs0.r0\n!cnt0.done @loop -> nc0.pc\n";
        let mut p = load(text, MachineConfig::new(2));
        p.set_rtu(RtuConfig::new(Box::new(MapRtu::default())).with_latency(4));
        let mut issued = Issued(vec![0; p.program().instructions.len()]);
        let stats = p.run_with(100, &mut issued, None).unwrap();
        assert_eq!(issued.0, [1, 3, 3, 3, 3]);
        assert_eq!(issued.0.iter().sum::<u64>(), stats.cycles - stats.stall_cycles);
        assert_eq!(stats.stall_cycles, 3 * 3);
    }

    #[test]
    fn result_visible_next_cycle_not_same() {
        // Trigger and read packed into one instruction on different buses:
        // the read sees the *old* result.
        let mut p = load("9 -> cnt0.tset | cnt0.r -> regs0.r0\n", MachineConfig::new(2));
        p.run(10).unwrap();
        assert_eq!(p.reg(0), 0); // old value
        assert_eq!(read_port(&p, FuKind::Counter, 0, "r").unwrap(), 9);
    }

    #[test]
    fn guard_sees_state_from_cycle_start() {
        // cnt set to stop value and guarded move in the same cycle: the
        // guard must not see the new count yet.
        let mut p = load(
            "3 -> cnt0.stop\n3 -> cnt0.tset | ?cnt0.done 1 -> regs0.r0\n?cnt0.done 2 -> regs0.r1\n",
            MachineConfig::new(2),
        );
        p.run(10).unwrap();
        assert_eq!(p.reg(0), 0); // squashed: done was still false
        assert_eq!(p.reg(1), 2); // one cycle later it is true
        assert_eq!(p.stats().moves_squashed, 1);
    }

    #[test]
    fn a_copy_chain_reads_the_registers_the_cycle_started_with() {
        let mut p = load(
            "1 -> regs0.r1 | 2 -> regs0.r2 | 3 -> regs0.r3\n\
             regs0.r1 -> regs0.r2 | regs0.r2 -> regs0.r3\n",
            MachineConfig::new(3),
        );
        p.run(10).unwrap();
        // r3 gets r2's old value, not the r1 copied into r2 on bus 0.
        assert_eq!((p.reg(1), p.reg(2), p.reg(3)), (1, 1, 2));
    }

    #[test]
    fn a_guard_reads_the_done_bit_the_cycle_started_with() {
        // `done` (count == stop) is true at power-on; the `stop` write on
        // bus 0 clears it, but only for the next cycle's guards.
        let mut p = load(
            "3 -> cnt0.stop | ?cnt0.done 1 -> regs0.r5 | !cnt0.done 2 -> regs0.r6\n",
            MachineConfig::new(3),
        );
        let stats = p.run(10).unwrap();
        assert_eq!((p.reg(5), p.reg(6)), (1, 0));
        assert_eq!((stats.moves_executed, stats.moves_squashed), (2, 1));
        assert!(!read_guard(&p, FuKind::Counter, 0, "done"));
        assert!(read_guard(&p, FuKind::Counter, 0, "zero"));
    }

    #[test]
    fn a_trigger_reads_the_result_the_cycle_started_with() {
        // cnt1 is set from cnt0's result while cnt0 is set anew in the
        // same word, on the bus before it.
        let mut p = load(
            "7 -> cnt0.tset\n\
             9 -> cnt0.tset | cnt0.r -> cnt1.tset\n\
             cnt1.r -> regs0.r1 | cnt0.r -> regs0.r2\n",
            MachineConfig::new(2).with_fu_count(FuKind::Counter, 2),
        );
        p.run(10).unwrap();
        assert_eq!((p.reg(1), p.reg(2)), (7, 9));
        assert_eq!(read_port(&p, FuKind::Counter, 1, "r"), Ok(7));
        assert!(!read_guard(&p, FuKind::Counter, 1, "zero"));
    }

    #[test]
    fn memory_read_write_via_mmu() {
        let mut p = load(
            "16 -> mmu0.addr\n77 -> mmu0.twrite\n16 -> mmu0.addr\n0 -> mmu0.tread\nmmu0.r -> regs0.r2\n",
            MachineConfig::new(1),
        );
        p.run(10).unwrap();
        assert_eq!(p.reg(2), 77);
        assert_eq!(p.memory().read(16).unwrap(), 77);
    }

    #[test]
    fn memory_fault_surfaces() {
        let text = format!("{DEFAULT_MEMORY_WORDS} -> mmu0.addr\n0 -> mmu0.tread\n");
        let mut p = load(&text, MachineConfig::new(1));
        let size = DEFAULT_MEMORY_WORDS;
        assert_eq!(p.run(10), Err(SimError::MemoryOutOfBounds { addr: size, size }));
    }

    #[test]
    fn ippu_and_oppu_flow() {
        let mut p = load(
            "0 -> ippu0.tpop\nippu0.iface -> oppu0.iface\nippu0.ptr -> oppu0.t\n",
            MachineConfig::new(1),
        );
        p.push_input(0x100, 2);
        assert_eq!(p.ippu_queue.len(), 1);
        p.run(10).unwrap();
        assert_eq!(p.outputs(), &[(0x100, 2)]);
        assert_eq!(p.ippu_queue.len(), 0);
    }

    #[test]
    fn ippu_pending_guard() {
        let mut p = load(
            "?ippu0.pending 1 -> regs0.r0\n0 -> ippu0.tpop\n?ippu0.pending 1 -> regs0.r1\n",
            MachineConfig::new(1),
        );
        p.push_input(0x40, 0);
        p.run(10).unwrap();
        assert_eq!(p.reg(0), 1); // something was pending
        assert_eq!(p.reg(1), 0); // queue drained
    }

    #[test]
    fn rtu_lookup_with_stall() {
        use crate::rtu::{MapRtu, RtuResult};
        let mut backend = MapRtu::new();
        backend.insert([1, 2, 3, 4], RtuResult { iface: 9, handle: 1 });
        let mut p = load(
            "1 -> rtu0.k0\n2 -> rtu0.k1\n3 -> rtu0.k2\n4 -> rtu0.t\nrtu0.iface -> regs0.r0\n",
            MachineConfig::new(1),
        );
        p.set_rtu(RtuConfig::new(Box::new(backend)).with_latency(5));
        let stats = p.run(100).unwrap();
        assert_eq!(p.reg(0), 9);
        assert!(read_guard(&p, FuKind::Rtu, 0, "hit"));
        // Trigger at cycle 3 (0-based), ready at 3+5=8; the read would have
        // been cycle 4, so it stalls 4 cycles.
        assert_eq!(stats.stall_cycles, 4);
    }

    #[test]
    fn rtu_miss_clears_hit() {
        let mut p = load("4 -> rtu0.t\n?rtu0.hit 1 -> regs0.r0\n", MachineConfig::new(1));
        p.run(10).unwrap();
        assert_eq!(p.reg(0), 0);
        assert_eq!(read_port(&p, FuKind::Rtu, 0, "iface").unwrap(), u32::MAX);
    }

    #[test]
    fn liu_reads_zero() {
        // No program loads the local-information table, so it is empty.
        let mut p = load("1 -> liu0.t\nliu0.r -> regs0.r0\n", MachineConfig::new(1));
        p.set_reg(0, 0x22);
        p.run(10).unwrap();
        assert_eq!(p.reg(0), 0);
    }

    #[test]
    fn jump_to_len_halts_cleanly() {
        let mut p = load("2 -> nc0.pc\n1 -> regs0.r0\n", MachineConfig::new(1));
        p.run(10).unwrap();
        assert_eq!(p.reg(0), 0); // skipped
        assert!(p.halted);
    }

    #[test]
    fn jump_past_len_is_error() {
        let mut p = load("3 -> nc0.pc\n", MachineConfig::new(1));
        assert!(matches!(p.run(10), Err(SimError::JumpOutOfRange { target: 3, len: 1 })));
    }

    #[test]
    fn watchdog_fires_on_infinite_loop() {
        let mut p = load("loop: @loop -> nc0.pc\n", MachineConfig::new(1));
        assert_eq!(p.run(50), Err(SimError::Watchdog { budget: 50 }));
    }

    #[test]
    fn port_conflict_detected() {
        let mut p = load("1 -> regs0.r0 | 2 -> regs0.r0\n", MachineConfig::new(2));
        assert!(matches!(p.run(10), Err(SimError::PortConflict { .. })));
    }

    #[test]
    fn double_pc_write_detected() {
        let mut p = load("0 -> nc0.pc | 0 -> nc0.pc\n", MachineConfig::new(2));
        assert!(matches!(p.run(10), Err(SimError::DoublePcWrite { .. })));
    }

    #[test]
    fn validation_rejects_missing_fu() {
        let prog = asm::parse("1 -> mtch2.t\n").unwrap();
        assert!(matches!(
            Processor::new(MachineConfig::new(1), prog),
            Err(SimError::InvalidFuIndex { .. })
        ));
    }

    #[test]
    fn validation_rejects_wide_instruction() {
        let prog = asm::parse("1 -> regs0.r0 | 2 -> regs0.r1\n").unwrap();
        assert!(matches!(
            Processor::new(MachineConfig::new(1), prog),
            Err(SimError::TooManySlots { .. })
        ));
    }

    #[test]
    fn validation_rejects_unresolved_labels() {
        let prog = asm::parse("@nowhere -> nc0.pc\n").unwrap();
        assert!(matches!(
            Processor::new(MachineConfig::new(1), prog),
            Err(SimError::UnresolvedLabel(_))
        ));
    }

    // Malformed microcode built by hand, bypassing the assembler's (and
    // `PortRef::new`'s) vocabulary checks: construction must answer with a
    // structured error, never a panic.
    fn raw_program(mv: taco_isa::Move) -> Program {
        Program { instructions: vec![Instruction::single(mv, 1)], labels: Default::default() }
    }

    #[test]
    fn validation_rejects_unknown_destination_port() {
        // The matcher has four ports.
        let bogus = PortRef { fu: FuRef::new(FuKind::Matcher, 0), port: 4 };
        let prog = raw_program(taco_isa::Move::new(1u32, bogus));
        assert_eq!(
            Processor::new(MachineConfig::new(1), prog).err(),
            Some(SimError::InvalidPort { port: bogus, why: "no such port on this FU" })
        );
    }

    #[test]
    fn validation_rejects_writing_a_result_port() {
        let result = PortRef::new(FuKind::Matcher, 0, "r");
        let prog = raw_program(taco_isa::Move::new(1u32, result));
        assert_eq!(
            Processor::new(MachineConfig::new(1), prog).err(),
            Some(SimError::InvalidPort { port: result, why: "result ports cannot be written" })
        );
    }

    #[test]
    fn validation_rejects_reading_a_trigger_port() {
        let trigger = PortRef::new(FuKind::Matcher, 0, "t");
        let dst = PortRef::new(FuKind::Regs, 0, "r0");
        let prog = raw_program(taco_isa::Move::new(Source::Port(trigger), dst));
        assert_eq!(
            Processor::new(MachineConfig::new(1), prog).err(),
            Some(SimError::InvalidPort {
                port: trigger,
                why: "operand/trigger ports cannot be read"
            })
        );
    }

    #[test]
    fn validation_rejects_unknown_guard_signal() {
        let dst = PortRef::new(FuKind::Regs, 0, "r0");
        // The checksum unit drives no guard signal at all.
        let guard =
            taco_isa::Guard { fu: FuRef::new(FuKind::Checksum, 0), signal: 0, negate: false };
        let prog = raw_program(taco_isa::Move::new(1u32, dst).with_guard(guard));
        assert_eq!(
            Processor::new(MachineConfig::new(1), prog).err(),
            Some(SimError::InvalidGuard { fu: FuRef::new(FuKind::Checksum, 0), signal: 0 })
        );
    }

    #[test]
    fn validation_reports_the_first_error_in_program_order_then_move_order() {
        let r0 = PortRef::new(FuKind::Regs, 0, "r0");
        let result = PortRef::new(FuKind::Matcher, 0, "r");
        let trigger = PortRef::new(FuKind::Matcher, 0, "t");
        let no_guard =
            taco_isa::Guard { fu: FuRef::new(FuKind::Checksum, 0), signal: 0, negate: false };
        let label = || Source::Label("nowhere".into());
        let first = |moves: Vec<taco_isa::Move>| {
            let instructions = moves.into_iter().map(|mv| Instruction::single(mv, 1)).collect();
            let prog = Program { instructions, labels: Default::default() };
            Processor::new(MachineConfig::new(1), prog).err()
        };
        let written = SimError::InvalidPort { port: result, why: "result ports cannot be written" };
        let read =
            SimError::InvalidPort { port: trigger, why: "operand/trigger ports cannot be read" };
        let guard = SimError::InvalidGuard { fu: no_guard.fu, signal: 0 };
        let unresolved = SimError::UnresolvedLabel("nowhere".into());
        // Within a move: destination, then source, then guard, then label.
        let bad_everything =
            taco_isa::Move::new(Source::Port(trigger), result).with_guard(no_guard);
        assert_eq!(first(vec![bad_everything]), Some(written));
        let bad_source = taco_isa::Move::new(Source::Port(trigger), r0).with_guard(no_guard);
        assert_eq!(first(vec![bad_source]), Some(read));
        let labelled = taco_isa::Move::new(label(), r0);
        assert_eq!(first(vec![labelled.clone().with_guard(no_guard)]), Some(guard));
        // Across moves: the earlier instruction's error, whatever follows.
        let wide = Instruction { slots: vec![None, None] };
        let prog = Program {
            instructions: vec![Instruction::single(labelled, 1), wide],
            labels: Default::default(),
        };
        assert_eq!(Processor::new(MachineConfig::new(1), prog).err(), Some(unresolved));
    }

    #[test]
    fn bus_utilization_reported() {
        let mut p = load("1 -> regs0.r0 | 2 -> regs0.r1\n3 -> regs0.r2\n", MachineConfig::new(2));
        let stats = p.run(10).unwrap();
        // 3 moves over 2 cycles × 2 buses.
        assert!((stats.bus_utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn checksum_unit_through_program() {
        let mut p = load(
            "0 -> csum0.tclr\n0x00010203 -> csum0.tadd\ncsum0.r -> regs0.r0\n",
            MachineConfig::new(1),
        );
        p.run(10).unwrap();
        assert_eq!(p.reg(0), (!(0x0001u32 + 0x0203) & 0xffff));

        // 40 000 all-ones words: an unfolded u32 accumulator overflows at
        // the 32 769th.  The one's-complement sum of all-ones is 0xffff.
        let mut p = load(
            "0 -> csum0.tclr | 0 -> cnt0.tset | 40000 -> cnt0.stop\n\
             loop: 0xffffffff -> csum0.tadd | 1 -> cnt0.tinc\n\
             !cnt0.done @loop -> nc0.pc\ncsum0.r -> regs0.r0\n",
            MachineConfig::new(3),
        );
        let stats = p.run(100_000).unwrap();
        assert_eq!((stats.fu_instance_triggers.of_kind(FuKind::Checksum), p.reg(0)), (40_001, 0));
    }

    #[test]
    fn power_on_state_matches_the_combinational_reads_it_replaced() {
        let mut p = load("0 -> ippu0.tpop\n", MachineConfig::three_bus_three_fu());
        let pending = |p: &Processor| read_guard(p, FuKind::Ippu, 0, "pending");
        for check in 0..2 {
            for i in 0..3 {
                // 0 == stop and 0 == 0 on a zeroed counter; !0 & 0xffff.
                assert!(read_guard(&p, FuKind::Counter, i, "done"), "{check}");
                assert!(read_guard(&p, FuKind::Counter, i, "zero"), "{check}");
                assert!(!read_guard(&p, FuKind::Matcher, i, "match"), "{check}");
            }
            assert_eq!(read_port(&p, FuKind::Checksum, 0, "r"), Ok(0xffff), "{check}");
            assert!(!pending(&p) && !read_guard(&p, FuKind::Rtu, 0, "hit"), "{check}");
            // `pending` follows the queue: two pushes, one pop, then a
            // fresh processor on the same program.
            p.push_input(0x40, 1);
            p.push_input(0x80, 2);
            assert!(pending(&p));
            p.run(10).unwrap();
            assert!(pending(&p) && p.ippu_queue.len() == 1);
            p = Processor::instantiate(Arc::clone(p.compiled()));
        }
        p.push_input(0x40, 1);
        p.run(10).unwrap();
        assert!(!pending(&p));
        assert!(!read_guard(&p, FuKind::Counter, 3, "done")); // no such instance
    }

    #[test]
    #[should_panic(expected = "no general-purpose register r16")]
    fn a_register_index_cannot_reach_another_units_port() {
        load("1 -> regs0.r0\n", MachineConfig::new(1)).reg(16);
    }
}

#[cfg(test)]
mod multiport_memory_tests {
    use super::*;
    use taco_isa::asm;

    #[test]
    fn two_memory_ports_share_one_array() {
        let mut prog = asm::parse(
            "16 -> mmu0.addr | 17 -> mmu1.addr
             7 -> mmu0.twrite | 9 -> mmu1.twrite
             17 -> mmu0.addr | 16 -> mmu1.addr
             0 -> mmu0.tread | 0 -> mmu1.tread
             mmu0.r -> regs0.r0 | mmu1.r -> regs0.r1
",
        )
        .unwrap();
        prog.resolve_labels().unwrap();
        let config = MachineConfig::new(2).with_fu_count(FuKind::Mmu, 2);
        let mut p = Processor::new(config, prog).unwrap();
        p.run(100).unwrap();
        // Cross-read: each port sees what the other wrote.
        assert_eq!(p.reg(0), 9);
        assert_eq!(p.reg(1), 7);
        assert_eq!(p.memory().read(16).unwrap(), 7);
        assert_eq!(p.memory().read(17).unwrap(), 9);
    }

    #[test]
    fn second_port_requires_configuration() {
        let prog = asm::parse(
            "1 -> mmu1.addr
",
        )
        .unwrap();
        assert!(matches!(
            Processor::new(MachineConfig::new(1), prog),
            Err(SimError::InvalidFuIndex { .. })
        ));
    }
}

#[cfg(test)]
mod determinism_tests {
    use super::*;
    use taco_isa::asm;

    #[test]
    fn identical_runs_produce_identical_state_and_stats() {
        let text = "0 -> cnt0.tset | 9 -> cnt0.stop
                    loop: 1 -> cnt0.tinc | cnt0.r -> regs0.r1
                    !cnt0.done @loop -> nc0.pc
                    cnt0.r -> regs0.r0
";
        let run = || {
            let mut prog = asm::parse(text).unwrap();
            prog.resolve_labels().unwrap();
            let mut p = Processor::new(MachineConfig::new(3), prog).unwrap();
            p.push_input(0x99, 1);
            p.run(1_000).unwrap();
            (p.stats().clone(), p.reg(0), p.reg(1), p.ippu_queue.len())
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::trace::{RingTracer, TraceEvent};
    use taco_isa::asm;

    const LOOP: &str = "0 -> cnt0.tset | 9 -> cnt0.stop
                        loop: 1 -> cnt0.tinc
                        !cnt0.done @loop -> nc0.pc
                        cnt0.r -> regs0.r0
";

    fn load(text: &str) -> Processor {
        let mut prog = asm::parse(text).unwrap();
        prog.resolve_labels().unwrap();
        Processor::new(MachineConfig::new(3), prog).unwrap()
    }

    #[test]
    fn injected_stalls_cost_cycles_but_not_correctness() {
        let mut clean = load(LOOP);
        let clean_stats = clean.run(1_000).unwrap();
        let mut faulty = load(LOOP);
        let plan = Some(PeriodicStall::new(4, 1));
        let faulty_stats = faulty.run_with(1_000, &mut NullTracer, plan).unwrap();
        assert_eq!(clean.reg(0), faulty.reg(0)); // same architectural result
        assert!(faulty_stats.injected_stall_cycles > 0);
        assert_eq!(clean_stats.injected_stall_cycles, 0);
        assert_eq!(faulty_stats.cycles, clean_stats.cycles + faulty_stats.injected_stall_cycles);
        assert_eq!(faulty_stats.moves_executed, clean_stats.moves_executed);
    }

    #[test]
    fn periodic_stall_always_makes_progress() {
        let mut p = load(LOOP);
        // len >= every would freeze forever; the clamp must prevent that.
        let plan = Some(PeriodicStall::new(3, 99));
        p.run_with(10_000, &mut NullTracer, plan).unwrap();
        assert!(p.halted);
    }

    #[test]
    fn fault_spans_are_balanced_in_the_trace() {
        let mut p = load(LOOP);
        let plan = Some(PeriodicStall::new(5, 2));
        let mut ring = RingTracer::new(4096);
        let stats = p.run_with(1_000, &mut ring, plan).unwrap();
        let begins = ring
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::FaultStallBegin { .. }))
            .count();
        let ends =
            ring.events().iter().filter(|e| matches!(e, TraceEvent::FaultStallEnd { .. })).count();
        assert!(begins > 0);
        // Every opened span closes: the program outlives each 2-cycle stall.
        assert_eq!(begins, ends);
        assert!(stats.injected_stall_cycles >= 2 * begins as u64 - 1);
    }

    #[test]
    fn fault_replay_is_deterministic() {
        let run = || {
            let mut p = load(LOOP);
            let plan = Some(PeriodicStall::new(7, 3));
            let stats = p.run_with(1_000, &mut NullTracer, plan).unwrap();
            (stats, p.reg(0))
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod event_trace_tests {
    use super::*;
    use crate::trace::{RingTracer, TraceCounters, TraceEvent};
    use taco_isa::asm;

    /// The counters of `stats` an event stream determines.
    fn counted_by_the_loop(stats: &SimStats) -> TraceCounters {
        TraceCounters {
            moves_executed: stats.moves_executed,
            moves_squashed: stats.moves_squashed,
            stall_cycles: stats.stall_cycles,
            injected_stall_cycles: stats.injected_stall_cycles,
            fu_instance_triggers: stats.fu_instance_triggers.clone(),
        }
    }

    fn load(text: &str, config: MachineConfig) -> Processor {
        let mut prog = asm::parse(text).unwrap();
        prog.resolve_labels().unwrap();
        Processor::new(config, prog).unwrap()
    }

    #[test]
    fn ring_replay_reconciles_with_stats() {
        use crate::rtu::{MapRtu, RtuResult};
        let mut backend = MapRtu::new();
        backend.insert([1, 2, 3, 4], RtuResult { iface: 9, handle: 1 });
        let mut p = load(
            "1 -> rtu0.k0 | ?rtu0.hit 1 -> regs0.r1\n\
             2 -> rtu0.k1\n3 -> rtu0.k2\n4 -> rtu0.t\nrtu0.iface -> regs0.r0\n",
            MachineConfig::new(2),
        );
        p.set_rtu(RtuConfig::new(Box::new(backend)).with_latency(5));
        let mut ring = RingTracer::new(4096);
        let stats = p.run_with(100, &mut ring, None).unwrap();
        assert!(ring.is_complete());
        assert!(stats.stall_cycles > 0);
        assert!(stats.moves_squashed > 0);
        let replayed = TraceCounters::from_events(ring.events());
        assert_eq!(replayed, counted_by_the_loop(&stats));
    }

    #[test]
    fn datagram_events_bracket_ppu_flow() {
        let mut p = load(
            "0 -> ippu0.tpop\nippu0.iface -> oppu0.iface\nippu0.ptr -> oppu0.t\n",
            MachineConfig::new(1),
        );
        p.push_input(0x100, 2);
        let mut ring = RingTracer::new(64);
        p.run_with(10, &mut ring, None).unwrap();
        let begins: Vec<_> = ring
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::DatagramBegin { .. }))
            .collect();
        let ends: Vec<_> =
            ring.events().iter().filter(|e| matches!(e, TraceEvent::DatagramEnd { .. })).collect();
        assert_eq!(begins.len(), 1);
        assert_eq!(ends.len(), 1);
        assert!(matches!(begins[0], TraceEvent::DatagramBegin { ptr: 0x100, iface: 2, .. }));
        assert!(matches!(ends[0], TraceEvent::DatagramEnd { ptr: 0x100, iface: 2, .. }));
        assert!(begins[0].cycle() < ends[0].cycle());
    }

    #[test]
    fn traced_and_untraced_runs_agree_exactly() {
        let text = "0 -> cnt0.tset | 9 -> cnt0.stop
                    loop: 1 -> cnt0.tinc | cnt0.r -> regs0.r1
                    !cnt0.done @loop -> nc0.pc
                    cnt0.r -> regs0.r0
";
        let mut plain = load(text, MachineConfig::new(3));
        let plain_stats = plain.run(1_000).unwrap();
        let mut traced = load(text, MachineConfig::new(3));
        let mut ring = RingTracer::new(4096);
        let traced_stats = traced.run_with(1_000, &mut ring, None).unwrap();
        assert_eq!(plain_stats, traced_stats);
        assert_eq!(plain.reg(0), traced.reg(0));
        assert_eq!(TraceCounters::from_events(ring.events()), counted_by_the_loop(&traced_stats));
    }
}
