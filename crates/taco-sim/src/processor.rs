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

use taco_isa::{FuKind, FuRef, Guard, MachineConfig, PortRef, Program};

use crate::error::SimError;
use crate::memory::DataMemory;
use crate::rtu::RtuConfig;
use crate::sched::{CompiledProgram, DMove, IMM};
use crate::stats::SimStats;
use crate::trace::{NullTracer, TraceEvent, Tracer};
use crate::units::{Op, Ports, RtuState};

// A child module, so the reference interpreter sees the same private
// machine state as the loop it checks and nothing else in the crate does.
#[path = "reference.rs"]
mod reference;

/// Decides, cycle by cycle, whether a transient hardware fault steals the
/// cycle — modelling bus glitches or FU brown-outs that freeze the
/// interconnection network for a beat without corrupting state.
///
/// The injector is consulted *before* the instruction issues; a stolen
/// cycle behaves exactly like an RTU interlock stall (PC and architectural
/// state untouched) but is accounted separately in
/// [`SimStats::injected_stall_cycles`](crate::SimStats).  Injectors must be
/// deterministic functions of the cycle number for replays to reproduce.
pub trait FaultInjector {
    /// Cheap gate the hot loop checks first; [`NoFaults`] returns `false`
    /// so the entire fault path folds away.
    fn active(&self) -> bool {
        true
    }

    /// Returns `true` if the fault steals `cycle`.
    fn steals_cycle(&mut self, cycle: u64) -> bool;
}

/// The no-fault injector: never steals a cycle.  Monomorphising the step
/// loop with this (as [`Processor::run`] does) keeps
/// the fault-free path as fast as before the fault subsystem existed —
/// the same discipline [`NullTracer`] applies to tracing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    #[inline(always)]
    fn active(&self) -> bool {
        false
    }

    #[inline(always)]
    fn steals_cycle(&mut self, _cycle: u64) -> bool {
        false
    }
}

/// A deterministic periodic stall: steals the first `len` cycles of every
/// `every`-cycle window.  `len` is clamped below `every` so the processor
/// always makes forward progress.
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
}

impl FaultInjector for PeriodicStall {
    fn steals_cycle(&mut self, cycle: u64) -> bool {
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
///              !cnt0.done @loop -> nc0.pc\n",
/// )?;
/// prog.resolve_labels().map_err(|l| format!("undefined label {l}"))?;
/// let mut cpu = Processor::new(MachineConfig::three_bus_one_fu(), prog)?;
/// let stats = cpu.run(1_000)?;
/// assert_eq!(cpu.fu_result(taco_isa::FuKind::Counter, 0, "r")?, 5);
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
    liu_table: Vec<u32>,
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
        Self::with_memory(config, program, DEFAULT_MEMORY_WORDS)
    }

    /// Like [`Processor::new`] with an explicit memory size in words.
    ///
    /// # Errors
    ///
    /// See [`Processor::new`].
    pub fn with_memory(
        config: MachineConfig,
        program: Program,
        memory_words: u32,
    ) -> Result<Self, SimError> {
        let compiled = CompiledProgram::compile(config, Arc::new(program))?;
        Ok(Self::instantiate(compiled, memory_words))
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
        Ok(Self::instantiate(compiled, DEFAULT_MEMORY_WORDS))
    }

    /// A powered-on processor executing `compiled`, with `memory_words` of
    /// zeroed data memory, an always-missing RTU and an empty LIU.
    pub fn instantiate(compiled: Arc<CompiledProgram>, memory_words: u32) -> Self {
        Self::power_on(compiled, DataMemory::new(memory_words), RtuConfig::default(), Vec::new())
    }

    /// Returns the machine to its power-on state — PC, cycle count,
    /// registers, FU state, iPPU queue, oPPU output and statistics — while
    /// keeping what was *loaded into* it: the program, the data-memory
    /// contents, the RTU backend and latency, and the local-info table.
    pub fn reset(&mut self) {
        let mem = std::mem::replace(&mut self.mem, DataMemory::new(0));
        let rtu = std::mem::take(&mut self.rtu.config);
        let liu_table = std::mem::take(&mut self.liu_table);
        *self = Self::power_on(Arc::clone(&self.compiled), mem, rtu, liu_table);
    }

    /// The one place a `Processor` is assembled: [`Processor::instantiate`]
    /// and [`Processor::reset`] both come through here, so a field added
    /// later cannot be initialised by one and forgotten by the other.
    fn power_on(
        compiled: Arc<CompiledProgram>,
        mem: DataMemory,
        rtu: RtuConfig,
        liu_table: Vec<u32>,
    ) -> Self {
        let (file, guards) = compiled.map.power_on(compiled.decoded.scratch);
        Processor {
            trigger_counts: vec![0; compiled.decoded.trigger_fus.len()],
            pc: 0,
            halted: false,
            cycle: 0,
            file,
            guards,
            mem,
            rtu: RtuState { ready_at: 0, config: rtu },
            ippu_queue: VecDeque::new(),
            oppu_out: Vec::new(),
            liu_table,
            stats: SimStats { buses: compiled.config.buses(), ..SimStats::default() },
            stall_open: false,
            fault_open: false,
            compiled,
        }
    }

    /// The architecture this processor instantiates.
    pub fn config(&self) -> &MachineConfig {
        &self.compiled.config
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        &self.compiled.program
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

    /// Changes the installed RTU's search latency, keeping its backend.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero.
    pub fn set_rtu_latency(&mut self, latency: u32) {
        assert!(latency >= 1, "rtu latency must be at least one cycle");
        self.rtu.config.latency = latency;
    }

    /// Sets the Local Information Unit contents (the router's own
    /// addresses, port count, …).
    pub fn set_local_info(&mut self, table: Vec<u32>) {
        self.liu_table = table;
    }

    /// Queues a pending datagram `(memory pointer, input interface)` at the
    /// iPPU, as a line card would.
    pub fn push_input(&mut self, ptr: u32, iface: u32) {
        self.ippu_queue.push_back((ptr, iface));
        let ippu = FuRef::new(FuKind::Ippu, 0);
        let pending = self.compiled.map.fu(ippu).expect("every machine has one iPPU").1;
        self.guards[pending] = true;
    }

    /// Number of datagrams still waiting at the iPPU.
    pub fn pending_inputs(&self) -> usize {
        self.ippu_queue.len()
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

    /// Reads an FU result register by kind/instance/port, for assertions.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFuIndex`] for instances the configuration
    /// lacks.
    ///
    /// # Panics
    ///
    /// Panics if `kind` has no port called `port`.
    pub fn fu_result(&self, kind: FuKind, index: u8, port: &str) -> Result<u32, SimError> {
        Ok(self.file[self.compiled.map.port(PortRef::new(kind, index, port))?.1])
    }

    /// Samples a guard signal, for assertions; `false` for an instance the
    /// configuration lacks.
    ///
    /// # Panics
    ///
    /// Panics if `kind` drives no guard signal called `signal`.
    pub fn guard_value(&self, kind: FuKind, index: u8, signal: &str) -> bool {
        let g = Guard::new(kind, index, signal, false);
        self.compiled.map.guard(g.fu, g.signal).is_ok_and(|slot| self.guards[slot])
    }

    /// Elapsed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Current program counter.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Returns `true` once the program has halted.
    pub fn is_halted(&self) -> bool {
        self.halted
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
        self.run_with(budget, &mut NullTracer, &mut NoFaults)
    }

    /// [`Processor::run`] reporting cycle-level events to `tracer`, with
    /// `faults` injecting transient stall cycles (see [`FaultInjector`]).
    /// Generic over both, so [`NullTracer`] and [`NoFaults`] monomorphise
    /// to nothing.
    ///
    /// The flat per-slot trigger counters are folded into the `BTreeMap`
    /// statistics on every exit path, so stats stay complete even when the
    /// run errors out mid-cycle.
    ///
    /// # Errors
    ///
    /// See [`Processor::run`].
    pub fn run_with<T: Tracer + ?Sized, F: FaultInjector + ?Sized>(
        &mut self,
        budget: u64,
        tracer: &mut T,
        faults: &mut F,
    ) -> Result<SimStats, SimError> {
        let result = self.compiled_loop(budget, tracer, faults);
        self.fold_trigger_counts();
        result?;
        Ok(self.stats.clone())
    }

    fn fold_trigger_counts(&mut self) {
        let compiled = Arc::clone(&self.compiled);
        for (slot, fu) in compiled.decoded.trigger_fus.iter().enumerate() {
            let n = std::mem::take(&mut self.trigger_counts[slot]);
            if n > 0 {
                *self.stats.fu_instance_triggers.entry(*fu).or_insert(0) += n;
            }
        }
    }

    /// The machine state a move can touch, as disjoint borrows: what the
    /// step loop and the reference interpreter both execute against.
    pub(crate) fn ports(&mut self) -> Ports<'_> {
        Ports {
            file: &mut self.file,
            guards: &mut self.guards,
            mem: &mut self.mem,
            rtu: &mut self.rtu,
            ippu_queue: &mut self.ippu_queue,
            oppu_out: &mut self.oppu_out,
            liu_table: &self.liu_table,
            trigger_counts: &mut self.trigger_counts,
        }
    }

    /// The compiled step loop: a walk over the flat [`DecodedProgram`]
    /// built at construction.  Replays the reference interpreter
    /// ([`Processor::run_reference`]) cycle for cycle — same stall and
    /// fault bookkeeping, same read/conflict/write timing, same trace
    /// events in the same order — with all decoding already done.
    ///
    /// It dispatches once per *run*: the straight-line instructions from
    /// the PC through the next one that holds a jump
    /// ([`InsMeta::run`](crate::sched::InsMeta::run)).
    /// Halt, deadline and PC-range checks happen once per run; the deadline
    /// clamps the run, so the watchdog fires at the exact cycle; an
    /// instruction that must stall for the RTU, or a cycle the injector
    /// steals, ends the run there and the next pass of the outer loop
    /// accounts it.  The cycle, PC, halt and stall flags and the move
    /// counters live in locals while it runs and are folded into `self`
    /// once, on every exit path.
    fn compiled_loop<T: Tracer + ?Sized, F: FaultInjector + ?Sized>(
        &mut self,
        budget: u64,
        tracer: &mut T,
        faults: &mut F,
    ) -> Result<(), SimError> {
        let compiled = Arc::clone(&self.compiled);
        let ins = &compiled.decoded.ins[..];
        let len = ins.len();
        let start = self.cycle;
        let deadline = start.saturating_add(budget);
        let (mut cycle, mut pc, mut halted) = (self.cycle, self.pc, self.halted);
        let (mut stall_open, mut fault_open) = (self.stall_open, self.fault_open);
        let (mut stalled, mut stolen) = (0u64, 0u64);
        // Every move of every instruction issued, and those whose guard
        // failed.
        let (mut issued, mut squashed) = (0u64, 0u64);
        let mut ports = self.ports();

        let result = 'runs: loop {
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
            if faults.active() {
                if faults.steals_cycle(cycle) {
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
            if ins[pc].rtu_sensitive && cycle < ports.rtu.ready_at {
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

            // --- one run: instructions pc..=last -------------------------
            let last = pc + (u64::from(ins[pc].run).min(deadline - cycle) as usize) - 1;
            loop {
                issued += u64::from(ins[pc].end - ins[pc].start);
                let jump =
                    match instruction(&mut ports, &compiled, pc, cycle, &mut squashed, tracer) {
                        Ok(jump) => jump,
                        Err(e) => break 'runs Err(e),
                    };
                cycle += 1;
                if pc == last {
                    // --- PC update ---------------------------------------
                    match jump {
                        None => {
                            pc += 1;
                            halted = pc >= len;
                        }
                        Some(t) if (t as usize) < len => pc = t as usize,
                        Some(t) if t as usize == len => halted = true,
                        Some(t) => break 'runs Err(SimError::JumpOutOfRange { target: t, len }),
                    }
                    continue 'runs;
                }
                pc += 1;
                // Mid-run, no span is open: the outer loop closed both.
                if faults.active() && faults.steals_cycle(cycle) {
                    fault_open = true;
                    tracer.event(&TraceEvent::FaultStallBegin { cycle });
                    cycle += 1;
                    stolen += 1;
                    continue 'runs;
                }
                if ins[pc].rtu_sensitive && cycle < ports.rtu.ready_at {
                    continue 'runs;
                }
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
        result
    }
}

/// One instruction word: early reads, then its moves in the execution
/// order [`crate::sched`] stored them in — guarded stores, copies,
/// immediates, triggers in bus order, the jump — each reading and writing
/// in turn.  Returns the target a passing move into `nc0.pc` delivered, if
/// any.  On an error `squashed` counts every move of the word, as if all
/// had been read at the start of the cycle.
#[inline(always)]
fn instruction<T: Tracer + ?Sized>(
    ports: &mut Ports<'_>,
    compiled: &CompiledProgram,
    pc: usize,
    cycle: u64,
    squashed: &mut u64,
    tracer: &mut T,
) -> Result<Option<u32>, SimError> {
    let decoded = &compiled.decoded;
    let meta = &decoded.ins[pc];
    let moves = &decoded.moves[meta.start as usize..meta.end as usize];
    if meta.early_words | meta.early_guards != 0 {
        let early = &decoded.early[meta.early as usize..];
        let (words, guards) = early.split_at(usize::from(meta.early_words));
        for &(from, to) in words {
            ports.file[usize::from(to)] = ports.file[usize::from(from)];
        }
        for &(from, to) in &guards[..usize::from(meta.early_guards)] {
            ports.guards[usize::from(to)] = ports.guards[usize::from(from)];
        }
    }
    if tracer.enabled() {
        read_events(moves, ports.guards, cycle, pc, tracer);
    }
    // Only instructions with statically aliased destinations can conflict
    // dynamically, so the scan is skipped for the (vast) conflict-free
    // majority.
    if meta.may_conflict {
        if let Err(e) = conflict(compiled, moves, ports.guards, cycle, pc) {
            *squashed += count_squashed(moves, ports.guards);
            return Err(e);
        }
    }

    let mut jump = None;
    for (i, mv) in moves.iter().enumerate() {
        let (dst, gbase) = (usize::from(mv.dst), usize::from(mv.gbase));
        match mv.op {
            Op::Copy => ports.file[dst] = ports.file[usize::from(mv.src)],
            Op::Imm => ports.file[dst] = mv.imm,
            _ if ports.guards[usize::from(mv.guard)] == mv.negate => *squashed += 1,
            op @ (Op::Store | Op::CounterStop) => {
                ports.store(op, dst, gbase, value(ports.file, mv))
            }
            Op::Jump => jump = Some(value(ports.file, mv)),
            op => {
                let fu = mv.fu;
                tracer.event(&TraceEvent::FuTriggered { cycle, fu });
                if let Err(e) = ports.apply(op, dst, gbase, value(ports.file, mv), cycle, tracer) {
                    // A later move whose guard an earlier one may write
                    // reads an early copy, so the guards still answer as
                    // they stood at the start of the cycle.
                    *squashed += count_squashed(&moves[i + 1..], ports.guards);
                    return Err(e);
                }
                // Results become architecturally visible the next cycle —
                // except RTU lookups, which retire when the interlock opens.
                let retire =
                    if op == Op::Rtu { ports.rtu.ready_at.max(cycle + 1) } else { cycle + 1 };
                tracer.event(&TraceEvent::FuRetired { cycle: retire, fu });
                ports.trigger_counts[usize::from(mv.slot)] += 1;
            }
        }
    }
    Ok(jump)
}

/// What a move carries: its immediate, or the word its source names.
#[inline(always)]
fn value(file: &[u32], mv: &DMove) -> u32 {
    if mv.src == IMM {
        mv.imm
    } else {
        file[usize::from(mv.src)]
    }
}

/// The read-phase events of one word, in bus order, from the guards at the
/// start of the cycle — before any move of the word has written.
fn read_events<T: Tracer + ?Sized>(
    moves: &[DMove],
    guards: &[bool],
    cycle: u64,
    pc: usize,
    tracer: &mut T,
) {
    let (mut next, pc) = (0, pc as u32);
    for _ in moves {
        let mv = moves
            .iter()
            .filter(|m| u16::from(m.bus) >= next)
            .min_by_key(|m| m.bus)
            .expect("one move per occupied bus");
        let bus = mv.bus;
        tracer.event(&if guards[usize::from(mv.guard)] != mv.negate {
            TraceEvent::MoveExecuted { cycle, bus, pc }
        } else {
            TraceEvent::MoveSquashed { cycle, bus, pc }
        });
        next = u16::from(bus) + 1;
    }
}

/// How many of `moves` fail their guard: what the error paths add to the
/// squash count for moves they did not reach.
#[cold]
#[inline(never)]
fn count_squashed(moves: &[DMove], guards: &[bool]) -> u64 {
    moves.iter().filter(|m| guards[usize::from(m.guard)] == m.negate).count() as u64
}

/// The dynamic conflict scan, out of line: two passing moves of one
/// instruction wrote the same port.  Runs before any move writes, and
/// reports the clash the bus-order scan of the instruction word finds
/// first: the lowest bus whose port a passing move on a lower bus also
/// writes.
#[cold]
#[inline(never)]
fn conflict(
    compiled: &CompiledProgram,
    moves: &[DMove],
    guards: &[bool],
    cycle: u64,
    pc: usize,
) -> Result<(), SimError> {
    let live = |m: &&DMove| guards[usize::from(m.guard)] != m.negate;
    let port = |m: &DMove| (m.op.port_op(), m.dst);
    let clash = moves
        .iter()
        .filter(live)
        .filter(|m| moves.iter().filter(live).any(|e| e.bus < m.bus && port(e) == port(m)))
        .min_by_key(|m| m.bus);
    match clash {
        None => Ok(()),
        Some(mv) if mv.op == Op::Jump => Err(SimError::DoublePcWrite { cycle }),
        Some(mv) => {
            // Recover the original PortRef from the instruction word.
            let port = compiled.program.instructions[pc].slots[usize::from(mv.bus)]
                .as_ref()
                .expect("decoded move maps to an occupied slot")
                .dst;
            Err(SimError::PortConflict { port, cycle })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_isa::{asm, Instruction, Source};

    fn load(text: &str, config: MachineConfig) -> Processor {
        let mut prog = asm::parse(text).unwrap();
        prog.resolve_labels().unwrap();
        Processor::new(config, prog).unwrap()
    }

    #[test]
    fn straight_line_immediates() {
        let mut p = load("7 -> regs0.r0\n9 -> regs0.r1\n", MachineConfig::new(1));
        p.run(10).unwrap();
        assert_eq!((p.reg(0), p.reg(1)), (7, 9));
        assert_eq!(p.cycles(), 2);
        assert!(p.is_halted());
    }

    #[test]
    fn counting_loop_terminates() {
        let mut p = load(
            "0 -> cnt0.tset | 5 -> cnt0.stop\nloop: 1 -> cnt0.tinc\n!cnt0.done @loop -> nc0.pc\n",
            MachineConfig::new(3),
        );
        let stats = p.run(100).unwrap();
        assert_eq!(p.fu_result(FuKind::Counter, 0, "r").unwrap(), 5);
        // 1 setup + 5 × (inc + branch) cycles.
        assert_eq!(stats.cycles, 11);
        assert_eq!(stats.triggers(FuKind::Counter), 6);
    }

    #[test]
    fn result_visible_next_cycle_not_same() {
        // Trigger and read packed into one instruction on different buses:
        // the read sees the *old* result.
        let mut p = load("9 -> cnt0.tset | cnt0.r -> regs0.r0\n", MachineConfig::new(2));
        p.run(10).unwrap();
        assert_eq!(p.reg(0), 0); // old value
        assert_eq!(p.fu_result(FuKind::Counter, 0, "r").unwrap(), 9);
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
        let mut prog = asm::parse("0 -> mmu0.tread\n").unwrap();
        prog.resolve_labels().unwrap();
        let mut p = Processor::with_memory(MachineConfig::new(1), prog, 0).unwrap();
        assert!(matches!(p.run(10), Err(SimError::MemoryOutOfBounds { .. })));
    }

    #[test]
    fn reset_restores_power_on_state_and_keeps_what_was_loaded() {
        use crate::rtu::{MapRtu, RtuResult};
        // Touches every kind of volatile state: registers, a counter, an
        // MMU port, the RTU (with a stall), the LIU, both PPUs, a squash.
        let text = "0 -> ippu0.tpop | 3 -> cnt0.stop\n\
                    ippu0.iface -> oppu0.iface | 1 -> rtu0.k0\n\
                    ippu0.ptr -> oppu0.t | 9 -> rtu0.t\n\
                    rtu0.iface -> regs0.r5 | 1 -> liu0.t\n\
                    liu0.r -> regs0.r6 | 20 -> mmu0.addr\n\
                    regs0.r6 -> mmu0.twrite | ?cnt0.done 1 -> regs0.r7\n";
        let build = || {
            let mut prog = asm::parse(text).unwrap();
            prog.resolve_labels().unwrap();
            let mut cpu = Processor::with_memory(MachineConfig::new(2), prog, 32).unwrap();
            let mut backend = MapRtu::new();
            backend.insert([1, 0, 0, 9], RtuResult { iface: 4, handle: 2 });
            cpu.set_rtu(RtuConfig::new(Box::new(backend)).with_latency(3));
            cpu.set_local_info(vec![0x11, 0x22]);
            cpu.memory_mut().write(7, 0xabcd).unwrap();
            cpu
        };
        let mut used = build();
        used.push_input(0x40, 2);
        used.push_input(0x50, 3); // left pending: the program pops once
        let first = used.run(100).unwrap();
        assert!(first.stall_cycles > 0 && used.reg(5) == 4 && used.reg(6) == 0x22);
        assert_eq!(used.memory().read(20).unwrap(), 0x22);

        used.reset();
        // Data memory is contents, not machine state: the write survives.
        let mut fresh = build();
        fresh.memory_mut().write(20, 0x22).unwrap();
        assert_eq!(format!("{used:?}"), format!("{fresh:?}"), "a field survived reset");

        // ... and the machine runs again exactly as the first time.
        used.push_input(0x40, 2);
        used.push_input(0x50, 3);
        assert_eq!(used.run(100).unwrap(), first);
        assert_eq!(used.outputs(), &[(0x40, 2)]);
    }

    #[test]
    fn ippu_and_oppu_flow() {
        let mut p = load(
            "0 -> ippu0.tpop\nippu0.iface -> oppu0.iface\nippu0.ptr -> oppu0.t\n",
            MachineConfig::new(1),
        );
        p.push_input(0x100, 2);
        assert_eq!(p.pending_inputs(), 1);
        p.run(10).unwrap();
        assert_eq!(p.outputs(), &[(0x100, 2)]);
        assert_eq!(p.pending_inputs(), 0);
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
        assert!(p.guard_value(FuKind::Rtu, 0, "hit"));
        // Trigger at cycle 3 (0-based), ready at 3+5=8; the read would have
        // been cycle 4, so it stalls 4 cycles.
        assert_eq!(stats.stall_cycles, 4);
    }

    #[test]
    fn rtu_miss_clears_hit() {
        let mut p = load("4 -> rtu0.t\n?rtu0.hit 1 -> regs0.r0\n", MachineConfig::new(1));
        p.run(10).unwrap();
        assert_eq!(p.reg(0), 0);
        assert_eq!(p.fu_result(FuKind::Rtu, 0, "iface").unwrap(), u32::MAX);
    }

    #[test]
    fn liu_serves_local_info() {
        let mut p = load("1 -> liu0.t\nliu0.r -> regs0.r0\n", MachineConfig::new(1));
        p.set_local_info(vec![0x11, 0x22, 0x33]);
        p.run(10).unwrap();
        assert_eq!(p.reg(0), 0x22);
    }

    #[test]
    fn jump_to_len_halts_cleanly() {
        let mut p = load("2 -> nc0.pc\n1 -> regs0.r0\n", MachineConfig::new(1));
        p.run(10).unwrap();
        assert_eq!(p.reg(0), 0); // skipped
        assert!(p.is_halted());
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
        assert_eq!((stats.triggers(FuKind::Checksum), p.reg(0)), (40_001, 0));
    }

    #[test]
    fn power_on_state_matches_the_combinational_reads_it_replaced() {
        let mut p = load("0 -> ippu0.tpop\n", MachineConfig::three_bus_three_fu());
        let pending = |p: &Processor| p.guard_value(FuKind::Ippu, 0, "pending");
        for check in 0..2 {
            for i in 0..3 {
                // 0 == stop and 0 == 0 on a zeroed counter; !0 & 0xffff.
                assert!(p.guard_value(FuKind::Counter, i, "done"), "{check}");
                assert!(p.guard_value(FuKind::Counter, i, "zero"), "{check}");
                assert!(!p.guard_value(FuKind::Matcher, i, "match"), "{check}");
            }
            assert_eq!(p.fu_result(FuKind::Checksum, 0, "r"), Ok(0xffff), "{check}");
            assert!(!pending(&p) && !p.guard_value(FuKind::Rtu, 0, "hit"), "{check}");
            // `pending` follows the queue: two pushes, one pop, a reset.
            p.push_input(0x40, 1);
            p.push_input(0x80, 2);
            assert!(pending(&p));
            p.run(10).unwrap();
            assert!(pending(&p) && p.pending_inputs() == 1);
            p.reset();
        }
        p.push_input(0x40, 1);
        p.run(10).unwrap();
        assert!(!pending(&p));
        assert!(!p.guard_value(FuKind::Counter, 3, "done")); // no such instance
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
            (p.stats().clone(), p.reg(0), p.reg(1), p.pending_inputs())
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
        let mut plan = PeriodicStall::new(4, 1);
        let faulty_stats = faulty.run_with(1_000, &mut NullTracer, &mut plan).unwrap();
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
        let mut plan = PeriodicStall::new(3, 99);
        p.run_with(10_000, &mut NullTracer, &mut plan).unwrap();
        assert!(p.is_halted());
    }

    #[test]
    fn fault_spans_are_balanced_in_the_trace() {
        let mut p = load(LOOP);
        let mut plan = PeriodicStall::new(5, 2);
        let mut ring = RingTracer::new(4096);
        let stats = p.run_with(1_000, &mut ring, &mut plan).unwrap();
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
            let mut plan = PeriodicStall::new(7, 3);
            let stats = p.run_with(1_000, &mut NullTracer, &mut plan).unwrap();
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
        let stats = p.run_with(100, &mut ring, &mut NoFaults).unwrap();
        assert!(ring.is_complete());
        assert!(stats.stall_cycles > 0);
        assert!(stats.moves_squashed > 0);
        let replayed = TraceCounters::from_events(ring.events());
        assert_eq!(replayed, TraceCounters::from_stats(&stats));
    }

    #[test]
    fn datagram_events_bracket_ppu_flow() {
        let mut p = load(
            "0 -> ippu0.tpop\nippu0.iface -> oppu0.iface\nippu0.ptr -> oppu0.t\n",
            MachineConfig::new(1),
        );
        p.push_input(0x100, 2);
        let mut ring = RingTracer::new(64);
        p.run_with(10, &mut ring, &mut NoFaults).unwrap();
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
        let traced_stats = traced.run_with(1_000, &mut ring, &mut NoFaults).unwrap();
        assert_eq!(plain_stats, traced_stats);
        assert_eq!(plain.reg(0), traced.reg(0));
        assert_eq!(
            TraceCounters::from_events(ring.events()),
            TraceCounters::from_stats(&traced_stats)
        );
    }
}
