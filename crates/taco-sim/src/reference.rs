//! The reference interpreter: the executable specification the decoded
//! schedule is checked against.
//!
//! [`Processor::run_reference`] executes the instruction words themselves,
//! one per cycle, resolving every port and guard through the
//! [`PortMap`](crate::units::PortMap) as it goes — none of
//! [`sched::decode`](crate::sched)'s work is reused, which is what makes it
//! an oracle for the decoder and for [`Processor::run_with`]'s loop.  What
//! it does share is the layout and [`Ports::apply`](crate::units::Ports):
//! one port file, one copy of each FU's behaviour, so the two forms cannot
//! disagree about what a matcher does, only about which moves reach it.
//! It is not a mode: nothing in the
//! workspace outside tests calls it, and no option selects it.
//! `tests/step_reference.rs` (root package) drives both forms over real
//! microcode and hand-written programs and demands equal statistics, event
//! streams and machine state, so the tracer and stall parameters stay —
//! event order and stall accounting are what it checks.

use std::sync::Arc;

use taco_isa::{FuKind, Instruction, PortRef, Source};

use super::{PeriodicStall, Processor};
use crate::error::SimError;
use crate::sched::CompiledProgram;
use crate::stats::SimStats;
use crate::trace::{TraceEvent, Tracer};

impl Processor {
    /// Runs until the program halts by interpreting instruction words —
    /// the oracle for [`Processor::run_with`], same contract, same errors.
    ///
    /// # Errors
    ///
    /// See [`Processor::run`].
    pub fn run_reference<T: Tracer + ?Sized>(
        &mut self,
        budget: u64,
        tracer: &mut T,
        stalls: Option<PeriodicStall>,
    ) -> Result<SimStats, SimError> {
        let compiled = Arc::clone(&self.compiled);
        let program = &compiled.program;
        let start = self.cycle;
        // One word's passing moves, reused by every word of the run.
        let mut writes = Vec::new();
        while !self.halted {
            if self.cycle - start >= budget {
                return Err(SimError::Watchdog { budget });
            }
            match program.instructions.get(self.pc) {
                Some(ins) => self.reference_cycle(&compiled, ins, &mut writes, tracer, stalls)?,
                None => self.halted = true,
            }
        }
        Ok(self.stats.clone())
    }

    /// One cycle: a stolen or stalled beat, or one instruction word, whose
    /// passing moves collect in `writes`.
    fn reference_cycle<T: Tracer + ?Sized>(
        &mut self,
        compiled: &CompiledProgram,
        ins: &Instruction,
        writes: &mut Vec<(PortRef, u32)>,
        tracer: &mut T,
        stalls: Option<PeriodicStall>,
    ) -> Result<(), SimError> {
        if let Some(stalls) = stalls {
            if stalls.steals(self.cycle) {
                if !self.fault_open {
                    self.fault_open = true;
                    tracer.event(&TraceEvent::FaultStallBegin { cycle: self.cycle });
                }
                self.cycle += 1;
                self.stats.cycles += 1;
                self.stats.injected_stall_cycles += 1;
                return Ok(());
            }
            if self.fault_open {
                self.fault_open = false;
                tracer.event(&TraceEvent::FaultStallEnd { cycle: self.cycle });
            }
        }

        if self.must_stall(ins) {
            if !self.stall_open {
                self.stall_open = true;
                tracer.event(&TraceEvent::StallBegin { cycle: self.cycle });
            }
            self.cycle += 1;
            self.stats.cycles += 1;
            self.stats.stall_cycles += 1;
            return Ok(());
        }
        if self.stall_open {
            self.stall_open = false;
            tracer.event(&TraceEvent::StallEnd { cycle: self.cycle });
        }

        // --- read phase ---------------------------------------------------
        tracer.issued(self.pc);
        writes.clear();
        for (bus, mv) in ins.slots.iter().enumerate().filter_map(|(b, s)| Some((b, s.as_ref()?))) {
            let pass = match &mv.guard {
                None => true,
                Some(g) => self.guards[compiled.map.guard(g.fu, g.signal)?] != g.negate,
            };
            if !pass {
                self.stats.moves_squashed += 1;
                tracer.event(&TraceEvent::MoveSquashed {
                    cycle: self.cycle,
                    bus: bus as u8,
                    pc: self.pc as u32,
                });
                continue;
            }
            let value = match &mv.src {
                Source::Imm(v) => *v,
                Source::Port(p) => self.file[compiled.map.port(*p)?.1],
                Source::Label(l) => return Err(SimError::UnresolvedLabel(l.clone())),
            };
            self.stats.moves_executed += 1;
            tracer.event(&TraceEvent::MoveExecuted {
                cycle: self.cycle,
                bus: bus as u8,
                pc: self.pc as u32,
            });
            writes.push((mv.dst, value));
        }

        // Conflict detection.
        for (i, &(dst, _)) in writes.iter().enumerate() {
            if writes[..i].iter().any(|e| e.0 == dst) {
                return Err(if dst.fu.kind == FuKind::Nc {
                    SimError::DoublePcWrite { cycle: self.cycle }
                } else {
                    SimError::PortConflict { port: dst, cycle: self.cycle }
                });
            }
        }

        // --- write phase: operands and registers first, then triggers -----
        let mut jump: Option<u32> = None;
        let cycle = self.cycle;
        for &(dst, value) in writes.iter().filter(|w| !w.0.is_trigger()) {
            let (op, slot, gbase) = compiled.map.port(dst)?;
            self.ports().store(op, slot, gbase, value);
        }
        for &(dst, value) in writes.iter().filter(|w| w.0.is_trigger()) {
            if dst.fu.kind == FuKind::Nc {
                jump = Some(value);
            } else {
                tracer.event(&TraceEvent::FuTriggered { cycle, fu: dst.fu });
                self.stats.fu_instance_triggers.add(dst.fu, 1);
                let (op, base, gbase) = compiled.map.port(dst)?;
                self.ports().apply(op, base, gbase, value, cycle, tracer)?;
                // Results become architecturally visible the next cycle —
                // except RTU lookups, which retire when the interlock opens.
                let retire = if dst.fu.kind == FuKind::Rtu {
                    self.rtu.ready_at.max(cycle + 1)
                } else {
                    cycle + 1
                };
                tracer.event(&TraceEvent::FuRetired { cycle: retire, fu: dst.fu });
            }
        }

        // --- PC update -----------------------------------------------------
        let len = compiled.program.instructions.len();
        self.cycle += 1;
        self.stats.cycles += 1;
        match jump {
            Some(t) if (t as usize) < len => self.pc = t as usize,
            Some(t) if t as usize == len => self.halted = true,
            Some(t) => return Err(SimError::JumpOutOfRange { target: t, len }),
            None => {
                self.pc += 1;
                if self.pc >= len {
                    self.halted = true;
                }
            }
        }
        Ok(())
    }

    /// Returns `true` if the instruction must stall for the RTU this cycle.
    fn must_stall(&self, ins: &Instruction) -> bool {
        if self.cycle >= self.rtu.ready_at {
            return false;
        }
        ins.moves().any(|m| {
            let reads_rtu = matches!(&m.src, Source::Port(p) if p.fu.kind == FuKind::Rtu);
            let guards_rtu = m.guard.as_ref().is_some_and(|g| g.fu.kind == FuKind::Rtu);
            reads_rtu || guards_rtu
        })
    }
}
