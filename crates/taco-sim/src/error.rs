//! Simulation error types.

use std::error::Error;
use std::fmt;

use taco_isa::{FuRef, PortRef};

/// Error raised while constructing or running a simulation.
///
/// Construction errors ([`SimError::InvalidFuIndex`],
/// [`SimError::TooManySlots`], [`SimError::UnresolvedLabel`]) mean the
/// program does not fit the configured architecture; runtime errors mean the
/// program misbehaved.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The program references an FU instance the configuration lacks.
    InvalidFuIndex {
        /// The offending reference.
        fu: FuRef,
        /// How many instances the configuration provides.
        available: u8,
    },
    /// An instruction carries more slots than the machine has buses.
    TooManySlots {
        /// Index of the offending instruction.
        instruction: usize,
        /// Slots in the instruction.
        slots: usize,
        /// Buses in the configuration.
        buses: u8,
    },
    /// A move still carries a label source; call
    /// [`Program::resolve_labels`](taco_isa::Program::resolve_labels) first.
    UnresolvedLabel(String),
    /// A move references a port its FU does not expose, or uses it against
    /// its direction (reading a trigger, writing a result) — malformed
    /// microcode that bypassed the assembler's checks.
    InvalidPort {
        /// The offending reference.
        port: PortRef,
        /// What was wrong with it.
        why: &'static str,
    },
    /// A guarded move names a guard signal its FU does not drive.
    InvalidGuard {
        /// The FU the guard samples.
        fu: FuRef,
        /// The out-of-range index into the kind's guard signals.
        signal: u8,
    },
    /// A memory access fell outside data memory.
    MemoryOutOfBounds {
        /// Word address of the access.
        addr: u32,
        /// Memory size in words.
        size: u32,
    },
    /// The routing table has more routes than the CAM behind the Routing
    /// Table Unit has rows.
    TableFull {
        /// Rows the CAM provides.
        capacity: usize,
    },
    /// Two moves wrote the same port in the same cycle.
    PortConflict {
        /// The doubly written port.
        port: PortRef,
        /// Cycle at which it happened.
        cycle: u64,
    },
    /// Two moves wrote the program counter in the same cycle.
    DoublePcWrite {
        /// Cycle at which it happened.
        cycle: u64,
    },
    /// A jump targeted an instruction index past the end of the program
    /// (other than exactly `len`, which halts).
    JumpOutOfRange {
        /// The target.
        target: u32,
        /// Program length.
        len: usize,
    },
    /// The cycle budget was exhausted before the program halted.
    Watchdog {
        /// The exhausted budget.
        budget: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidFuIndex { fu, available } => {
                write!(f, "program references {fu} but only {available} instance(s) exist")
            }
            SimError::TooManySlots { instruction, slots, buses } => write!(
                f,
                "instruction {instruction} carries {slots} moves but the machine has {buses} bus(es)"
            ),
            SimError::UnresolvedLabel(l) => write!(f, "unresolved label {l:?}"),
            SimError::InvalidPort { port, why } => write!(f, "invalid port reference {port}: {why}"),
            SimError::InvalidGuard { fu, signal } => {
                write!(f, "{fu} drives no guard signal #{signal}")
            }
            SimError::MemoryOutOfBounds { addr, size } => {
                write!(f, "memory access at word {addr:#x} outside {size:#x}-word memory")
            }
            SimError::TableFull { capacity } => {
                write!(f, "routing table does not fit: CAM holds {capacity} rows")
            }
            SimError::PortConflict { port, cycle } => {
                write!(f, "two moves wrote {port} in cycle {cycle}")
            }
            SimError::DoublePcWrite { cycle } => {
                write!(f, "two moves wrote the program counter in cycle {cycle}")
            }
            SimError::JumpOutOfRange { target, len } => {
                write!(f, "jump to {target} outside program of {len} instructions")
            }
            SimError::Watchdog { budget } => {
                write!(f, "program did not halt within {budget} cycles")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_isa::FuKind;

    #[test]
    fn display_variants() {
        let e = SimError::InvalidFuIndex { fu: FuRef::new(FuKind::Matcher, 2), available: 1 };
        assert!(e.to_string().contains("mtch2"));
        let e = SimError::Watchdog { budget: 100 };
        assert!(e.to_string().contains("100"));
        let e = SimError::TableFull { capacity: 8192 };
        assert!(e.to_string().contains("CAM holds 8192 rows"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
