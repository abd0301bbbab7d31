#![warn(missing_docs)]

//! Cycle-accurate simulator for TACO transport-triggered protocol
//! processors.
//!
//! This crate is the Rust equivalent of the paper's SystemC simulation
//! model: it executes a scheduled TTA [`Program`](taco_isa::Program) on an
//! architecture instance ([`MachineConfig`](taco_isa::MachineConfig)) and
//! reports "functional correctness information as well as the total cycle
//! count of the application running on the particular architecture
//! instance" — plus the bus-utilisation figures of the paper's Table 1.
//!
//! * [`Processor`] — the machine: interconnection network controller with
//!   guard bits, data buses, the FU library of Fig. 2 (Matcher, Comparator,
//!   Counter, Checksum, Shifter, Masker, MMU, Routing Table Unit, Local
//!   Info Unit, iPPU, oPPU, register file) and word-addressed data memory;
//! * [`DataMemory`] — the main memory datagrams are copied into;
//! * [`rtu`] — the pluggable Routing Table Unit backend (the CAM model
//!   plugs in here);
//! * [`SimStats`] — cycle counts, stall counts, per-FU trigger counts and
//!   dynamic bus utilisation.
//!
//! # Examples
//!
//! ```
//! use taco_isa::{asm, MachineConfig};
//! use taco_sim::Processor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Sum 10+20+30 with the Counter FU.
//! let mut prog = asm::parse(
//!     "0 -> cnt0.tset\n\
//!      10 -> cnt0.tadd\n\
//!      20 -> cnt0.tadd\n\
//!      30 -> cnt0.tadd\n\
//!      cnt0.r -> regs0.r0\n",
//! )?;
//! prog.resolve_labels().map_err(|l| format!("undefined label {l}"))?;
//! let mut cpu = Processor::new(MachineConfig::one_bus_one_fu(), prog)?;
//! cpu.run(100)?;
//! assert_eq!(cpu.reg(0), 60);
//! # Ok(())
//! # }
//! ```

pub mod coherence;
pub mod error;
pub mod memory;
pub mod multicore;
pub mod processor;
pub mod rtu;
mod sched;
pub mod stats;
pub mod trace;
mod units;

pub use coherence::{CoherenceStats, LineState};
pub use error::SimError;
pub use memory::DataMemory;
pub use multicore::MulticoreSim;
pub use processor::{FaultInjector, NoFaults, PeriodicStall, Processor, DEFAULT_MEMORY_WORDS};
pub use rtu::{MapRtu, NullRtu, RtuBackend, RtuConfig, RtuResult};
pub use sched::CompiledProgram;
pub use stats::SimStats;
pub use trace::{ChromeTracer, NullTracer, RingTracer, TraceCounters, TraceEvent, Tracer};
