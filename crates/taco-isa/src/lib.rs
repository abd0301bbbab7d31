#![warn(missing_docs)]

//! The TACO transport-triggered architecture: ISA, assembler and optimizer.
//!
//! A TACO processor (Virtanen et al.) is a TTA: "instructions only specify
//! data moves between functional units … the instruction word of any TTA
//! processor consists mostly of source and destination addresses.  The
//! maximum number of instructions (i.e. data transports) that can be carried
//! out in one clock cycle is equal to the number of data buses in the
//! interconnection network."
//!
//! This crate defines everything *static* about such a processor:
//!
//! * [`FuKind`] / [`FuRef`] — the functional-unit catalogue (Matcher,
//!   Comparator, Counter, Checksum, Shifter, Masker, MMU, Routing Table
//!   Unit, Local Info Unit, iPPU, oPPU, registers, network controller) with
//!   their operand/trigger/result ports and guard signals;
//! * [`MachineConfig`] — an architecture instance: bus count plus FU
//!   instance counts (the paper's `1BUS/1FU`, `3BUS/1FU`,
//!   `3bus/3CNT,3CMP,3M` rows);
//! * [`Move`], [`Instruction`], [`Program`], [`MoveSeq`] — code;
//! * [`asm`] — a round-tripping textual assembly format;
//! * [`CodeBuilder`] — programmatic code generation with virtual FU
//!   instances;
//! * [`optimize`] + [`schedule`] — the paper's Fig. 3 pipeline: bypassing
//!   and dead-move elimination followed by list scheduling onto the buses
//!   and physical FUs of a concrete configuration.
//!
//! The dynamic side — actually executing programs cycle by cycle — lives in
//! the `taco-sim` crate.
//!
//! # Examples
//!
//! The paper's Fig. 3 expression `a = (b*2 + c)/4`, generated, optimized and
//! scheduled for one and three buses:
//!
//! ```
//! use taco_isa::{schedule, CodeBuilder, FuKind, MachineConfig};
//!
//! let mut b = CodeBuilder::new();
//! let shl = b.alloc(FuKind::Shifter);
//! let add = b.alloc(FuKind::Counter);
//! b.mv(1u32, shl.port("amount"));
//! b.mv(b.reg(0), shl.port("tshl"));      // b * 2
//! b.mv(shl.port("r"), add.port("tset"));
//! b.mv(b.reg(1), add.port("tadd"));      // + c
//! b.mv(2u32, shl.port("amount"));
//! b.mv(add.port("r"), shl.port("tshr")); // / 4
//! b.mv(shl.port("r"), b.reg(2));         // a
//! let seq = b.finish();
//!
//! let narrow = schedule(&seq, &MachineConfig::one_bus_one_fu());
//! let wide = schedule(&seq, &MachineConfig::three_bus_one_fu());
//! assert!(wide.instructions.len() < narrow.instructions.len());
//! ```

pub mod asm;
pub mod builder;
pub mod encode;
pub mod fu;
pub mod machine;
pub mod opt;
pub mod program;
pub mod sched;
pub mod system;
pub mod verify;

pub use builder::{CodeBuilder, FuHandle};
pub use encode::{decode, encode, CodeError, EncodedProgram, SlotLayout, SocketMap};
pub use fu::{FuKind, FuRef, PortDir, PortSpec};
pub use machine::MachineConfig;
pub use opt::{optimize, optimize_with};
pub use program::{Guard, Instruction, Move, MoveSeq, PortRef, Program, Source};
pub use sched::schedule;
pub use system::{SystemConfig, Topology};
pub use verify::{validate_schedule, ScheduleViolation};
