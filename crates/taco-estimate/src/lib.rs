#![warn(missing_docs)]

//! System-level physical estimation for TACO processors.
//!
//! The paper pairs its SystemC simulations with "a model for estimating
//! physical parameters (e.g. processor area and power consumption) at the
//! system level written in Matlab" (Nurmi et al.).  This crate is that
//! model's Rust equivalent: given an architecture instance
//! ([`MachineConfig`](taco_isa::MachineConfig)) and a target clock
//! frequency, it reports estimated silicon area, average power and — above
//! the technology's ceiling — infeasibility (the "NA" cells of Table 1).
//!
//! The model is first-order by design: per-module gate budgets
//! (`gates.rs`), a standard-cell [`Technology`] profile (default: the
//! paper's 0.18 µm node with its ~1 GHz ceiling), a gate-sizing factor that
//! diverges as the clock approaches the ceiling, and the textbook dynamic
//! power relation `P = α·C·V²·f`.  All constants are calibration
//! parameters, documented where they are defined.
//!
//! # Examples
//!
//! ```
//! use taco_estimate::{Estimator, ExternalCam};
//! use taco_isa::MachineConfig;
//!
//! let est = Estimator::new().with_cam(ExternalCam::micron_harmony());
//! let e = est.estimate(&MachineConfig::three_bus_one_fu(), 40e6);
//! let e = e.feasible().expect("40 MHz is easy on 0.18um");
//! // The CAM chip, not the processor, dominates total power at 40 MHz.
//! assert!(e.total_power_w() > 10.0 * e.power_w);
//! ```

mod gates;
pub mod model;
pub mod tech;

pub use model::{Estimate, Estimator, ExternalCam, PhysicalEstimate};
pub use tech::Technology;
