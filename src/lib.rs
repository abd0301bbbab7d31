//! Facade crate for the TACO IPv6 protocol-processor evaluation framework —
//! a reproduction of *"Fast Evaluation of Protocol Processor Architectures
//! for IPv6 Routing"* (Lilius, Truscan, Virtanen — DATE 2003).
//!
//! Re-exports every sub-crate under a stable module name so applications can
//! depend on a single crate:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`ipv6`] | `taco-ipv6` | IPv6 packets, prefixes, RIPng codec |
//! | [`routing`] | `taco-routing` | longest-prefix-match engines + RIPng engine |
//! | [`isa`] | `taco-isa` | TTA ISA, assembler, code optimizer |
//! | [`sim`] | `taco-sim` | cycle-accurate TACO simulator |
//! | [`estimate`] | `taco-estimate` | area/power/feasibility estimation |
//! | [`router`] | `taco-router` | the IPv6 router application |
//! | [`eval`] | `taco-core` | architecture evaluation + design-space exploration |
//! | [`served`] | `taco-served` | batch evaluation daemon behind the versioned wire API |
//!
//! # Examples
//!
//! Reproduce one cell of the paper's Table 1 — the CAM-based router on the
//! default three-bus configuration:
//!
//! ```
//! use taco::eval::{ArchConfig, EvalRequest, LineRate, TableKind};
//!
//! let config = ArchConfig::three_bus_one_fu(TableKind::Cam);
//! let report = EvalRequest::new(config).rate(LineRate::TEN_GBE).entries(100).run();
//! assert!(report.required_frequency_hz > 0.0);
//! ```

pub use taco_core as eval;
pub use taco_estimate as estimate;
pub use taco_ipv6 as ipv6;
pub use taco_isa as isa;
pub use taco_router as router;
pub use taco_routing as routing;
pub use taco_served as served;
pub use taco_sim as sim;
