#![warn(missing_docs)]

//! Fast evaluation of protocol processor architectures — the paper's
//! primary contribution.
//!
//! "By simulating and estimating different architectural configurations at
//! the system-level we obtained a fast turn-around time for finding
//! well-suited configurations to match the target application and its
//! constraints."  This crate is that methodology, end to end:
//!
//! 1. [`ArchConfig`] names an architecture instance: a TTA machine
//!    configuration × a routing-table organisation;
//! 2. [`EvalRequest::run`] (backed by [`evaluate_request()`]) measures the
//!    instance on the cycle-accurate router (`taco-router` + `taco-sim`),
//!    priced from the block profile one stepped run of its table recorded,
//!    converts measured cycles-per-datagram into the minimum clock for a
//!    [`LineRate`] target, and feeds that clock to the physical estimator
//!    (`taco-estimate`) — producing an [`EvalReport`] with required speed,
//!    bus utilisation, area, power and feasibility;
//! 3. [`table1()`](table1()) evaluates the paper's nine cells and [`table1::render`]
//!    prints them in the paper's layout; [`report::render`] is the whole
//!    reproduction report (both operating points, the scaling ablation, the
//!    paper-claim checklist) that EXPERIMENTS.md quotes;
//! 4. [`explore`] automates the design-space sweep the paper lists as
//!    future work: grid × constraints → ranked surviving configurations;
//! 5. [`api`] is the versioned JSON wire form of all of the above — the
//!    schema the `taco-served` daemon speaks and the shared validation
//!    path behind the CLI flags.
//!
//! # Examples
//!
//! ```
//! use taco_core::{ArchConfig, EvalRequest, TableKind};
//!
//! // The paper's headline finding, reproduced in four lines: a CAM-backed
//! // routing table turns an impossible clock requirement into tens of MHz.
//! // (The request defaults are the paper's: 10 GbE, 100 table entries.)
//! let seq = EvalRequest::new(ArchConfig::one_bus_one_fu(TableKind::Sequential)).run();
//! let cam = EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam)).run();
//! assert!(!seq.is_feasible());
//! assert!(cam.is_feasible());
//! assert!(cam.required_frequency_hz < seq.required_frequency_hz / 10.0);
//! ```

pub mod api;
pub mod arch;
pub mod cache;
pub mod evaluate;
pub mod explorer;
pub mod observer;
pub mod pool;
mod prepared;
mod price;
pub mod rate;
pub mod report;
pub mod request;
pub mod table1;

pub use api::{
    parse_machine_spec, salvage_request_id, ApiError, ApiErrorCode, ApiRequest, ApiResponse,
    StatusInfo, WireResponse,
};
pub use arch::ArchConfig;
pub use cache::{EvalCache, SnapshotError, SnapshotStats};
pub use evaluate::{evaluate_request, trace_request, EvalReport};
pub use explorer::{
    explore, explore_serial, explore_with, grid, rank_reports, scaling_sweep, Constraints,
    Exploration, ExploreOptions, SweepSpec,
};
pub use observer::{PointRecord, Silent, StderrProgress, SweepObserver, SweepSummary};
pub use prepared::benchmark_routes;
pub use rate::LineRate;
pub use request::EvalRequest;
pub use table1::table1;
pub use taco_routing::TableKind;
pub use taco_workload::{
    FaultMetrics, FaultPlan, FlowStats, FlowTrace, ScenarioMetrics, TraceFormatError, TraceGen,
    Workload, DEFAULT_FAULT_SEED,
};
