#![warn(missing_docs)]

//! Named, seeded workload scenarios for the behavioural router.
//!
//! The paper evaluates one workload — a steady forwarding stream — but
//! real IPv6 traffic is bursty and control-plane heavy.  This crate turns
//! the multi-linecard [`Router`](taco_router::Router) into a scenario
//! platform:
//!
//! * [`Workload`] — a named traffic pattern with all-integer parameters
//!   (`steady-forward`, `burst-overload`, `ripng-convergence`,
//!   `table-churn`, `mixed-plane`, `trace-replay`), hashable so
//!   evaluation caches can key on it;
//! * [`FlowTrace`] / [`TraceGen`] — versioned, checksummed binary flow
//!   traces and the seeded empirical generator behind `trace-replay`;
//! * [`ScenarioConfig`] — the router under test: table organisation,
//!   service rate, queue bound;
//! * [`run_scenario`] — the engine: deterministic tick-by-tick replay;
//! * [`ScenarioMetrics`] — what came out: throughput, drops by cause,
//!   queue depth, power-of-two latency histograms, table-update latency,
//!   all integers with byte-stable JSON.
//!
//! # Examples
//!
//! ```
//! use taco_routing::TableKind;
//! use taco_workload::{run_scenario, ScenarioConfig, Workload};
//!
//! let metrics = run_scenario(
//!     &Workload::by_name("burst-overload").unwrap(),
//!     &ScenarioConfig::new(TableKind::Cam).service_per_tick(24).queue_capacity(32),
//! );
//! assert!(metrics.dropped_overflow > 0); // bursts exceed the service rate
//! println!("{}", metrics.to_json());
//! ```

pub mod fault;
pub mod metrics;
pub mod scenario;
pub mod trace;

pub use fault::{FaultMetrics, FaultPlan, DEFAULT_FAULT_SEED};
pub use metrics::{
    coherence_to_json, FlowStats, LatencyHistogram, ScenarioMetrics, LATENCY_BUCKETS,
};
pub use scenario::{
    run_scenario, run_scenario_with_faults, run_trace_replay, ScenarioConfig, Workload,
    DEFAULT_SEED, MAX_OFFERED, PORTS, TICK_MILLIS,
};
pub use taco_sim::CoherenceStats;
pub use trace::{
    FlowTrace, TraceFormatError, TraceGen, TraceRecord, MAX_FLOW_LEN, MAX_PAYLOAD, RECORD_BYTES,
    TRACE_MAGIC, TRACE_VERSION,
};
