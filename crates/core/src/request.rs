//! The evaluation request — the single front door to the pipeline.
//!
//! Early versions of this crate exposed a positional
//! `evaluate(&config, line_rate, entries)` function; every new knob
//! (packet size, scenario workloads) threatened another positional
//! parameter at every call site.  [`EvalRequest`] replaces that with a
//! builder: name the architecture instance, override what differs from
//! the paper's defaults, and [`run`](EvalRequest::run) it.
//!
//! # Examples
//!
//! ```
//! use taco_core::{ArchConfig, EvalRequest, LineRate, TableKind, Workload};
//!
//! // The paper's defaults (10 GbE, 100 entries) need no overrides.
//! let cam = EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam)).run();
//! assert!(cam.is_feasible());
//!
//! // A custom point: gigabit line rate, small table, with a behavioural
//! // burst scenario replayed on the instance.
//! let report = EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam))
//!     .rate(LineRate::GIGE)
//!     .entries(16)
//!     .workload(Workload::burst_overload())
//!     .run();
//! assert!(report.scenario.is_some());
//! ```

use std::sync::Arc;

use taco_workload::{FaultPlan, FlowTrace, Workload};

use crate::arch::ArchConfig;
use crate::evaluate::{evaluate_request, EvalReport};
use crate::rate::LineRate;

/// Everything one architecture evaluation needs, assembled by a builder.
///
/// Defaults mirror the paper's headline cell: [`LineRate::TEN_GBE`] and a
/// 100-entry routing table ("a maximum size of 100 entries"), with no
/// behavioural workload attached.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRequest {
    /// The architecture instance to evaluate.
    pub config: ArchConfig,
    /// The line-rate target the required clock is computed against.
    pub line_rate: LineRate,
    /// Routing-table size used for the measurement.
    pub entries: usize,
    /// Optional behavioural scenario to replay on the instance; its
    /// metrics land in [`EvalReport::scenario`] and feed the explorer's
    /// drop constraint.  An attached flow trace replaces it with the
    /// trace's descriptor.
    pub workload: Option<Workload>,
    /// Optional deterministic fault plan: injects malformed datagrams,
    /// hop-limit storms, table corruption, link flaps (scenario replay) and
    /// transient stalls (cycle-accurate measurement).  Part of the cache
    /// key — a faulted evaluation is a different result.
    pub faults: Option<FaultPlan>,
    /// Optional explicit flow trace to replay.  When present, the scenario
    /// replays these records verbatim, and its descriptor is the workload;
    /// the trace digest **is** part of the cache key.  `Arc` keeps the
    /// request cheap to clone even for large traces.
    pub flow_trace: Option<Arc<FlowTrace>>,
}

impl EvalRequest {
    /// The paper-default table size (its "maximum size of 100 entries").
    pub(crate) const DEFAULT_ENTRIES: usize = 100;

    /// A request for `config` with the paper's defaults: 10 GbE,
    /// `Self::DEFAULT_ENTRIES` routing-table entries, no workload.
    pub fn new(config: ArchConfig) -> Self {
        EvalRequest {
            config,
            line_rate: LineRate::TEN_GBE,
            entries: Self::DEFAULT_ENTRIES,
            workload: None,
            faults: None,
            flow_trace: None,
        }
    }

    /// Overrides the line-rate target.
    pub fn rate(mut self, line_rate: LineRate) -> Self {
        self.line_rate = line_rate;
        self
    }

    /// Overrides the routing-table size.
    pub fn entries(mut self, entries: usize) -> Self {
        self.entries = entries;
        self
    }

    /// Attaches a behavioural workload scenario: after the cycle-accurate
    /// measurement, the scenario is replayed on a behavioural router whose
    /// per-tick service budget is derived from the measured
    /// cycles-per-datagram at the technology-ceiling clock.
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Attaches a deterministic fault plan (see
    /// [`FaultPlan`](taco_workload::FaultPlan)).  Composes with any
    /// workload: the scenario replay injects the plan's traffic and
    /// control-plane faults, and the cycle-accurate measurement suffers its
    /// transient stalls.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attaches an explicit flow trace: the replay uses these records
    /// verbatim, and the trace's descriptor is the scenario.
    pub fn flow_trace(mut self, trace: Arc<FlowTrace>) -> Self {
        self.flow_trace = Some(trace);
        self
    }

    /// The scenario replayed: an attached trace's descriptor, else the workload.
    pub(crate) fn scenario(&self) -> Option<Workload> {
        self.flow_trace.as_ref().map(|trace| trace.descriptor()).or(self.workload)
    }

    /// Runs the full co-analysis pipeline for this request.
    pub fn run(&self) -> EvalReport {
        evaluate_request(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_routing::TableKind;

    #[test]
    fn builder_defaults_match_the_paper() {
        let r = EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam));
        assert_eq!(r.line_rate, LineRate::TEN_GBE);
        assert_eq!(r.entries, 100);
        assert!(r.workload.is_none());
        assert!(r.faults.is_none());
        assert!(r.flow_trace.is_none());
    }

    #[test]
    fn builder_overrides_stick() {
        let r = EvalRequest::new(ArchConfig::one_bus_one_fu(TableKind::Sequential))
            .rate(LineRate::GIGE)
            .entries(7)
            .workload(Workload::steady_forward());
        assert_eq!(r.line_rate, LineRate::GIGE);
        assert_eq!(r.entries, 7);
        assert_eq!(r.workload, Some(Workload::steady_forward()));
    }

    #[test]
    fn run_agrees_with_the_pipeline() {
        let request = EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam)).entries(8);
        let report = request.run();
        assert_eq!(report.table_entries, 8);
        assert!(report.is_feasible());
        assert!(report.scenario.is_none());
        assert!(report.sim_error.is_none());
    }
}
