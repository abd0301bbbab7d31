//! The fast-evaluation pipeline: simulate, derive the required clock,
//! estimate physics — the paper's co-analysis of the SystemC and Matlab
//! models.

use taco_estimate::{Estimate, Estimator, ExternalCam};
use taco_router::cycle::CycleRouter;
use taco_routing::cam::CamSpec;
use taco_routing::{PortId, TableKind};
use taco_sim::{NullTracer, PeriodicStall, SimError, SimStats, Tracer};
use taco_workload::{
    run_scenario_with_faults, run_trace_replay, FaultPlan, ScenarioConfig, ScenarioMetrics,
};

use crate::arch::ArchConfig;
use crate::prepared::PreparedInput;
use crate::price::BlockProfile;
use crate::rate::LineRate;
use crate::request::EvalRequest;

/// Simulation watchdog per evaluation.
pub(crate) const CYCLE_BUDGET: u64 = 50_000_000;

/// Seconds of wall time one behavioural scenario tick represents when a
/// workload is attached to a request: the per-tick service budget is the
/// number of datagrams the instance forwards in this long at the
/// technology-ceiling clock.  (The scenario's coarse 100 ms tick drives
/// only the RIPng timers; the data plane is modelled on this much finer
/// slice so the built-in workloads — tens of datagrams per tick — sit in
/// the regime where queueing and overload are actually visible.)
const SCENARIO_TICK_SECONDS: f64 = 10e-6;

/// The co-analysis result for one architecture instance — one cell of
/// Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// The evaluated instance.
    pub config: ArchConfig,
    /// The line-rate target the requirement was computed against.
    pub line_rate: LineRate,
    /// Routing-table size used for the measurement.
    pub table_entries: usize,
    /// Measured cycles per forwarded datagram (worst-case-biased workload);
    /// infinite when the instance could not be simulated at all (see
    /// [`EvalReport::sim_error`]).
    pub cycles_per_datagram: f64,
    /// Minimum clock frequency to sustain the line rate.
    pub required_frequency_hz: f64,
    /// RTU (CAM) search latency in cycles at that frequency (1 for the
    /// microcoded table organisations, which do not use the RTU).
    pub rtu_latency_cycles: u32,
    /// Encoded program-image size in bits (instruction store + literal
    /// pool), as charged to the area estimate.
    pub program_bits: u64,
    /// Physical estimate at the required frequency ("NA" above the
    /// technology ceiling).
    pub estimate: Estimate,
    /// Raw simulator counters from the measurement run (the final
    /// fixed-point iteration for the CAM organisation) — the "performance
    /// data" the paper reads off its SystemC model, kept so sweep
    /// observers can serialise it per design point.
    pub stats: SimStats,
    /// Behavioural scenario metrics, present when the request attached a
    /// [`Workload`](taco_workload::Workload) and the measurement succeeded.
    pub scenario: Option<ScenarioMetrics>,
    /// The structured simulator error that aborted the measurement, if
    /// any.  A report carrying one is infeasible by construction: the
    /// instance cannot execute its own microcode, so no clock rescues it.
    pub sim_error: Option<SimError>,
}

impl EvalReport {
    /// `true` when the required clock is achievable in the technology.
    pub fn is_feasible(&self) -> bool {
        self.estimate.is_feasible()
    }

    /// Dynamic bus utilisation observed during the measurement (Table 1's
    /// "Bus util." column), computed from [`EvalReport::stats`].
    pub fn bus_utilization(&self) -> f64 {
        self.stats.bus_utilization()
    }
}

impl std::fmt::Display for EvalReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(e) = &self.sim_error {
            return write!(f, "{}: not simulatable ({e})", self.config);
        }
        write!(
            f,
            "{}: {:.0} cycles/datagram, bus util {:.0}%, needs {} for {} -> {}",
            self.config,
            self.cycles_per_datagram,
            self.bus_utilization() * 100.0,
            crate::table1::format_frequency(self.required_frequency_hz),
            self.line_rate,
            self.estimate
        )
    }
}

/// The transient stall a fault plan asks for, if any: `None` without a
/// plan or when the plan's stall period is zero.
fn stall_injector(faults: Option<&FaultPlan>) -> Option<PeriodicStall> {
    let plan = faults?;
    if plan.stall_every_cycles == 0 {
        return None;
    }
    Some(PeriodicStall::new(
        u64::from(plan.stall_every_cycles),
        u64::from(plan.stall_cycles.max(1)),
    ))
}

/// Runs the measurement workload through `router` under `tracer`, returning
/// cycles per datagram with the raw simulator counters alongside.  The
/// router must be freshly built.  With [`NullTracer`] and no fault plan
/// this is exactly `router.run`: the tracer monomorphises to nothing.
pub(crate) fn measure<T: Tracer + ?Sized>(
    router: &mut CycleRouter,
    input: &PreparedInput,
    faults: Option<&FaultPlan>,
    tracer: &mut T,
) -> Result<(f64, SimStats), SimError> {
    router.reserve(input.frames().len());
    for (words, byte_len) in input.frames() {
        router.enqueue_words(PortId(0), words, *byte_len)?;
    }
    let stats = router.run_with(CYCLE_BUDGET, tracer, stall_injector(faults))?;
    let n = router.processor().outputs().len().max(1);
    Ok((stats.cycles as f64 / n as f64, stats))
}

/// Re-runs `request`'s measurement under an arbitrary [`Tracer`] — the one
/// way to a timeline of an evaluation (a [`taco_sim::ChromeTracer`] for
/// Perfetto, a [`taco_sim::RingTracer`] for `taco-cli trace`'s strip).
///
/// Evaluates the request first (through the global cache, its rounds priced
/// like any evaluation's) to learn the converged RTU latency, then steps
/// that exact measurement run — same prepared input, same budget, same
/// injected stalls — with `tracer` observing.  A timeline is one of the four
/// jobs that still step, with recording a block profile, a round the
/// profile refuses to price and a fault plan that injects stalls; so a
/// trace costs one simulation, plus the profile's on a cold input.
///
/// # Errors
///
/// Returns the structured [`SimError`] if the instance cannot execute its
/// microcode — the same condition that makes the report infeasible.
pub fn trace_request(request: &EvalRequest, tracer: &mut dyn Tracer) -> Result<SimStats, SimError> {
    let report = crate::cache::EvalCache::global().evaluate(request);
    if let Some(e) = report.sim_error {
        return Err(e);
    }
    let input = PreparedInput::shared(request.entries);
    let mut router = input.router(&request.config, report.rtu_latency_cycles)?;
    measure(&mut router, &input, request.faults.as_ref(), tracer).map(|(_, stats)| stats)
}

/// The report an un-simulatable instance earns: infinite required clock,
/// an infeasible estimate, and the structured error preserved so sweeps
/// can say *why* the point died instead of crashing the whole grid.
fn error_report(request: &EvalRequest, rtu_latency: u32, error: SimError) -> EvalReport {
    EvalReport {
        config: request.config.clone(),
        line_rate: request.line_rate,
        table_entries: request.entries,
        cycles_per_datagram: f64::INFINITY,
        required_frequency_hz: f64::INFINITY,
        rtu_latency_cycles: rtu_latency,
        program_bits: 0,
        estimate: Estimate::Infeasible {
            required_hz: f64::INFINITY,
            achievable_hz: Estimator::new().max_frequency_hz(),
        },
        stats: SimStats::default(),
        scenario: None,
        sim_error: Some(error),
    }
}

/// Per-tick service budget for the behavioural scenario replay: how many
/// datagrams this instance forwards in one [`SCENARIO_TICK_SECONDS`] slice
/// when clocked at the technology ceiling.
fn scenario_service_per_tick(cycles_per_datagram: f64) -> u32 {
    let f_max = Estimator::new().max_frequency_hz();
    let per_tick = f_max * SCENARIO_TICK_SECONDS / cycles_per_datagram;
    (per_tick as u32).max(1)
}

/// What a cell's fixed point settles on: the RTU latency, the cycles per
/// datagram measured at it, the clock they require and the measurement's
/// counters.
struct Measurement {
    rtu_latency: u32,
    cycles: f64,
    freq: f64,
    stats: SimStats,
}

/// The paper's per-cell fixed point over `run`, which measures the cell at
/// one RTU latency and returns cycles per datagram with the run's counters.
///
/// For the CAM organisation the RTU latency depends on the clock and the
/// clock depends on the measured cycles (which include RTU stalls), so the
/// pair is iterated; it converges in a few rounds because the latency is
/// quantised to whole cycles.  The other organisations measure once.  An
/// error carries the latency it struck at.
fn converge(
    request: &EvalRequest,
    frames: usize,
    mut run: impl FnMut(u32) -> Result<(f64, SimStats), SimError>,
) -> Result<Measurement, (u32, SimError)> {
    let cam_spec = CamSpec::paper_default();
    let mut rtu_latency = 1u32;
    loop {
        let (cycles, stats) = run(rtu_latency).map_err(|e| (rtu_latency, e))?;
        let freq = request.line_rate.required_frequency_hz(cycles);
        if request.config.table != TableKind::Cam {
            return Ok(Measurement { rtu_latency, cycles, freq, stats });
        }
        // Searching once per datagram past the watchdog is how the run
        // would end: say so without simulating it.
        let next = cam_spec.search_cycles(freq);
        if next.saturating_mul(frames.max(1) as u64) > CYCLE_BUDGET {
            let latency = u32::try_from(next).unwrap_or(u32::MAX);
            return Err((latency, SimError::Watchdog { budget: CYCLE_BUDGET }));
        }
        let next = u32::try_from(next).expect("a latency within the budget fits u32");
        if next == rtu_latency {
            return Ok(Measurement { rtu_latency, cycles, freq, stats });
        }
        rtu_latency = next;
    }
}

/// Evaluates one [`EvalRequest`] — the paper's per-cell methodology, plus
/// the behavioural scenario replay when the request carries a workload.
///
/// Each round of the RTU latency fixed point ([`converge`]) is priced from
/// the block profile of the request's table, recorded once per prepared
/// input by stepping the table (the `price` module says why that is exact).
/// A round is stepped on a fresh cycle-accurate router instead when the
/// profile refuses to price it, or when the request's fault plan injects
/// stalls.
///
/// # Examples
///
/// ```
/// use taco_core::{evaluate_request, ArchConfig, EvalRequest, TableKind};
///
/// let report = evaluate_request(
///     &EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam)),
/// );
/// assert!(report.is_feasible());
/// assert!(report.required_frequency_hz < 200e6); // tens of MHz, as in the paper
/// ```
pub fn evaluate_request(request: &EvalRequest) -> EvalReport {
    evaluate_prepared(request, &PreparedInput::shared(request.entries)).0
}

/// [`evaluate_request`] with every round stepped on a fresh router and no
/// profile consulted: the oracle `explore_serial` answers with.
pub(crate) fn evaluate_stepped(request: &EvalRequest) -> EvalReport {
    evaluate_with(request, &PreparedInput::shared(request.entries), None).0
}

/// `request` over `input`, each round priced from the input's block profile
/// for the request's table where that is exact.  Injected stalls land at
/// cycles no price follows, so a plan that injects them is stepped.
/// Returns the report and whether every round was priced.
pub(crate) fn evaluate_prepared(
    request: &EvalRequest,
    input: &PreparedInput,
) -> (EvalReport, bool) {
    let profile = match stall_injector(request.faults.as_ref()) {
        None => input.profile(request.config.table),
        Some(_) => None,
    };
    evaluate_with(request, input, profile)
}

/// The one evaluation: `request` over `input`, its program store charged
/// from the compiled program and its fixed point run by [`converge`].  Each
/// round is priced from `profile` where that is exact and stepped on a
/// fresh router at the round's RTU latency otherwise.  Returns the report
/// and whether every round was priced.
fn evaluate_with(
    request: &EvalRequest,
    input: &PreparedInput,
    profile: Option<&BlockProfile>,
) -> (EvalReport, bool) {
    let config = &request.config;
    let compiled = match input.image(config.table).and_then(|image| image.compiled(&config.machine))
    {
        Ok(compiled) => compiled,
        Err(e) => return (error_report(request, 1, e), false),
    };
    let mut stepped = false;
    let measured = converge(request, input.frames().len(), |latency| {
        if let Some(priced) = profile.and_then(|p| p.price(&compiled, &config.machine, latency)) {
            return Ok(priced);
        }
        stepped = true;
        let mut router = input.router(config, latency)?;
        measure(&mut router, input, request.faults.as_ref(), &mut NullTracer)
    });
    let report = match measured {
        Ok(measurement) => report(request, compiled.program_bits(), measurement),
        Err((latency, e)) => error_report(request, latency, e),
    };
    (report, profile.is_some() && !stepped)
}

/// The report on a measured cell: the physical estimate at the clock it
/// requires and, when the request carries a workload, the behavioural
/// replay at the service budget its cycles earn.
fn report(request: &EvalRequest, program_bits: u64, m: Measurement) -> EvalReport {
    let config = &request.config;
    let faults = request.faults.as_ref();
    let mut estimator = Estimator::new().with_program_bits(program_bits);
    if config.table == TableKind::Cam {
        estimator = estimator.with_cam(ExternalCam::micron_harmony());
    }
    let estimate = estimator.estimate(&config.machine, m.freq);

    let scenario = request.scenario().map(|workload| {
        let service = scenario_service_per_tick(m.cycles);
        let scenario_config = ScenarioConfig::new(config.table).service_per_tick(service);
        match &request.flow_trace {
            // An attached flow trace is replayed verbatim.
            Some(trace) => run_trace_replay(trace, &scenario_config, faults),
            None => run_scenario_with_faults(&workload, &scenario_config, faults),
        }
    });

    EvalReport {
        config: config.clone(),
        line_rate: request.line_rate,
        table_entries: request.entries,
        cycles_per_datagram: m.cycles,
        required_frequency_hz: m.freq,
        rtu_latency_cycles: m.rtu_latency,
        program_bits,
        estimate,
        stats: m.stats,
        scenario,
        sim_error: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_workload::Workload;

    fn report(config: ArchConfig, line_rate: LineRate, entries: usize) -> EvalReport {
        EvalRequest::new(config).rate(line_rate).entries(entries).run()
    }

    #[test]
    fn report_carries_the_measurement_counters() {
        let r = EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam)).entries(8).run();
        assert!(r.stats.cycles > 0);
        assert!(r.bus_utilization() > 0.0);
    }

    #[test]
    fn report_display_reads_as_a_sentence() {
        let r = report(ArchConfig::three_bus_one_fu(TableKind::Cam), LineRate::TEN_GBE, 8);
        let text = r.to_string();
        assert!(text.contains("cam 3BUS/1FU"), "{text}");
        assert!(text.contains("cycles/datagram"), "{text}");
        assert!(text.contains("mm2"), "{text}");
    }

    #[test]
    fn sequential_needs_infeasible_clock_at_10g() {
        let r = report(ArchConfig::one_bus_one_fu(TableKind::Sequential), LineRate::TEN_GBE, 100);
        assert!(!r.is_feasible(), "sequential 1-bus must be NA: {}", r.required_frequency_hz);
        assert!(r.required_frequency_hz > 1.5e9);
    }

    #[test]
    fn tree_is_roughly_logarithmic_and_feasible() {
        let r =
            report(ArchConfig::three_bus_one_fu(TableKind::BalancedTree), LineRate::TEN_GBE, 100);
        assert!(r.is_feasible(), "tree 3-bus should fit 0.18um: {}", r.required_frequency_hz);
        assert!(r.required_frequency_hz < 1e9);
    }

    #[test]
    fn cam_needs_only_tens_of_mhz() {
        let r = report(ArchConfig::three_bus_one_fu(TableKind::Cam), LineRate::TEN_GBE, 100);
        assert!(r.is_feasible());
        assert!(r.required_frequency_hz < 150e6, "{}", r.required_frequency_hz);
        assert!(r.rtu_latency_cycles >= 1);
        // The external CAM is attached to the estimate.
        let est = r.estimate.feasible().unwrap();
        assert!(est.cam.is_some());
        assert!(est.total_power_w() > est.power_w);
    }

    #[test]
    fn buses_lower_the_required_clock() {
        let one = report(ArchConfig::one_bus_one_fu(TableKind::Cam), LineRate::TEN_GBE, 100);
        let three = report(ArchConfig::three_bus_one_fu(TableKind::Cam), LineRate::TEN_GBE, 100);
        assert!(
            three.required_frequency_hz < 0.7 * one.required_frequency_hz,
            "3 buses should cut the clock substantially: {} vs {}",
            one.required_frequency_hz,
            three.required_frequency_hz
        );
    }

    #[test]
    fn ordering_matches_the_paper() {
        // For every machine configuration: sequential > tree > cam.
        let seq =
            report(ArchConfig::three_bus_one_fu(TableKind::Sequential), LineRate::TEN_GBE, 100);
        let tree =
            report(ArchConfig::three_bus_one_fu(TableKind::BalancedTree), LineRate::TEN_GBE, 100);
        let cam = report(ArchConfig::three_bus_one_fu(TableKind::Cam), LineRate::TEN_GBE, 100);
        assert!(seq.required_frequency_hz > tree.required_frequency_hz);
        assert!(tree.required_frequency_hz > cam.required_frequency_hz);
    }

    #[test]
    fn workload_attaches_scenario_metrics() {
        let r = EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam))
            .entries(16)
            .workload(Workload::steady_forward())
            .run();
        let sc = r.scenario.as_ref().expect("workload requested, metrics attached");
        assert_eq!(sc.scenario, "steady-forward");
        assert_eq!(sc.kind, TableKind::Cam);
        assert!(sc.offered > 0);
        assert!(sc.forwarded > 0, "{}", sc.to_json());
    }

    #[test]
    fn explicit_flow_trace_matches_its_descriptor_replay() {
        use std::sync::Arc;
        use taco_workload::TraceGen;
        let trace = Arc::new(TraceGen::generate(21, 40, 8, 12));
        let config = ArchConfig::three_bus_one_fu(TableKind::Cam);
        let explicit =
            EvalRequest::new(config.clone()).entries(16).flow_trace(Arc::clone(&trace)).run();
        let descriptor = EvalRequest::new(config).entries(16).workload(trace.descriptor()).run();
        let a = explicit.scenario.expect("trace replay attaches metrics");
        let b = descriptor.scenario.expect("descriptor replay attaches metrics");
        assert_eq!(a.to_json(), b.to_json(), "verbatim replay must equal regeneration");
        assert!(a.flows.is_some(), "trace replay reports per-flow stats");
    }

    #[test]
    fn slower_organisations_get_smaller_scenario_budgets() {
        // The service budget is derived from measured cycles, so the
        // sequential scan must serve fewer datagrams per tick than the CAM.
        let seq = report(ArchConfig::one_bus_one_fu(TableKind::Sequential), LineRate::TEN_GBE, 64);
        let cam = report(ArchConfig::three_bus_one_fu(TableKind::Cam), LineRate::TEN_GBE, 64);
        assert!(
            scenario_service_per_tick(seq.cycles_per_datagram)
                < scenario_service_per_tick(cam.cycles_per_datagram)
        );
        assert!(scenario_service_per_tick(f64::INFINITY) >= 1, "budget is never zero");
    }

    #[test]
    fn sim_errors_become_structured_infeasibility() {
        use taco_isa::{FuKind, FuRef};
        let request = EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam));
        let err = SimError::InvalidFuIndex { fu: FuRef::new(FuKind::Matcher, 2), available: 1 };
        let r = error_report(&request, 1, err.clone());
        assert!(!r.is_feasible());
        assert_eq!(r.sim_error, Some(err));
        assert!(r.cycles_per_datagram.is_infinite());
        assert!(r.scenario.is_none());
        assert!(r.to_string().contains("not simulatable"), "{r}");
    }
}
