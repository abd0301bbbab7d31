//! Automated design-space exploration.
//!
//! "Our future work includes … a tool that automates the design space
//! exploration phase, which based on some heuristics will suggest good
//! solutions, with respect to performance requirements and physical
//! constraints."  This module implements that tool: sweep an architecture
//! grid, evaluate every instance with the same simulate-then-estimate
//! pipeline, filter by the designer's constraints, and rank what survives.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use taco_routing::TableKind;
use taco_workload::{FaultPlan, FlowTrace, Workload};

use crate::arch::ArchConfig;
use crate::cache::EvalCache;
use crate::evaluate::{evaluate_request, EvalReport};
use crate::observer::{PointRecord, Silent, SweepObserver, SweepSummary};
use crate::pool;
use crate::rate::LineRate;
use crate::request::EvalRequest;

/// Designer-imposed physical constraints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraints {
    /// Maximum processor power, watts (the external CAM is budgeted
    /// separately, as in the paper).
    pub max_power_w: f64,
    /// Maximum processor area, mm².
    pub max_area_mm2: f64,
    /// Maximum total datagram drops the attached scenario may record
    /// (ignored when `None` or when the sweep carries no workload) — the
    /// behavioural counterpart of the clock-feasibility check: an
    /// instance that melts under the traffic it was sized for does not
    /// survive the sweep, however cheap its silicon.
    pub max_scenario_drops: Option<u64>,
    /// Maximum faults the attached scenario may leave unrecovered (ignored
    /// when `None` or when the sweep injects no faults) — the resilience
    /// counterpart of the drop bound: an instance too slow to re-converge
    /// inside the fault plan's repair window is disqualified.
    pub max_unrecovered_faults: Option<u64>,
}

impl Default for Constraints {
    /// A 0.18 µm-era embedded budget: 2 W, 50 mm², no drop or fault bound.
    fn default() -> Self {
        Constraints {
            max_power_w: 2.0,
            max_area_mm2: 50.0,
            max_scenario_drops: None,
            max_unrecovered_faults: None,
        }
    }
}

impl Constraints {
    /// Returns `true` if `report` fits the constraints (infeasible clocks
    /// never fit, and scenario drops beyond the bound disqualify).
    pub fn admits(&self, report: &EvalReport) -> bool {
        let physical = match report.estimate.feasible() {
            Some(e) => e.power_w <= self.max_power_w && e.area_mm2 <= self.max_area_mm2,
            None => false,
        };
        if !physical {
            return false;
        }
        if let (Some(max_drops), Some(scenario)) = (self.max_scenario_drops, &report.scenario) {
            if scenario.dropped() > max_drops {
                return false;
            }
        }
        match (
            self.max_unrecovered_faults,
            report.scenario.as_ref().and_then(|s| s.faults.as_ref()),
        ) {
            (Some(max_unrecovered), Some(faults)) => faults.unrecovered <= max_unrecovered,
            _ => true,
        }
    }
}

/// The exploration grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Bus counts to try.
    pub buses: Vec<u8>,
    /// Replication factors for the replicable units (CNT/CMP/M together).
    pub replication: Vec<u8>,
    /// Table organisations to try.
    pub kinds: Vec<TableKind>,
    /// Routing-table size.
    pub entries: usize,
    /// Behavioural scenario every grid point replays (rankable via
    /// [`Constraints::max_scenario_drops`]); `None` sweeps the
    /// cycle-accurate measurement alone, as the paper does.
    pub workload: Option<Workload>,
    /// Deterministic fault plan every grid point is evaluated under
    /// (rankable via [`Constraints::max_unrecovered_faults`]); `None`
    /// sweeps fault-free.
    pub faults: Option<FaultPlan>,
    /// Explicit flow trace every grid point replays verbatim (attaching it
    /// also sets each point's workload to the trace's descriptor); `None`
    /// replays `workload` as named.  One `Arc` is shared by every point —
    /// the grid never clones the records.
    pub trace: Option<Arc<FlowTrace>>,
}

impl Default for SweepSpec {
    /// The paper's neighbourhood: 1–4 buses, 1–3× replication, all three
    /// table organisations, 100 entries, no scenario.
    fn default() -> Self {
        SweepSpec {
            buses: vec![1, 2, 3, 4],
            replication: vec![1, 2, 3],
            kinds: TableKind::PAPER_KINDS.to_vec(),
            entries: 100,
            workload: None,
            faults: None,
            trace: None,
        }
    }
}

impl SweepSpec {
    /// The [`EvalRequest`] this sweep issues for one grid point.
    fn request(&self, config: &ArchConfig, line_rate: LineRate) -> EvalRequest {
        let mut request = EvalRequest::new(config.clone()).rate(line_rate).entries(self.entries);
        if let Some(workload) = self.workload {
            request = request.workload(workload);
        }
        if let Some(faults) = self.faults {
            request = request.faults(faults);
        }
        if let Some(trace) = &self.trace {
            request = request.flow_trace(Arc::clone(trace));
        }
        request
    }
}

/// The ranked outcome of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Exploration {
    /// Every evaluated instance, in sweep order.
    pub all: Vec<EvalReport>,
    /// Indices (into `all`) of the instances admitted by the constraints,
    /// sorted by ascending processor power (the paper's tie-breaker after
    /// feasibility), then ascending area, then sweep index — a total
    /// order, so equal-power configurations rank reproducibly across runs
    /// and platforms.
    pub admitted: Vec<usize>,
}

impl Exploration {
    /// The best admitted instance, if any survived.
    pub fn best(&self) -> Option<&EvalReport> {
        self.admitted.first().map(|&i| &self.all[i])
    }
}

/// Knobs for a sweep run: parallelism, memoisation and observability.
///
/// The [`Default`] is what the public entry points use — all cores (or
/// `TACO_THREADS`), the process-global [`EvalCache`], no output.
#[derive(Clone, Copy)]
pub struct ExploreOptions<'a> {
    /// Threads for the grid fan-out, the caller included (`1` = serial,
    /// inline).
    pub threads: usize,
    /// Evaluation memo to consult and fill; `None` evaluates every point
    /// from scratch.
    pub cache: Option<&'a EvalCache>,
    /// Progress sink (per point + summary).
    pub observer: &'a dyn SweepObserver,
}

impl Default for ExploreOptions<'_> {
    fn default() -> Self {
        ExploreOptions {
            threads: pool::default_threads(),
            cache: Some(EvalCache::global()),
            observer: &Silent,
        }
    }
}

impl ExploreOptions<'_> {
    /// One evaluation through this run's memo, with its hit flag — or from
    /// scratch (never a hit) when the run has no memo.
    fn evaluate(&self, request: &EvalRequest) -> (EvalReport, bool) {
        match self.cache {
            Some(cache) => cache.evaluate_recorded(request),
            None => (evaluate_request(request), false),
        }
    }
}

/// The sweep grid of `spec`, in sweep order (kinds × buses ×
/// replication, innermost last) — the order `Exploration::all` is laid out
/// in.
pub fn grid(spec: &SweepSpec) -> Vec<ArchConfig> {
    let mut configs =
        Vec::with_capacity(spec.kinds.len() * spec.buses.len() * spec.replication.len());
    for &kind in &spec.kinds {
        for &buses in &spec.buses {
            for &repl in &spec.replication {
                configs.push(ArchConfig::with_replication(kind, buses, repl));
            }
        }
    }
    configs
}

/// Filters and ranks: admitted indices ordered by (power, area, sweep
/// index) — a deterministic total order.
///
/// Public so a caller holding reports in sweep order can rank them
/// exactly as [`explore`] does.
pub fn rank_reports(all: &[EvalReport], constraints: &Constraints) -> Vec<usize> {
    let mut admitted: Vec<usize> =
        (0..all.len()).filter(|&i| constraints.admits(&all[i])).collect();
    // `admits` only passes feasible estimates today, but ranking must not
    // be able to panic if that invariant ever loosens: an infeasible point
    // that slips through sorts last instead of crashing the sweep.
    let sort_key = |i: usize| {
        all[i]
            .estimate
            .feasible()
            .map(|e| (e.power_w, e.area_mm2))
            .unwrap_or((f64::INFINITY, f64::INFINITY))
    };
    admitted.sort_unstable_by(|&a, &b| {
        let (pa, aa) = sort_key(a);
        let (pb, ab) = sort_key(b);
        pa.total_cmp(&pb).then(aa.total_cmp(&ab)).then(a.cmp(&b))
    });
    admitted
}

/// Runs the sweep: evaluate every grid point, filter, rank.
///
/// Points are fanned out across all cores (override with the
/// `TACO_THREADS` environment variable) and answered from the
/// process-global [`EvalCache`] where possible; results land by sweep
/// index, so the outcome is identical to the serial sweep — see
/// [`explore_serial`] and the `parallel_matches_serial` equivalence test.
pub fn explore(spec: &SweepSpec, line_rate: LineRate, constraints: &Constraints) -> Exploration {
    explore_with(spec, line_rate, constraints, &ExploreOptions::default())
}

/// [`explore`] with explicit [`ExploreOptions`].
pub fn explore_with(
    spec: &SweepSpec,
    line_rate: LineRate,
    constraints: &Constraints,
    opts: &ExploreOptions<'_>,
) -> Exploration {
    let started = Instant::now();
    let configs = grid(spec);
    let total = configs.len();
    let sweep_hits = AtomicUsize::new(0);

    let all: Vec<EvalReport> = pool::ordered_map(&configs, opts.threads, |index, config| {
        let point_started = Instant::now();
        let (report, cache_hit) = opts.evaluate(&spec.request(config, line_rate));
        if cache_hit {
            sweep_hits.fetch_add(1, Ordering::Relaxed);
        }
        opts.observer.on_point(&PointRecord {
            index,
            total,
            report: &report,
            cache_hit,
            wall: point_started.elapsed(),
        });
        report
    });

    let admitted = rank_reports(&all, constraints);
    opts.observer.on_summary(&SweepSummary {
        points: total,
        cache_hits: sweep_hits.load(Ordering::Relaxed),
        admitted: admitted.len(),
        wall_ms: started.elapsed().as_millis(),
    });
    Exploration { all, admitted }
}

/// The reference implementation: one thread, no cache, no observer — the
/// loop the parallel sweep must be byte-identical to.
pub fn explore_serial(
    spec: &SweepSpec,
    line_rate: LineRate,
    constraints: &Constraints,
) -> Exploration {
    let all: Vec<EvalReport> = grid(spec)
        .iter()
        .map(|config| evaluate_request(&spec.request(config, line_rate)))
        .collect();
    let admitted = rank_reports(&all, constraints);
    Exploration { all, admitted }
}

/// The scaling ablation behind Table 1: cycles per datagram as a function
/// of routing-table size, for one configuration.  Returns `(size, cycles)`
/// pairs.
///
/// Each size is one full evaluation at [`LineRate::TEN_GBE`] — the CAM's
/// cycle count depends on the clock its 40 ns search is converted at, so
/// the pair is what Table 1 prints for the same machine and size.  Sizes
/// are evaluated in parallel and memoised in the global [`EvalCache`].
pub fn scaling_sweep(config: &ArchConfig, sizes: &[usize]) -> Vec<(usize, f64)> {
    scaling_sweep_with(config, sizes, &ExploreOptions::default())
}

/// [`scaling_sweep`] with explicit threads/cache (the observer is unused).
pub fn scaling_sweep_with(
    config: &ArchConfig,
    sizes: &[usize],
    opts: &ExploreOptions<'_>,
) -> Vec<(usize, f64)> {
    pool::ordered_map(sizes, opts.threads, |_, &n| {
        let request = EvalRequest::new(config.clone()).rate(LineRate::TEN_GBE).entries(n);
        (n, opts.evaluate(&request).0.cycles_per_datagram)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_isa::MachineConfig;

    fn small_spec() -> SweepSpec {
        SweepSpec {
            buses: vec![1, 3],
            replication: vec![1],
            kinds: vec![TableKind::Cam, TableKind::BalancedTree],
            entries: 8,
            workload: None,
            faults: None,
            trace: None,
        }
    }

    #[test]
    fn the_default_grid_is_kinds_by_buses_by_replication() {
        let grid = grid(&SweepSpec::default());
        assert_eq!(grid.len(), 3 * 4 * 3);
        assert_eq!(grid[0].label(), "sequential 1BUS/1FU");
        assert_eq!(grid[1], ArchConfig::with_replication(TableKind::Sequential, 1, 2));
        assert_eq!(grid[3], ArchConfig::with_replication(TableKind::Sequential, 2, 1));
        assert_eq!(grid[12].table, TableKind::BalancedTree);
    }

    #[test]
    fn explore_ranks_by_power() {
        let ex = explore(&small_spec(), LineRate::TEN_GBE, &Constraints::default());
        assert_eq!(ex.all.len(), 4);
        assert!(!ex.admitted.is_empty(), "something must fit a 2 W budget");
        let powers: Vec<f64> =
            ex.admitted.iter().map(|&i| ex.all[i].estimate.feasible().unwrap().power_w).collect();
        assert!(powers.windows(2).all(|w| w[0] <= w[1]), "{powers:?}");
        assert!(ex.best().is_some());
    }

    #[test]
    fn impossible_constraints_admit_nothing() {
        let constraints =
            Constraints { max_power_w: 1e-9, max_area_mm2: 1e-9, ..Constraints::default() };
        let ex = explore(&small_spec(), LineRate::TEN_GBE, &constraints);
        assert!(ex.admitted.is_empty());
        assert!(ex.best().is_none());
    }

    #[test]
    fn scenario_sweep_attaches_metrics_and_filters_droppers() {
        use taco_workload::Workload;
        // Heavy enough that every organisation's service budget saturates,
        // so total drops order by measured speed rather than noise.
        let workload =
            Workload::SteadyForward { seed: 7, ticks: 200, packets_per_tick: 500, entries: 64 };
        let spec = SweepSpec {
            buses: vec![3],
            replication: vec![1],
            kinds: vec![TableKind::Sequential, TableKind::Cam],
            entries: 8,
            workload: Some(workload),
            faults: None,
            trace: None,
        };
        // A generous physical budget so only the drop bound discriminates;
        // 10 GbE would mark the sequential row NA before drops matter.
        let lenient =
            Constraints { max_power_w: 100.0, max_area_mm2: 1000.0, ..Constraints::default() };
        let ex = explore(&spec, LineRate::GIGE, &lenient);
        assert!(ex.all.iter().all(|r| r.scenario.is_some()), "every point replays the scenario");
        assert_eq!(ex.admitted.len(), 2, "without a drop bound both survive");

        // The CAM's constant-time lookup earns it a far larger per-tick
        // service budget, so it drops far less under the same traffic.
        let drops = |i: usize| ex.all[i].scenario.as_ref().unwrap().dropped();
        let seq_drops = drops(0);
        let cam_drops = drops(1);
        assert!(cam_drops < seq_drops, "cam {cam_drops} vs sequential {seq_drops}");

        let strict = Constraints { max_scenario_drops: Some(cam_drops), ..lenient };
        let filtered = explore(&spec, LineRate::GIGE, &strict);
        let survivors: Vec<TableKind> =
            filtered.admitted.iter().map(|&i| filtered.all[i].config.table).collect();
        assert_eq!(survivors, vec![TableKind::Cam], "the drop bound culls the sequential scan");
    }

    #[test]
    fn trace_sweep_replays_the_same_records_at_every_point() {
        use taco_workload::TraceGen;
        let trace = Arc::new(TraceGen::generate(5, 30, 6, 8));
        let spec = SweepSpec {
            buses: vec![3],
            replication: vec![1],
            kinds: vec![TableKind::Cam, TableKind::BalancedTree],
            entries: 8,
            workload: None,
            faults: None,
            trace: Some(Arc::clone(&trace)),
        };
        let ex = explore(&spec, LineRate::GIGE, &Constraints::default());
        assert_eq!(ex.all.len(), 2);
        for r in &ex.all {
            let sc = r.scenario.as_ref().expect("trace sweep replays at every point");
            assert_eq!(sc.scenario, "trace-replay");
            let flows = sc.flows.as_ref().expect("trace replay reports per-flow stats");
            assert_eq!(flows.packets(), sc.offered, "every offered datagram came from the trace");
        }
    }

    #[test]
    fn scaling_sweep_is_monotonic_for_sequential() {
        let config = ArchConfig::new(MachineConfig::one_bus_one_fu(), TableKind::Sequential);
        let points = scaling_sweep(&config, &[8, 32]);
        assert_eq!(points.len(), 2);
        assert!(points[1].1 > points[0].1 * 2.0, "{points:?}");
    }

    #[test]
    fn scaling_sweep_is_flat_for_cam() {
        let config = ArchConfig::new(MachineConfig::three_bus_one_fu(), TableKind::Cam);
        let points = scaling_sweep(&config, &[8, 64]);
        let ratio = points[1].1 / points[0].1;
        assert!(ratio < 1.2, "cam cost must not scale with table size: {points:?}");
    }

    #[test]
    fn constraints_reject_infeasible() {
        let report = EvalRequest::new(ArchConfig::one_bus_one_fu(TableKind::Sequential))
            .rate(LineRate::TEN_GBE_MIN_FRAMES)
            .entries(64)
            .run();
        assert!(!report.is_feasible());
        assert!(!Constraints::default().admits(&report));
    }
}
