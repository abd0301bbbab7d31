//! The tentpole contracts of the parallel explorer:
//!
//! 1. the parallel, cached sweep over the **full default `SweepSpec`** is
//!    equal to the serial reference implementation (deterministic result
//!    ordering: results land by sweep index, not completion order);
//! 2. a repeated sweep is answered from the evaluation cache, observable
//!    through the `SweepObserver` records;
//! 3. a cached `EvalReport` is indistinguishable from a fresh
//!    `evaluate()` for every point in the default grid;
//! 4. the priced sweep, which prices every point from its table's block
//!    profile (recorded once per prepared input), is equal to the stepped
//!    serial sweep — every report, the ranking and the cache counters —
//!    over table sizes, every kind, six bus counts, four replication
//!    factors, four line rates and a fault plan with and without injected
//!    stalls, and a repeated sweep on a fresh cache prices again from the
//!    same profiles.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use taco_core::{
    explore_serial, explore_with, grid, scaling_sweep, ArchConfig, Constraints, EvalCache,
    EvalRequest, ExploreOptions, FaultPlan, LineRate, PointRecord, Silent, SweepObserver,
    SweepSpec, SweepSummary, TableKind,
};

/// Captures everything the explorer reports, for assertions.
#[derive(Default)]
struct Recorder {
    points: AtomicUsize,
    cache_hits: AtomicUsize,
    summaries: Mutex<Vec<SweepSummary>>,
}

impl SweepObserver for Recorder {
    fn on_point(&self, record: &PointRecord<'_>) {
        self.points.fetch_add(1, Ordering::Relaxed);
        if record.cache_hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        assert!(record.index < record.total);
        assert!(record.report.stats.cycles > 0, "{:?}", record.report.stats);
    }

    fn on_summary(&self, summary: &SweepSummary) {
        self.summaries.lock().unwrap().push(summary.clone());
    }
}

/// Keeps the sweep summaries alone: an oracle sweep may report points that
/// do not simulate.
#[derive(Default)]
struct Summaries(Mutex<Vec<SweepSummary>>);

impl SweepObserver for Summaries {
    fn on_summary(&self, summary: &SweepSummary) {
        self.0.lock().unwrap().push(summary.clone());
    }
}

#[test]
fn parallel_matches_serial_on_the_full_default_sweep() {
    let spec = SweepSpec::default();
    let constraints = Constraints::default();

    let serial = explore_serial(&spec, LineRate::TEN_GBE, &constraints);

    let cache = EvalCache::new();
    let parallel = explore_with(
        &spec,
        LineRate::TEN_GBE,
        &constraints,
        &ExploreOptions { threads: 4, cache: Some(&cache), observer: &Silent },
    );

    assert_eq!(serial, parallel, "parallel sweep must be byte-identical to the serial one");
    assert_eq!(parallel.all.len(), grid(&spec).len());
    // Sweep order is the grid order.
    for (report, config) in parallel.all.iter().zip(grid(&spec)) {
        assert_eq!(report.config, config);
    }
}

#[test]
fn repeated_sweep_hits_the_cache_and_reports_it() {
    let spec = SweepSpec {
        buses: vec![1, 3],
        replication: vec![1, 2],
        kinds: vec![TableKind::Cam, TableKind::BalancedTree],
        entries: 8,
        ..SweepSpec::default()
    };
    let constraints = Constraints::default();
    let cache = EvalCache::new();
    let recorder = Recorder::default();
    let opts = ExploreOptions { threads: 2, cache: Some(&cache), observer: &recorder };

    let first = explore_with(&spec, LineRate::TEN_GBE, &constraints, &opts);
    assert_eq!(recorder.cache_hits.load(Ordering::Relaxed), 0, "cold cache");

    let second = explore_with(&spec, LineRate::TEN_GBE, &constraints, &opts);
    assert_eq!(first, second);
    assert_eq!(recorder.points.load(Ordering::Relaxed), 16, "8 points per sweep, observed");
    assert_eq!(
        recorder.cache_hits.load(Ordering::Relaxed),
        8,
        "every point of the repeat answered from cache"
    );
    assert_eq!(cache.hits(), 8);
    assert_eq!(cache.misses(), 8);

    let summaries = recorder.summaries.lock().unwrap();
    assert_eq!(summaries.len(), 2);
    assert_eq!(summaries[0].cache_hits, 0);
    assert_eq!(summaries[1].cache_hits, 8);
    assert_eq!(summaries[1].points, 8);
    assert_eq!(summaries[1].admitted, second.admitted.len());
}

#[test]
fn cached_report_equals_fresh_evaluate_for_every_default_grid_point() {
    // Property-style (but proptest-free): over the whole default grid, the
    // memoised result is the fresh result — the cache is semantically
    // invisible.
    let spec = SweepSpec::default();
    let cache = EvalCache::new();
    let points = grid(&spec);
    let request = |config: &ArchConfig| {
        EvalRequest::new(config.clone()).rate(LineRate::TEN_GBE).entries(spec.entries)
    };
    for config in &points {
        cache.evaluate(&request(config));
    }
    assert_eq!(cache.misses(), points.len() as u64);
    for config in &points {
        let (cached, hit) = cache.evaluate_recorded(&request(config));
        assert!(hit, "second pass must hit: {config}");
        let fresh = request(config).run();
        assert_eq!(cached, fresh, "cached report must equal a fresh evaluation: {config}");
    }
    assert_eq!(cache.hits(), points.len() as u64);
}

#[test]
fn scaling_sweep_parallel_cached_equals_uncached_serial() {
    let config = ArchConfig::three_bus_one_fu(TableKind::Cam);
    let sizes = [4usize, 8, 16, 32];
    let serial: Vec<(usize, f64)> = sizes
        .iter()
        .map(|&n| {
            let request = EvalRequest::new(config.clone()).rate(LineRate::TEN_GBE).entries(n);
            (n, request.run().cycles_per_datagram)
        })
        .collect();
    assert_eq!(scaling_sweep(&config, &sizes), serial);
    // Repeat is all hits.  Other tests share the global cache and only
    // ever add to its counter, so the repeat's hits are a lower bound.
    let hits = EvalCache::global().hits();
    assert_eq!(scaling_sweep(&config, &sizes), serial);
    assert!(EvalCache::global().hits() >= hits + sizes.len() as u64);
}

#[test]
fn compiled_results_are_thread_count_invariant() {
    use taco_core::pool::ordered_map;
    use taco_core::{evaluate_request, FaultPlan, ScenarioMetrics, Workload};

    // Every table kind x builtin workload x fault preset at a table small
    // enough for debug builds, then a stratified sample: every 5th cell
    // walks all kinds, workloads and presets across the run.
    let mut cells = Vec::new();
    for kind in TableKind::ALL_KINDS {
        for workload in Workload::builtin() {
            let plans = FaultPlan::builtin().into_iter().map(|(name, plan)| (name, Some(plan)));
            for (fault_name, plan) in std::iter::once(("none", None)).chain(plans) {
                let mut request = EvalRequest::new(ArchConfig::three_bus_one_fu(kind))
                    .entries(10)
                    .workload(workload);
                if let Some(plan) = plan {
                    request = request.faults(plan);
                }
                cells.push((format!("{kind:?}/{}/{fault_name}", workload.name()), request));
            }
        }
    }
    let cells: Vec<_> = cells.into_iter().step_by(5).collect();

    // The observable surface of one evaluation: scenario metrics JSON plus
    // the simulator counters.
    let fingerprint = |request: &EvalRequest| {
        let report = evaluate_request(request);
        assert!(report.sim_error.is_none(), "{request:?} failed: {report}");
        let scenario =
            report.scenario.as_deref().map_or_else(String::new, ScenarioMetrics::to_json);
        (scenario, report.stats)
    };
    let serial = ordered_map(&cells, 1, |_, (_, request)| fingerprint(request));
    let parallel = ordered_map(&cells, 4, |_, (_, request)| fingerprint(request));
    for (((label, _), one), four) in cells.iter().zip(&serial).zip(&parallel) {
        assert_eq!(one, four, "{label}: result depends on worker count");
    }
}

#[test]
fn equal_power_ties_rank_deterministically() {
    // Duplicate grid axes produce duplicate (hence equal-power) points;
    // the (power, area, index) total order must keep them in sweep order.
    let spec = SweepSpec {
        buses: vec![3, 3],
        replication: vec![1, 1],
        kinds: vec![TableKind::Cam],
        entries: 8,
        ..SweepSpec::default()
    };
    let constraints = Constraints::default();
    let cache = EvalCache::new();
    let opts = ExploreOptions { threads: 2, cache: Some(&cache), observer: &Silent };
    let ex = explore_with(&spec, LineRate::TEN_GBE, &constraints, &opts);
    assert_eq!(ex.all.len(), 4);
    assert!(!ex.admitted.is_empty());
    // All four points are the same configuration: power ties everywhere,
    // so admitted order must be exactly ascending sweep index.
    let sorted: Vec<usize> = {
        let mut v = ex.admitted.clone();
        v.sort_unstable();
        v
    };
    assert_eq!(ex.admitted, sorted);
}

/// The oracle grid at one table size: every kind, buses 1–6, replication
/// 1–4.
fn oracle_spec(entries: usize, faults: Option<FaultPlan>) -> SweepSpec {
    SweepSpec {
        buses: (1..=6).collect(),
        replication: (1..=4).collect(),
        kinds: TableKind::ALL_KINDS.to_vec(),
        entries,
        faults,
        ..SweepSpec::default()
    }
}

/// Sweeps `spec` priced on a fresh cache and stepped by `explore_serial`,
/// demands equal reports, ranking and exact cache counters (every point one
/// miss, then every point one hit on a repeat), and returns the priced
/// sweep's summary.
fn priced_equals_stepped(spec: &SweepSpec, rate: LineRate) -> SweepSummary {
    let constraints = Constraints::default();
    let stepped = explore_serial(spec, rate, &constraints);
    let cache = EvalCache::new();
    let summaries = Summaries::default();
    let opts = ExploreOptions { threads: 2, cache: Some(&cache), observer: &summaries };
    let priced = explore_with(spec, rate, &constraints, &opts);
    let points = grid(spec).len();
    assert_eq!(priced.all.len(), points);
    for (priced, stepped) in priced.all.iter().zip(&stepped.all) {
        assert_eq!(priced, stepped, "{} at {} entries, {rate}", stepped.config, spec.entries);
    }
    assert_eq!(priced.admitted, stepped.admitted, "ranking at {} entries, {rate}", spec.entries);
    assert_eq!((cache.misses(), cache.hits()), (points as u64, 0));

    assert_eq!(explore_with(spec, rate, &constraints, &opts), priced);
    assert_eq!((cache.misses(), cache.hits()), (points as u64, points as u64));
    let summaries = summaries.0.lock().unwrap();
    assert_eq!(summaries[1].points_priced, 0, "all hits");
    summaries[0].clone()
}

/// So fast a line that the CAM's search takes longer than the watchdog
/// allows.
const WATCHDOG_RATE: LineRate = LineRate { bits_per_second: 1e16, packet_bytes: 84 };

#[test]
fn priced_sweep_equals_the_stepped_oracle_at_every_size_and_line_rate() {
    let rates = [LineRate::TEN_GBE, LineRate::GIGE, LineRate::TEN_GBE_MIN_FRAMES, WATCHDOG_RATE];
    for entries in [1, 8, 100, 1024] {
        let spec = oracle_spec(entries, None);
        let points = grid(&spec).len();
        for rate in rates {
            // Every round of every point is priced, the CAM points whose
            // search outlasts the watchdog included: their one round is
            // priced and the fixed point stops before a second.
            let summary = priced_equals_stepped(&spec, rate);
            assert_eq!(summary.points_priced, points, "{entries} entries, {rate}");
        }
    }
}

#[test]
fn a_second_sweep_on_a_fresh_cache_prices_every_point_again() {
    // The profiles belong to the prepared input, not to the sweep that
    // recorded them: a narrow sweep first, then the whole grid at the same
    // size, each on its own cache.
    let narrow = SweepSpec { buses: vec![1], replication: vec![1], ..oracle_spec(16, None) };
    for spec in [narrow, oracle_spec(16, None)] {
        let summary = priced_equals_stepped(&spec, LineRate::TEN_GBE);
        assert_eq!(summary.points_priced, grid(&spec).len());
    }
}

#[test]
fn a_plan_that_injects_stalls_is_stepped_and_one_that_does_not_is_priced() {
    let points = grid(&oracle_spec(8, None)).len();
    let stalls =
        priced_equals_stepped(&oracle_spec(8, Some(FaultPlan::stalls())), LineRate::TEN_GBE);
    assert_eq!(stalls.points_priced, 0);
    let flaps = priced_equals_stepped(&oracle_spec(8, Some(FaultPlan::flaps())), LineRate::TEN_GBE);
    assert_eq!(flaps.points_priced, points);
}

#[test]
fn a_single_evaluation_equals_the_stepped_oracle() {
    // `evaluate_request` prices each round from its input's block profile
    // (the first evaluation at a size records it); `explore_serial` steps
    // every round and never consults a profile.
    for entries in [8, 100] {
        for faults in [None, Some(FaultPlan::stalls())] {
            let spec = oracle_spec(entries, faults);
            let stepped = explore_serial(&spec, LineRate::TEN_GBE, &Constraints::default());
            for stepped in &stepped.all {
                let mut request = EvalRequest::new(stepped.config.clone()).entries(entries);
                if let Some(plan) = faults {
                    request = request.faults(plan);
                }
                let report = taco_core::evaluate_request(&request);
                assert_eq!(&report, stepped, "{} at {entries} entries", stepped.config);
            }
        }
    }
}
