//! The tentpole contracts of the parallel explorer:
//!
//! 1. the parallel, cached sweep over the **full default `SweepSpec`** is
//!    equal to the serial reference implementation (deterministic result
//!    ordering: results land by sweep index, not completion order);
//! 2. a repeated sweep is answered from the evaluation cache, observable
//!    through the `SweepObserver` records;
//! 3. a cached `EvalReport` is indistinguishable from a fresh
//!    `evaluate()` for every point in the default grid.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use taco_core::{
    explore_serial, explore_with, grid, scaling_sweep_with, ArchConfig, Constraints, EvalCache,
    EvalRequest, ExploreOptions, LineRate, PointRecord, RoutingTableKind, Silent, SweepObserver,
    SweepSpec, SweepSummary,
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
        kinds: vec![RoutingTableKind::Cam, RoutingTableKind::BalancedTree],
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
    let config = ArchConfig::three_bus_one_fu(RoutingTableKind::Cam);
    let sizes = [4usize, 8, 16, 32];
    let cache = EvalCache::new();
    let serial = scaling_sweep_with(
        &config,
        &sizes,
        &ExploreOptions { threads: 1, cache: None, observer: &Silent },
    );
    let parallel = scaling_sweep_with(
        &config,
        &sizes,
        &ExploreOptions { threads: 4, cache: Some(&cache), observer: &Silent },
    );
    assert_eq!(serial, parallel);
    // Repeat is all hits.
    let again = scaling_sweep_with(
        &config,
        &sizes,
        &ExploreOptions { threads: 4, cache: Some(&cache), observer: &Silent },
    );
    assert_eq!(serial, again);
    assert_eq!(cache.hits(), sizes.len() as u64);
}

#[test]
fn compiled_results_are_thread_count_invariant() {
    use taco_core::pool::ordered_map;
    use taco_core::{evaluate_request, FaultPlan, ScenarioMetrics, Workload};

    // Every table kind x builtin workload x fault preset at a table small
    // enough for debug builds, then a stratified sample: every 5th cell
    // walks all kinds, workloads and presets across the run.
    let mut cells = Vec::new();
    for kind in RoutingTableKind::ALL_KINDS {
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
        let scenario = report.scenario.as_ref().map_or_else(String::new, ScenarioMetrics::to_json);
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
        kinds: vec![RoutingTableKind::Cam],
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
