//! Determinism contract of the scenario-aware explorer, mirroring
//! `parallel_equivalence.rs`: a workload-carrying sweep must produce
//! byte-identical `ScenarioMetrics` JSON no matter how many worker
//! threads evaluate it, and re-running the same seed must reproduce the
//! run exactly.

use std::sync::Arc;

use taco_core::{
    explore_with, Constraints, EvalCache, EvalRequest, ExploreOptions, LineRate, RoutingTableKind,
    Silent, SweepSpec, Workload,
};
use taco_workload::TraceGen;

fn scenario_spec() -> SweepSpec {
    SweepSpec {
        buses: vec![1, 3],
        replication: vec![1],
        kinds: vec![RoutingTableKind::Cam, RoutingTableKind::BalancedTree],
        entries: 8,
        workload: Some(Workload::burst_overload()),
        ..SweepSpec::default()
    }
}

fn trace_spec() -> SweepSpec {
    SweepSpec {
        trace: Some(Arc::new(TraceGen::generate(33, 60, 10, 8))),
        workload: None,
        ..scenario_spec()
    }
}

fn spec_jsons(spec: &SweepSpec, threads: usize) -> Vec<String> {
    let cache = EvalCache::new();
    let ex = explore_with(
        spec,
        LineRate::TEN_GBE,
        &Constraints::default(),
        &ExploreOptions { threads, cache: Some(&cache), observer: &Silent },
    );
    ex.all
        .iter()
        .map(|r| r.scenario.as_ref().expect("workload attached to every point").to_json())
        .collect()
}

fn scenario_jsons(threads: usize) -> Vec<String> {
    spec_jsons(&scenario_spec(), threads)
}

#[test]
fn scenario_metrics_are_byte_identical_across_thread_counts() {
    let serial = scenario_jsons(1);
    let parallel = scenario_jsons(4);
    assert_eq!(serial.len(), 4);
    assert_eq!(serial, parallel, "scenario JSON must not depend on the worker count");
}

#[test]
fn trace_replay_metrics_are_byte_identical_across_thread_counts() {
    let serial = spec_jsons(&trace_spec(), 1);
    let parallel = spec_jsons(&trace_spec(), 4);
    assert_eq!(serial.len(), 4);
    assert_eq!(serial, parallel, "trace-replay JSON must not depend on the worker count");
    for json in &serial {
        assert!(json.contains("\"scenario\":\"trace-replay\""), "{json}");
        assert!(json.contains("\"flows\":{"), "per-flow section must be present: {json}");
    }
}

#[test]
fn trace_replay_cache_hits_round_trip_bytes() {
    let cache = EvalCache::new();
    let spec = trace_spec();
    let opts = ExploreOptions { threads: 2, cache: Some(&cache), observer: &Silent };
    let cold = explore_with(&spec, LineRate::TEN_GBE, &Constraints::default(), &opts);
    let warm = explore_with(&spec, LineRate::TEN_GBE, &Constraints::default(), &opts);
    assert_eq!(cache.hits(), 4, "the repeat trace sweep is answered from the cache");
    for (a, b) in cold.all.iter().zip(&warm.all) {
        assert_eq!(a.scenario.as_ref().unwrap().to_json(), b.scenario.as_ref().unwrap().to_json());
    }
}

#[test]
fn latency_percentiles_are_integers_in_stable_json() {
    // The percentile fields must be plain integers (no '.' anywhere in
    // their values) and byte-stable across thread counts — they ride the
    // same JSON the previous test compares, but pin the fields explicitly.
    for json in scenario_jsons(2) {
        for key in ["\"p50\":", "\"p90\":", "\"p99\":", "\"max\":"] {
            let at = json.find(key).unwrap_or_else(|| panic!("{key} missing from {json}"));
            let value: String =
                json[at + key.len()..].chars().take_while(|c| c.is_ascii_digit()).collect();
            assert!(!value.is_empty(), "{key} carries no integer in {json}");
            let next = json[at + key.len() + value.len()..].chars().next();
            assert!(
                matches!(next, Some(',') | Some('}')),
                "{key} value is not a bare integer in {json}"
            );
        }
    }
}

#[test]
fn percentiles_are_ordered_and_bounded_by_max() {
    let request = EvalRequest::new(taco_core::ArchConfig::three_bus_one_fu(RoutingTableKind::Cam))
        .entries(8)
        .workload(Workload::burst_overload());
    let report = request.run();
    let metrics = report.scenario.as_ref().expect("workload attached");
    let h = &metrics.latency;
    assert!(h.count() > 0, "burst-overload must service datagrams: {}", metrics.to_json());
    assert!(h.p50() <= h.p90());
    assert!(h.p90() <= h.p99());
    assert!(h.p99() <= h.max());
}

#[test]
fn same_seed_reproduces_the_run_and_a_new_seed_does_not() {
    let base = Workload::burst_overload();
    let request = |w: Workload| {
        EvalRequest::new(taco_core::ArchConfig::three_bus_one_fu(RoutingTableKind::Cam))
            .entries(8)
            .workload(w)
    };
    let a = request(base).run();
    let b = request(base).run();
    assert_eq!(
        a.scenario.as_ref().unwrap().to_json(),
        b.scenario.as_ref().unwrap().to_json(),
        "same seed, same bytes"
    );

    let reseeded = request(base.with_seed(base.seed() ^ 1)).run();
    assert_ne!(
        a.scenario.as_ref().unwrap().to_json(),
        reseeded.scenario.as_ref().unwrap().to_json(),
        "a different seed must change the arrival pattern"
    );
}

#[test]
fn cached_scenario_points_round_trip_bytes() {
    // The cache stores the report with its metrics embedded; a hit must
    // return the identical JSON, not a re-run.
    let cache = EvalCache::new();
    let spec = scenario_spec();
    let opts = ExploreOptions { threads: 2, cache: Some(&cache), observer: &Silent };
    let first = explore_with(&spec, LineRate::TEN_GBE, &Constraints::default(), &opts);
    let second = explore_with(&spec, LineRate::TEN_GBE, &Constraints::default(), &opts);
    assert_eq!(cache.hits(), 4, "the repeat sweep is answered from the cache");
    for (a, b) in first.all.iter().zip(&second.all) {
        assert_eq!(a.scenario.as_ref().unwrap().to_json(), b.scenario.as_ref().unwrap().to_json());
    }
}
