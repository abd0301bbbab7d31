//! Determinism contract of fault injection, mirroring
//! `scenario_determinism.rs`: the same seed and plan must produce
//! byte-identical `ScenarioMetrics` JSON (fault section included) no
//! matter how many worker threads evaluate the sweep, cache hits must
//! round-trip the same bytes, and the fault-free path must be entirely
//! unperturbed by the subsystem's existence.

use taco_core::{
    explore_with, ArchConfig, Constraints, EvalCache, EvalRequest, ExploreOptions, FaultPlan,
    LineRate, RoutingTableKind, Silent, SweepSpec, Workload,
};

fn small_workload() -> Workload {
    Workload::SteadyForward { seed: 11, ticks: 120, packets_per_tick: 8, entries: 24 }
}

fn faulted_spec() -> SweepSpec {
    SweepSpec {
        buses: vec![1, 3],
        replication: vec![1],
        kinds: vec![RoutingTableKind::Cam, RoutingTableKind::BalancedTree],
        entries: 8,
        workload: Some(small_workload()),
        faults: Some(FaultPlan::storm()),
        ..SweepSpec::default()
    }
}

fn faulted_jsons(threads: usize) -> Vec<String> {
    let cache = EvalCache::new();
    let ex = explore_with(
        &faulted_spec(),
        LineRate::TEN_GBE,
        &Constraints::default(),
        &ExploreOptions { threads, cache: Some(&cache), observer: &Silent },
    );
    ex.all
        .iter()
        .map(|r| r.scenario.as_ref().expect("workload attached to every point").to_json())
        .collect()
}

#[test]
fn faulted_metrics_are_byte_identical_across_thread_counts() {
    let serial = faulted_jsons(1);
    let parallel = faulted_jsons(4);
    assert_eq!(serial.len(), 4);
    assert_eq!(serial, parallel, "faulted scenario JSON must not depend on the worker count");
    for json in &serial {
        assert!(json.contains("\"faults\":{"), "fault section missing from {json}");
    }
}

#[test]
fn cached_faulted_points_round_trip_bytes() {
    let cache = EvalCache::new();
    let spec = faulted_spec();
    let opts = ExploreOptions { threads: 2, cache: Some(&cache), observer: &Silent };
    let first = explore_with(&spec, LineRate::TEN_GBE, &Constraints::default(), &opts);
    let second = explore_with(&spec, LineRate::TEN_GBE, &Constraints::default(), &opts);
    assert_eq!(cache.hits(), 4, "the repeat sweep is answered from the cache");
    for (a, b) in first.all.iter().zip(&second.all) {
        assert_eq!(a.scenario.as_ref().unwrap().to_json(), b.scenario.as_ref().unwrap().to_json());
    }
}

#[test]
fn storm_injects_and_the_metrics_say_so() {
    let report = EvalRequest::new(ArchConfig::three_bus_one_fu(RoutingTableKind::Cam))
        .entries(8)
        .workload(small_workload())
        .faults(FaultPlan::storm())
        .run();
    let metrics = report.scenario.as_ref().expect("workload attached");
    let faults = metrics.faults.as_ref().expect("fault plan attached");
    assert!(faults.injected() > 0, "storm must inject: {}", metrics.to_json());
    assert!(faults.injected_malformed > 0);
    assert!(faults.injected_corruptions > 0);
    assert!(faults.injected_flaps > 0);
    assert!(faults.detected_malformed > 0, "malformed frames must be detected and dropped");
    assert!(faults.recovered > 0, "bounded repairs must complete within the horizon");
    // The storm also steals simulator cycles during measurement.
    assert!(report.stats.injected_stall_cycles > 0);
}

#[test]
fn fault_free_requests_carry_no_fault_section() {
    let report = EvalRequest::new(ArchConfig::three_bus_one_fu(RoutingTableKind::Cam))
        .entries(8)
        .workload(small_workload())
        .run();
    let metrics = report.scenario.as_ref().expect("workload attached");
    assert!(metrics.faults.is_none());
    assert!(!metrics.to_json().contains("\"faults\""));
    assert_eq!(report.stats.injected_stall_cycles, 0);
}

#[test]
fn same_plan_reproduces_and_a_new_seed_does_not() {
    let request = |plan: FaultPlan| {
        EvalRequest::new(ArchConfig::three_bus_one_fu(RoutingTableKind::Cam))
            .entries(8)
            .workload(small_workload())
            .faults(plan)
    };
    let a = request(FaultPlan::storm()).run();
    let b = request(FaultPlan::storm()).run();
    assert_eq!(
        a.scenario.as_ref().unwrap().to_json(),
        b.scenario.as_ref().unwrap().to_json(),
        "same seed, same plan, same bytes"
    );
    let reseeded = request(FaultPlan::storm().with_seed(0xDEAD)).run();
    assert_ne!(
        a.scenario.as_ref().unwrap().to_json(),
        reseeded.scenario.as_ref().unwrap().to_json(),
        "a different fault seed must change the injection pattern"
    );
}

#[test]
fn injected_stalls_lengthen_the_measured_run() {
    let base = EvalRequest::new(ArchConfig::three_bus_one_fu(RoutingTableKind::Cam)).entries(8);
    let clean = base.clone().run();
    let stalled = base.faults(FaultPlan::stalls()).run();
    assert!(stalled.stats.injected_stall_cycles > 0);
    assert_eq!(
        stalled.stats.cycles,
        clean.stats.cycles + stalled.stats.injected_stall_cycles,
        "every stolen cycle is accounted for, nothing else changes"
    );
    assert!(stalled.cycles_per_datagram > clean.cycles_per_datagram);
}

#[test]
fn unrecovered_fault_bound_culls_points() {
    // Corruptions whose repair latency exceeds the scenario horizon can
    // never recover; a zero-tolerance bound must reject every point while
    // the unbounded constraint admits them.
    let hopeless = FaultPlan {
        corrupt_every: 10,
        repair_ticks: 10_000,
        repair_retries: 0,
        ..FaultPlan::none()
    };
    let spec = SweepSpec { faults: Some(hopeless), ..faulted_spec() };
    let cache = EvalCache::new();
    let opts = ExploreOptions { threads: 2, cache: Some(&cache), observer: &Silent };

    let lenient = explore_with(&spec, LineRate::TEN_GBE, &Constraints::default(), &opts);
    assert!(!lenient.admitted.is_empty(), "no bound: unrecovered faults do not disqualify");
    for i in &lenient.admitted {
        let faults = lenient.all[*i].scenario.as_ref().unwrap().faults.as_ref().unwrap();
        assert!(faults.unrecovered > 0, "the hopeless plan must leave faults unrecovered");
    }

    let strict = Constraints { max_unrecovered_faults: Some(0), ..Constraints::default() };
    let culled = explore_with(&spec, LineRate::TEN_GBE, &strict, &opts);
    assert!(culled.admitted.is_empty(), "zero tolerance must reject every point");

    // A bound at the worst observed count admits the same set as no bound.
    let worst = lenient
        .all
        .iter()
        .filter_map(|r| Some(r.scenario.as_ref()?.faults.as_ref()?.unrecovered))
        .max()
        .expect("every point carries fault metrics");
    let tolerant = Constraints { max_unrecovered_faults: Some(worst), ..Constraints::default() };
    let kept = explore_with(&spec, LineRate::TEN_GBE, &tolerant, &opts);
    assert_eq!(kept.admitted, lenient.admitted, "a bound at the maximum culls nothing");
}

#[test]
fn fault_bound_without_a_workload_does_not_panic_or_cull() {
    // A constraint referencing data that was never produced must be
    // ignored, not crash the sweep or disqualify everything.
    let spec = SweepSpec { workload: None, faults: None, ..faulted_spec() };
    let strict = Constraints {
        max_scenario_drops: Some(0),
        max_unrecovered_faults: Some(0),
        ..Constraints::default()
    };
    let ex = explore_with(
        &spec,
        LineRate::TEN_GBE,
        &strict,
        &ExploreOptions { threads: 2, cache: None, observer: &Silent },
    );
    assert!(!ex.admitted.is_empty(), "absent scenario data must not disqualify feasible points");
}
