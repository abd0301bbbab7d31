//! Exhaustive wire round-trip of the `v1` API over every builtin
//! combination.
//!
//! The wire schema's core contract is *identity*: `to_json` followed by
//! `from_json` must reproduce the request exactly, and re-serialising the
//! parse must reproduce the original bytes (the byte-stability the daemon
//! tests pin golden fixtures against).  This suite enumerates the whole
//! builtin cross product — every routing-table organisation × machine
//! shape × workload × fault plan × line rate — rather than sampling it;
//! the grid is a few thousand encode/parse pairs and no simulation, so it
//! stays cheap.  (The root package's `tests/fuzz_wire.rs` runs the same
//! property over *randomised* specs, and mutates them.)

use taco_core::api::{ApiRequest, Envelope, EvalSpec};
use taco_core::{ArchConfig, Constraints, FaultPlan, LineRate, SweepSpec, TableKind, Workload};

const KINDS: [TableKind; 4] = TableKind::ALL_KINDS;

/// The machine shapes of Table 1 plus an asymmetric-ish corner (4 buses,
/// 2× replication) the paper never builds.
const SHAPES: [(u8, u8); 4] = [(1, 1), (3, 1), (3, 3), (4, 2)];

const RATES: [LineRate; 3] = [LineRate::TEN_GBE, LineRate::GIGE, LineRate::TEN_GBE_MIN_FRAMES];

fn workload_options() -> Vec<Option<Workload>> {
    let mut options = vec![None];
    options.extend(Workload::builtin().into_iter().map(Some));
    options
}

fn fault_options() -> Vec<Option<FaultPlan>> {
    let mut options = vec![None];
    options.extend(FaultPlan::builtin().into_iter().map(|(_, plan)| Some(plan)));
    options
}

/// One encode→parse→re-encode cycle, asserting identity both ways.
fn assert_round_trip(request: &ApiRequest) {
    let line = request.to_json();
    let parsed = ApiRequest::from_json(&line)
        .unwrap_or_else(|e| panic!("own serialisation must parse: {e}\n{line}"));
    assert_eq!(&parsed, request, "{line}");
    assert_eq!(parsed.to_json(), line, "re-serialisation must be byte-identical");
}

#[test]
fn every_builtin_eval_combination_round_trips() {
    let workloads = workload_options();
    let faults = fault_options();
    let mut combinations = 0usize;
    for kind in KINDS {
        for (buses, replication) in SHAPES {
            for rate in RATES {
                for workload in &workloads {
                    for fault in &faults {
                        let config = ArchConfig::with_replication(kind, buses, replication);
                        let mut spec = EvalSpec::new(config);
                        spec.rate = rate;
                        spec.entries = 32;
                        spec.workload = *workload;
                        spec.faults = *fault;
                        assert_round_trip(&ApiRequest::Eval(spec));
                        combinations += 1;
                    }
                }
            }
        }
    }
    // 4 kinds × 4 shapes × 3 rates × (1 + builtins) × (1 + plans): the
    // count pins the enumeration itself so a shrinking builtin list
    // cannot silently hollow the test out.
    let expected = KINDS.len()
        * SHAPES.len()
        * RATES.len()
        * (1 + Workload::builtin().len())
        * (1 + FaultPlan::builtin().len());
    assert_eq!(combinations, expected);
    assert!(combinations >= 4 * 4 * 3 * 5 * 6, "builtin lists shrank: {combinations}");
}

#[test]
fn every_machine_combination_round_trips() {
    // Every table kind × machine shape × memory-port count, each through
    // a full eval request cycle in the one flat form a machine has.
    let mut combinations = 0usize;
    for kind in KINDS {
        for (buses, replication) in SHAPES {
            for memory_ports in 1..=3 {
                let mut config = ArchConfig::with_replication(kind, buses, replication);
                if memory_ports > 1 {
                    config = config.with_memory_ports(memory_ports);
                }
                let flat = format!(
                    "\"config\":{{\"table\":\"{kind}\",\"buses\":{buses},\
                     \"replication\":{replication},\"memory_ports\":{memory_ports}}},"
                );
                let mut eval = EvalSpec::new(config);
                eval.entries = 32;
                let request = ApiRequest::Eval(eval);
                assert!(request.to_json().contains(&flat), "{}", request.to_json());
                assert_round_trip(&request);
                combinations += 1;
            }
        }
    }
    assert_eq!(combinations, KINDS.len() * SHAPES.len() * 3);
}

#[test]
fn every_builtin_sweep_combination_round_trips() {
    let constraint_corners = [
        Constraints::default(),
        Constraints { max_scenario_drops: Some(0), ..Constraints::default() },
        Constraints {
            max_power_w: 0.5,
            max_area_mm2: 12.25,
            max_scenario_drops: Some(1000),
            max_unrecovered_faults: Some(3),
        },
    ];
    for workload in workload_options() {
        for fault in fault_options() {
            for constraints in constraint_corners {
                for rate in RATES {
                    let spec = SweepSpec { workload, faults: fault, ..SweepSpec::default() };
                    assert_round_trip(&ApiRequest::Sweep { spec, rate, constraints });
                }
            }
        }
    }
}

#[test]
fn control_requests_round_trip() {
    assert_round_trip(&ApiRequest::Status);
    assert_round_trip(&ApiRequest::Shutdown);
}

/// One encode→parse→re-encode cycle under the v2 envelope, asserting
/// identity of the request, the id, and the bytes.
fn assert_round_trip_v2(request: &ApiRequest, id: u64) {
    let line = request.to_json_v2(id);
    let (envelope, parsed) = ApiRequest::from_wire(&line)
        .unwrap_or_else(|e| panic!("own v2 serialisation must parse: {e}\n{line}"));
    assert_eq!(envelope, Envelope::V2(Some(id)), "{line}");
    assert_eq!(&parsed, request, "{line}");
    assert_eq!(parsed.to_json_v2(id), line, "re-serialisation must be byte-identical");
}

/// The v2 wire surface: the v1 kinds, each under a session id.
#[test]
fn v2_session_kinds_round_trip() {
    let eval = EvalSpec::new(ArchConfig::three_bus_one_fu(TableKind::Cam));
    let sweep = ApiRequest::Sweep {
        spec: SweepSpec::default(),
        rate: LineRate::TEN_GBE,
        constraints: Constraints::default(),
    };
    for (id, request) in [
        (0u64, ApiRequest::Eval(eval)),
        (7, sweep),
        (u64::MAX, ApiRequest::Status),
        (2, ApiRequest::Shutdown),
    ] {
        assert_round_trip_v2(&request, id);
    }
}
