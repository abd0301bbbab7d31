//! Loopback integration tests for the `taco-served` daemon.
//!
//! The contract under test is the tentpole promise of the wire API: a
//! batch of the twelve extended Table 1 cells answers **byte-identically**
//! to the golden fixture (`crates/core/tests/golden/table1.json`) whether
//! the daemon computes cold, answers from its warm in-memory cache, or is
//! restarted and answers from the persisted snapshot; over-capacity
//! submissions get a structured `busy` error (never a hang or a panic);
//! and shutdown drains in-flight work before acknowledging.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread;

use taco_core::api::{table1_cell_json, ApiErrorCode, ApiRequest, ApiResponse, EvalSpec};
use taco_core::{ArchConfig, Constraints, FaultPlan, LineRate, SweepSpec, TableKind};
use taco_served::{open_request, request_lines, Server, ServerConfig};

fn temp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("taco-served-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn start(config: ServerConfig) -> (SocketAddr, thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(config).expect("bind loopback");
    let addr = server.local_addr();
    (addr, thread::spawn(move || server.run()))
}

fn shut_down(addr: SocketAddr) -> Option<u64> {
    let lines = request_lines(addr, &ApiRequest::Shutdown.to_json()).expect("shutdown");
    match ApiResponse::from_json(&lines[0]).expect("parse ack") {
        ApiResponse::ShutdownAck { persisted } => persisted,
        other => panic!("expected shutdown_ack, got {other:?}"),
    }
}

fn status(addr: SocketAddr) -> taco_core::api::StatusInfo {
    let lines = request_lines(addr, &ApiRequest::Status.to_json()).expect("status");
    match ApiResponse::from_json(&lines[0]).expect("parse status") {
        ApiResponse::Status(info) => info,
        other => panic!("expected status_result, got {other:?}"),
    }
}

/// The twelve Table 1 cells as wire requests, in the paper's order with
/// the PATRICIA rows appended (the golden fixture's line order).
fn table1_requests() -> Vec<String> {
    ArchConfig::table1_cells()
        .into_iter()
        .map(|config| ApiRequest::Eval(EvalSpec::new(config)).to_json())
        .collect()
}

fn submit_batch(addr: SocketAddr, requests: &[String]) -> Vec<String> {
    requests
        .iter()
        .map(|request| {
            let mut lines = request_lines(addr, request).expect("eval response");
            assert_eq!(lines.len(), 1, "an eval answers with exactly one line");
            lines.remove(0)
        })
        .collect()
}

#[test]
fn twelve_cell_batch_matches_golden_cold_and_from_persisted_snapshot() {
    let dir = temp_dir("golden");
    let snapshot = dir.join("cache.snapshot");
    let config = ServerConfig { snapshot: Some(snapshot.clone()), ..ServerConfig::default() };
    let (addr, handle) = start(config.clone());

    let requests = table1_requests();
    let cold = submit_batch(addr, &requests);

    // Every cold response's cell must be byte-identical to the golden
    // fixture's corresponding line.
    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/tests/golden/table1.json");
    let golden = std::fs::read_to_string(&golden_path).expect("golden Table 1 fixture");
    let golden_lines: Vec<&str> = golden.lines().collect();
    assert_eq!(golden_lines.len(), cold.len());
    for (response, fixture_cell) in cold.iter().zip(&golden_lines) {
        match ApiResponse::from_json(response).expect("parse eval result") {
            ApiResponse::EvalResult(report) => {
                assert_eq!(&table1_cell_json(&report), fixture_cell);
            }
            other => panic!("expected eval_result, got {other:?}"),
        }
    }

    // The batch was computed cold: twelve lookups, twelve misses.
    let cold_status = status(addr);
    assert_eq!(
        (cold_status.cache.entries, cold_status.cache.hits, cold_status.cache.misses),
        (12, 0, 12)
    );

    // A warm re-submission in the same process is answered from memory,
    // byte-identically.
    assert_eq!(submit_batch(addr, &requests), cold);
    assert_eq!(status(addr).cache.hits, 12);

    // Graceful shutdown persists all twelve entries...
    assert_eq!(shut_down(addr), Some(12));
    handle.join().expect("server thread").expect("clean exit");

    // ...and a restarted daemon answers the same batch from the snapshot:
    // byte-identical responses, zero misses.
    let (addr, handle) = start(config);
    assert_eq!(submit_batch(addr, &requests), cold, "snapshot-warmed responses drifted");
    let warm_status = status(addr);
    assert_eq!(
        (warm_status.cache.entries, warm_status.cache.hits, warm_status.cache.misses),
        (12, 12, 0)
    );
    assert_eq!(shut_down(addr), Some(12));
    handle.join().expect("server thread").expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_replay_over_the_wire_matches_in_process_replay_byte_for_byte() {
    use taco_core::{explore, EvalRequest, TraceGen};

    let trace = TraceGen::generate(404, 80, 12, 8);

    // The in-process reference replay of the same trace.
    let local = EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam))
        .entries(8)
        .flow_trace(std::sync::Arc::new(trace.clone()))
        .run();
    let local_json = local.scenario.as_ref().expect("trace metrics").to_json();

    let (addr, handle) = start(ServerConfig::default());
    let mut spec = EvalSpec::new(ArchConfig::three_bus_one_fu(TableKind::Cam));
    spec.entries = 8;

    // Inline submission — the wire form `taco-cli submit --trace` sends.
    let trace = std::sync::Arc::new(trace);
    spec.trace = Some(trace.clone());
    let wire_json = |spec: &EvalSpec| {
        let lines = request_lines(addr, &ApiRequest::Eval(spec.clone()).to_json()).expect("eval");
        match ApiResponse::from_json(&lines[0]).expect("parse eval result") {
            ApiResponse::EvalResult(report) => {
                report.scenario.as_ref().expect("trace metrics over the wire").to_json()
            }
            other => panic!("expected eval_result, got {other:?}"),
        }
    };
    assert_eq!(wire_json(&spec), local_json, "inline trace replay drifted from in-process");

    // A sweep carrying only a trace (no workload) replays it on every
    // point, exactly as the local explorer does.
    let sweep_spec = SweepSpec {
        buses: vec![1, 3],
        replication: vec![1],
        kinds: vec![TableKind::Cam],
        entries: 8,
        trace: Some(trace),
        ..SweepSpec::default()
    };
    let local = explore(&sweep_spec, LineRate::TEN_GBE, &Constraints::default());
    assert!(local.all.iter().all(|r| r.scenario.is_some()), "the trace must run on every point");
    let sweep = ApiRequest::Sweep {
        spec: sweep_spec,
        rate: LineRate::TEN_GBE,
        constraints: Constraints::default(),
    };
    let lines = request_lines(addr, &sweep.to_json()).expect("trace sweep");
    match ApiResponse::from_json(lines.last().expect("sweep_result")).expect("parse") {
        ApiResponse::SweepResult { admitted, reports } => {
            assert_eq!(reports, local.all, "trace-only sweep drifted from the local explorer");
            assert_eq!(admitted, local.admitted);
        }
        other => panic!("expected sweep_result, got {other:?}"),
    }

    shut_down(addr);
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn corrupt_wire_traces_are_structured_bad_requests() {
    let (addr, handle) = start(ServerConfig::default());
    let mut spec = EvalSpec::new(ArchConfig::three_bus_one_fu(TableKind::Cam));
    spec.entries = 8;
    let request = ApiRequest::Eval(spec);

    // Bad hex in an inline trace, and valid hex that is not a trace body:
    // refused as the frame is parsed.  A refused first frame sets no
    // dialect, so a v2 one is answered in v1 and the connection closed.
    for corrupt in ["zz", "00ff"] {
        let trace = format!("\"entries\":8,\"trace\":{{\"inline\":\"{corrupt}\"}}");
        for line in [request.to_json(), request.to_json_v2(3)] {
            let line = line.replacen("\"entries\":8", &trace, 1);
            let reader = open_request(addr, &line).expect("eval");
            reader.get_ref().set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
            let lines: Vec<String> =
                std::io::BufRead::lines(reader).collect::<Result<_, _>>().expect("closed");
            assert_eq!(lines.len(), 1, "{lines:?}");
            match ApiResponse::from_json(&lines[0]).expect("a v1 error line") {
                ApiResponse::Error(e) => {
                    assert_eq!(e.code, ApiErrorCode::BadRequest);
                    assert!(e.message.starts_with("trace: "), "{line}: {}", e.message);
                }
                other => panic!("expected error, got {other:?}"),
            }
        }
    }

    shut_down(addr);
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn over_capacity_submissions_get_a_structured_busy_error() {
    // One job slot and one worker thread: while the sweep below runs, any
    // second submission must bounce with `busy` — and succeed on retry
    // once the slot drains.
    let config = ServerConfig { max_pending: 1, threads: 1, ..ServerConfig::default() };
    let (addr, handle) = start(config);

    // Two sequential-scan points over a large table: the second point
    // simulates for long enough (hundreds of milliseconds in a debug
    // build) that a loopback submission races well inside its window.
    // The injected stalls make the sweep step every point instead of
    // pricing it from the table's block profile, which would leave no
    // window.
    let sweep = ApiRequest::Sweep {
        spec: SweepSpec {
            buses: vec![1, 3],
            replication: vec![1],
            kinds: vec![TableKind::Sequential],
            entries: 4096,
            faults: Some(FaultPlan::stalls()),
            ..SweepSpec::default()
        },
        rate: LineRate::TEN_GBE,
        constraints: Constraints::default(),
    };
    let mut spec = EvalSpec::new(ArchConfig::three_bus_one_fu(TableKind::Cam));
    spec.entries = 8;
    let eval = ApiRequest::Eval(spec).to_json();

    let mut stream = open_request(addr, &sweep.to_json()).expect("open sweep");
    let mut first = String::new();
    std::io::BufRead::read_line(&mut stream, &mut first).expect("first progress line");
    match ApiResponse::from_json(first.trim_end()).expect("parse progress") {
        ApiResponse::SweepPoint { index: 0, total: 2, .. } => {}
        other => panic!("expected the first sweep_point, got {other:?}"),
    }

    // The slot is held until the sweep's client has the full response, so
    // this submission must be rejected — structured, immediate, no hang.
    let busy = request_lines(addr, &eval).expect("busy response");
    assert_eq!(busy.len(), 1);
    match ApiResponse::from_json(&busy[0]).expect("parse busy") {
        ApiResponse::Error(e) => assert_eq!(e.code, ApiErrorCode::Busy, "{e}"),
        other => panic!("expected busy error, got {other:?}"),
    }

    // Drain the sweep: one more progress line, then the final result with
    // both reports in sweep order.
    let rest: Vec<String> =
        std::io::BufRead::lines(stream).collect::<Result<_, _>>().expect("drain sweep");
    assert_eq!(rest.len(), 2, "one more sweep_point and the sweep_result: {rest:?}");
    match ApiResponse::from_json(&rest[1]).expect("parse sweep result") {
        ApiResponse::SweepResult { reports, .. } => assert_eq!(reports.len(), 2),
        other => panic!("expected sweep_result, got {other:?}"),
    }

    // The slot has drained; the same eval is admitted now.
    let retried = request_lines(addr, &eval).expect("retried eval");
    match ApiResponse::from_json(&retried[0]).expect("parse retried") {
        ApiResponse::EvalResult(report) => assert_eq!(report.table_entries, 8),
        other => panic!("expected eval_result after retry, got {other:?}"),
    }

    shut_down(addr);
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn corrupt_snapshots_are_discarded_not_fatal() {
    let dir = temp_dir("corrupt");
    let snapshot = dir.join("cache.snapshot");
    std::fs::write(&snapshot, "not a snapshot at all\n").expect("write garbage");
    let config = ServerConfig { snapshot: Some(snapshot.clone()), ..ServerConfig::default() };
    let (addr, handle) = start(config);

    // The daemon must come up serving, with an empty cache.
    assert_eq!(status(addr).cache.entries, 0);

    // And shutdown replaces the garbage with a valid (empty) snapshot.
    assert_eq!(shut_down(addr), Some(0));
    handle.join().expect("server thread").expect("clean exit");
    let rewritten = std::fs::read_to_string(&snapshot).expect("rewritten snapshot");
    assert!(rewritten.starts_with("taco-evalcache-snapshot v1"), "{rewritten}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_drains_in_flight_work_before_acknowledging() {
    let dir = temp_dir("drain");
    let snapshot = dir.join("cache.snapshot");
    let config = ServerConfig {
        max_pending: 1,
        threads: 1,
        snapshot: Some(snapshot.clone()),
        ..ServerConfig::default()
    };
    let (addr, handle) = start(config);

    let sweep = ApiRequest::Sweep {
        spec: SweepSpec {
            buses: vec![3],
            replication: vec![1],
            kinds: vec![TableKind::Cam, TableKind::BalancedTree],
            entries: 8,
            ..SweepSpec::default()
        },
        rate: LineRate::TEN_GBE,
        constraints: Constraints::default(),
    };
    let stream = open_request(addr, &sweep.to_json()).expect("open sweep");

    // Shutdown while the sweep is in flight: the ack only arrives after
    // the sweep's response is complete and its two points persisted.
    assert_eq!(shut_down(addr), Some(2));

    // The sweep client still holds a complete, well-formed response.
    let lines: Vec<String> =
        std::io::BufRead::lines(stream).collect::<Result<_, _>>().expect("sweep response");
    assert_eq!(lines.len(), 3, "two sweep_points and a sweep_result: {lines:?}");
    match ApiResponse::from_json(&lines[2]).expect("parse sweep result") {
        ApiResponse::SweepResult { admitted, reports } => {
            assert_eq!(reports.len(), 2);
            assert!(!admitted.is_empty(), "a 2 W budget admits the CAM cell");
        }
        other => panic!("expected sweep_result, got {other:?}"),
    }

    handle.join().expect("server thread").expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}
