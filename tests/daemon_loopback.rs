//! Tier-1 fails when serving is broken.
//!
//! One daemon on an ephemeral loopback port, driven the way a client
//! drives it: `status`, the twelve Table 1 cells (each answered with the
//! bytes of `crates/core/tests/golden/table1.json`), then the well-formed
//! one-line requests that used to take the daemon down or occupy it for
//! hours — each five times over, each answered by a structured error — and
//! the daemon must still report every job slot free and acknowledge
//! `shutdown`.  Every socket read runs under a timeout, so a request the
//! daemon never answers fails the test instead of hanging it.  A second
//! daemon is handed a snapshot this build cannot read and must boot cold.

use std::io::BufRead;
use std::net::SocketAddr;
use std::time::Duration;

use taco::eval::api::{ApiRequest, ApiResponse, StatusInfo};
use taco::eval::{
    ArchConfig, Constraints, EvalCache, EvalRequest, FaultPlan, FlowTrace, LineRate, SnapshotError,
    SweepSpec, TableKind, Workload,
};
use taco::served::{open_request, Server, ServerConfig};
use taco_workload::trace::trace_fnv1a64;

/// Longest wait for any one response line.  The slowest legitimate answer
/// here (a 8193-entry table prepared in a debug build) takes well under a
/// second; a wedged runner never answers.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// How often each poison line is sent: one more than the daemon's four job
/// slots, so leaking a slot per line would end in `busy`.
const REPEATS: usize = 5;

/// Sends one v1 request and collects its response lines until the daemon
/// closes the connection.
fn exchange(addr: SocketAddr, request: &str) -> Vec<String> {
    let reader = open_request(addr, request).expect("connect and send");
    reader.get_ref().set_read_timeout(Some(READ_TIMEOUT)).expect("set read timeout");
    reader
        .lines()
        .collect::<Result<Vec<_>, _>>()
        .unwrap_or_else(|e| panic!("no answer within {READ_TIMEOUT:?} ({e}) to {request}"))
}

fn status(addr: SocketAddr) -> StatusInfo {
    let lines = exchange(addr, &ApiRequest::Status.to_json());
    match ApiResponse::from_json(&lines[0]).expect("parse status") {
        ApiResponse::Status(info) => info,
        other => panic!("expected status_result, got {other:?}"),
    }
}

fn cam_eval(entries: usize) -> String {
    let mut spec = EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam));
    spec.entries = entries;
    ApiRequest::Eval(spec).to_json()
}

fn cam_sweep(entries: usize) -> String {
    let spec = SweepSpec {
        buses: vec![3],
        replication: vec![1],
        kinds: vec![TableKind::Cam],
        entries,
        ..SweepSpec::default()
    };
    ApiRequest::Sweep { spec, rate: LineRate::TEN_GBE, constraints: Constraints::default() }
        .to_json()
}

#[test]
fn status_table1_poison_lines_status_shutdown() {
    let server = Server::bind(ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.run());

    let idle = status(addr);
    assert_eq!((idle.in_flight, idle.queued, idle.max_pending, idle.draining), (0, 0, 4, false));
    assert_eq!(idle.cache.entries, 0);

    // The twelve Table 1 cells, in the fixture's line order.
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/core/tests/golden/table1.json"
    ))
    .expect("golden Table 1 fixture");
    let cells = ArchConfig::table1_cells();
    assert_eq!(golden.lines().count(), cells.len());
    for (config, cell) in cells.iter().zip(golden.lines()) {
        let lines = exchange(addr, &ApiRequest::Eval(EvalRequest::new(config.clone())).to_json());
        assert_eq!(lines.len(), 1, "an eval answers with exactly one line");
        let head = format!("{{\"api_version\":\"v1\",\"kind\":\"eval_result\",\"cell\":{cell},");
        assert!(lines[0].starts_with(&head), "{} drifted from the fixture: {}", config, lines[0]);
    }

    // Each of these is well-formed JSON of a known kind.  The first four
    // ran (or tried to run) on a runner thread: one more CAM row than the
    // chip has panicked there and leaked the job slot; 10^12 entries kept
    // it busy until the machine ran out of memory.  The fifth named a file
    // for the event-loop thread itself to read.  (Never a FIFO or
    // /dev/zero here: against a daemon that still opens the path those
    // hang or kill the test runner, not just the test.)  The next two size
    // a scenario instead of a table — 2^32 - 1 ticks in a workload member
    // and in an inline trace's header — and kept a runner for hours.
    let with_path = cam_eval(8).replacen(
        "\"entries\":8",
        "\"entries\":8,\"trace\":{\"path\":\"/nonexistent/taco.trace\"}",
        1,
    );
    // What a structured refusal looks like: an error naming the field, or a
    // report that says why the instance cannot be simulated.
    let too_many = "\\\"entries\\\" must be in 1..=65536";
    let cam_full = "\"sim_error\":\"routing table does not fit: CAM holds 8192 rows\"";
    // A kind the wire spelled through PR 20 is what any unknown kind is.
    let trie_eval = cam_eval(8).replacen("\"table\":\"cam\"", "\"table\":\"trie\"", 1);
    let four_kinds = "\\\"table\\\" must be one of: sequential, balanced-tree, cam, patricia";
    let mut greedy = EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam));
    greedy.workload = Some(Workload::SteadyForward {
        seed: 1,
        ticks: u32::MAX,
        packets_per_tick: 24,
        entries: 8,
    });
    let greedy_workload = ApiRequest::Eval(greedy.clone()).to_json();
    greedy.workload = None;
    let header = format!(
        "taco-flowtrace v1\nseed 1\nticks {}\nflows 1\nentries 8\nrecords 0\nchecksum {:016x}\n",
        u32::MAX,
        trace_fnv1a64(&[])
    );
    let endless = FlowTrace::from_bytes(header.as_bytes()).expect("no records");
    greedy.flow_trace = Some(std::sync::Arc::new(endless));
    let greedy_trace = ApiRequest::Eval(greedy).to_json();
    // 2^63 thousandths of a malformed frame a tick: the plan's own loop,
    // which no workload member sizes.
    let mut stormy = EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam));
    stormy.workload = Some(Workload::steady_forward());
    stormy.faults = Some(FaultPlan { malformed_per_tick_milli: 1 << 63, ..FaultPlan::none() });
    let greedy_faults = ApiRequest::Eval(stormy).to_json();
    let poison = [
        ("eval cam 8193", cam_eval(8193), cam_full),
        ("eval 10^12", cam_eval(1_000_000_000_000), too_many),
        ("sweep cam 8193", cam_sweep(8193), cam_full),
        ("sweep 10^12", cam_sweep(1_000_000_000_000), too_many),
        ("trace path", with_path, "unknown field \\\"path\\\""),
        ("eval trie", trie_eval, four_kinds),
        ("workload 2^32-1 ticks", greedy_workload, "workload: \\\"ticks\\\" must be at most"),
        ("trace 2^32-1 ticks", greedy_trace, "trace header: \\\"ticks\\\" must be at most"),
        ("faults 2^63 frames a tick", greedy_faults, "eval spec: \\\"faults\\\" injects up to"),
    ];
    for round in 0..REPEATS {
        for (name, request, refusal) in &poison {
            let lines = exchange(addr, request);
            let last =
                lines.last().unwrap_or_else(|| panic!("{name}: connection closed unanswered"));
            assert!(last.contains(refusal), "{name}, round {round}: {last}");
        }
    }

    let after = status(addr);
    assert_eq!((after.in_flight, after.queued), (0, 0), "a poison line leaked a job slot");

    let ack = exchange(addr, &ApiRequest::Shutdown.to_json());
    assert!(
        matches!(ApiResponse::from_json(&ack[0]), Ok(ApiResponse::ShutdownAck { .. })),
        "{ack:?}"
    );
    daemon.join().expect("server thread").expect("clean exit");
}

#[test]
fn a_snapshot_holding_a_trie_entry_is_refused_whole_and_the_daemon_boots_cold() {
    // What a daemon could persist through PR 20: one entry this build still
    // reads and one whose table kind it no longer has, under a valid
    // checksum.
    let cache = EvalCache::new();
    for kind in [TableKind::Cam, TableKind::Patricia] {
        cache.evaluate(&EvalRequest::new(ArchConfig::three_bus_one_fu(kind)).entries(8));
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("trie-entry-{}.snapshot", std::process::id()));
    cache.save_snapshot(&path).expect("write snapshot");
    let saved = std::fs::read_to_string(&path).expect("read snapshot back");
    let body: String =
        saved.lines().skip(2).map(|line| line.replace("patricia", "trie") + "\n").collect();
    assert!(body.contains("\"table\":\"trie\"") && body.contains("\"table\":\"cam\""), "{body}");
    let content = format!(
        "taco-evalcache-snapshot v1\nchecksum {:016x}\n{body}",
        trace_fnv1a64(body.as_bytes())
    );
    std::fs::write(&path, content).expect("write snapshot");

    let cold = EvalCache::new();
    match cold.load_snapshot(&path) {
        Err(SnapshotError::Entry { message, .. }) => {
            assert!(message.contains("\"table\" must be one of"), "{message}");
        }
        other => panic!("expected the trie entry to be refused, got {other:?}"),
    }
    assert!(cold.is_empty(), "the readable entry must not load either");

    let config = ServerConfig { snapshot: Some(path.clone()), ..ServerConfig::default() };
    let server = Server::bind(config).expect("bind loopback");
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.run());
    assert_eq!(status(addr).cache.entries, 0);
    exchange(addr, &ApiRequest::Shutdown.to_json());
    daemon.join().expect("server thread").expect("clean exit");
    std::fs::remove_file(&path).ok();
}
