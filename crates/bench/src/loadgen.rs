//! `taco-cli loadgen` — concurrent-client load generator for the `taco-served`
//! daemon.
//!
//! The daemon's event-loop rewrite claims one thing above all: a
//! persistent v2 session with in-flight pipelining sustains far more
//! evaluations per second than the v1 one-request-per-connection
//! dialect, because the per-request accept/handshake/teardown work
//! disappears.  This measures that claim on loopback:
//!
//! 1. an in-process daemon is started and one evaluation point is warmed
//!    into its cache, so every measured request takes the inline
//!    cache-hit fast path — the numbers isolate *serving* cost, not
//!    simulation cost;
//! 2. for each client count, N threads hammer the daemon twice — once
//!    opening a fresh connection per request (the v1 baseline), once
//!    over a single persistent session with a window of in-flight
//!    requests each — recording per-request latency into per-thread
//!    [`LatencyHistogram`]s (microsecond ticks) that merge into the
//!    percentile report.
//!
//! `scripts/verify.sh` runs it as the event loop's deadlock smoke; for
//! serving numbers with a stated variance use `benchmarks/run.sh`
//! (`served-hot`, `served-oneshot`).

use std::collections::HashMap;
use std::io::Write;
use std::net::SocketAddr;
use std::process::exit;
use std::thread;
use std::time::Instant;

use crate::cli::Cli;
use taco_core::api::{ApiRequest, ApiResponse, Envelope, EvalSpec, WireResponse};
use taco_core::{ArchConfig, RoutingTableKind};
use taco_served::{request_lines, Server, ServerConfig, Session};
use taco_workload::LatencyHistogram;

/// The measured request: a single-bus CAM evaluation, tiny table.  It is
/// warmed once so every timed request is an inline cache hit.
fn probe() -> ApiRequest {
    let mut spec = EvalSpec::new(ArchConfig::one_bus_one_fu(RoutingTableKind::Cam));
    spec.entries = 8;
    ApiRequest::Eval(spec)
}

fn start_server() -> (SocketAddr, thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServerConfig::default()).unwrap_or_else(|e| {
        eprintln!("loadgen: cannot bind a loopback daemon: {e}");
        exit(1);
    });
    let addr = server.local_addr();
    (addr, thread::spawn(move || server.run()))
}

fn shut_down(addr: SocketAddr) {
    let _ = request_lines(addr, &ApiRequest::Shutdown.to_json());
}

fn expect_eval(response: &ApiResponse) {
    if !matches!(response, ApiResponse::EvalResult(_)) {
        eprintln!("loadgen: daemon answered {response:?} instead of an eval_result");
        exit(1);
    }
}

/// Cheap response validation for the measured loops: the first response
/// each client sees is parsed strictly; the rest only have their kind
/// checked by substring.
fn expect_eval_line(line: &str, strict: bool) {
    if strict {
        expect_eval(&WireResponse::from_json(line).expect("well-formed response").response);
    } else if !line.contains("\"kind\":\"eval_result\"") {
        eprintln!("loadgen: daemon answered {line:?} instead of an eval_result");
        exit(1);
    }
}

/// One phase's merged measurement.
struct Measured {
    wall_secs: f64,
    requests: u64,
    latency: LatencyHistogram,
}

impl Measured {
    fn rps(&self) -> f64 {
        self.requests as f64 / self.wall_secs
    }
}

/// Runs `client` on `clients` concurrent threads — each returns the
/// latencies of its `requests` requests — and merges what they measured.
fn run_clients(
    clients: usize,
    requests: usize,
    client: impl Fn() -> LatencyHistogram + Sync,
) -> Measured {
    let started = Instant::now();
    let histograms: Vec<LatencyHistogram> = thread::scope(|s| {
        let handles: Vec<_> = (0..clients).map(|_| s.spawn(&client)).collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall_secs = started.elapsed().as_secs_f64();
    let mut latency = LatencyHistogram::new();
    for h in &histograms {
        latency.merge(h);
    }
    Measured { wall_secs, requests: (clients * requests) as u64, latency }
}

/// N clients, each opening a fresh connection per request — the v1
/// one-shot baseline.
fn run_oneshot(addr: SocketAddr, clients: usize, requests: usize) -> Measured {
    let line = probe().to_json();
    run_clients(clients, requests, || {
        let mut histogram = LatencyHistogram::new();
        for i in 0..requests {
            let t0 = Instant::now();
            let lines = request_lines(addr, &line).unwrap_or_else(|e| {
                eprintln!("loadgen: one-shot request failed: {e}");
                exit(1);
            });
            histogram.record(t0.elapsed().as_micros() as u64);
            expect_eval_line(&lines[0], i == 0);
        }
        histogram
    })
}

/// N clients, each holding one persistent v2 session with `window`
/// requests in flight — the event loop's native mode.
fn run_session(addr: SocketAddr, clients: usize, requests: usize, window: usize) -> Measured {
    let request = probe();
    run_clients(clients, requests, || {
        let mut histogram = LatencyHistogram::new();
        let mut session = Session::connect(addr).unwrap_or_else(|e| {
            eprintln!("loadgen: cannot open a session: {e}");
            exit(1);
        });
        let mut sent_at: HashMap<u64, Instant> = HashMap::new();
        let mut sent = 0usize;
        let mut done = 0usize;
        while done < requests {
            while sent < requests && sent_at.len() < window {
                let id = session.send(&request).unwrap_or_else(|e| {
                    eprintln!("loadgen: session send failed: {e}");
                    exit(1);
                });
                sent_at.insert(id, Instant::now());
                sent += 1;
            }
            let line = session.recv_line().unwrap_or_else(|e| {
                eprintln!("loadgen: session recv failed: {e}");
                exit(1);
            });
            // The daemon writes the encoder's spelling, so the envelope
            // splits off unparsed: a full parse per response would measure
            // this client, not the server.
            let t0 = match Envelope::split(&line) {
                Some((Envelope::V2(Some(id)), _)) => sent_at.remove(&id),
                _ => None,
            }
            .expect("response for an in-flight id");
            histogram.record(t0.elapsed().as_micros() as u64);
            expect_eval_line(&line, done == 0);
            done += 1;
        }
        histogram
    })
}

struct LoadRow {
    clients: usize,
    baseline: Measured,
    session: Measured,
}

fn render_json(rows: &[LoadRow], requests: usize, window: usize) -> String {
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"requests_per_client\": {requests},\n"));
    json.push_str(&format!("  \"session_window\": {window},\n"));
    json.push_str("  \"load\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"clients\": {}, \"oneshot_rps\": {:.0}, \"session_rps\": {:.0}, \
             \"speedup\": {:.2}, \"oneshot_p50_us\": {}, \"oneshot_p99_us\": {}, \
             \"session_p50_us\": {}, \"session_p90_us\": {}, \"session_p99_us\": {}}}{sep}\n",
            row.clients,
            row.baseline.rps(),
            row.session.rps(),
            row.session.rps() / row.baseline.rps(),
            row.baseline.latency.p50(),
            row.baseline.latency.p99(),
            row.session.latency.p50(),
            row.session.latency.p90(),
            row.session.latency.p99(),
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

pub fn run(args: Vec<String>) {
    let cli =
        Cli::new("taco-cli loadgen", "measure taco-served throughput and latency on loopback")
            .opt("--clients", "LIST", "comma-separated concurrent client counts (default 8,64,256)")
            .opt("--requests", "N", "measured requests per client (default 200)")
            .opt("--window", "N", "in-flight requests per v2 session (default 8)")
            .opt("--json", "PATH", "also write the measurements as a JSON artefact");
    let args = cli.parse_args_or_exit(args);
    let clients = args
        .opt_list("--clients", |item| {
            item.parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("--clients entries must be positive integers, got {item:?}"))
        })
        .unwrap_or_else(|e| cli.fail(&e))
        .unwrap_or_else(|| vec![8, 64, 256]);
    let requests: usize =
        args.opt_parsed("--requests").unwrap_or_else(|e| cli.fail(&e)).unwrap_or(200);
    let window: usize =
        args.opt_parsed("--window").unwrap_or_else(|e| cli.fail(&e)).unwrap_or(8).max(1);

    let (addr, handle) = start_server();
    // Warm the probe point: the measured phases must hit the inline
    // cache path so they benchmark serving, not simulation.
    let lines = request_lines(addr, &probe().to_json()).expect("warmup request");
    expect_eval(&ApiResponse::from_json(&lines[0]).expect("warmup response"));
    // A short unmeasured burst settles one-time costs (the daemon's
    // response memo, thread stacks, allocator warm-up) before timing.
    run_session(addr, 2, 100, window);

    println!("loadgen: {} requests/client, session window {window}, daemon at {addr}", requests);
    println!(
        "{:>8} | {:>12} {:>11} | {:>12} {:>11} {:>11} | {:>7}",
        "clients", "oneshot rps", "p50 us", "session rps", "p50 us", "p99 us", "speedup"
    );
    let mut rows = Vec::new();
    for &n in &clients {
        let baseline = run_oneshot(addr, n, requests);
        let session = run_session(addr, n, requests, window);
        println!(
            "{:>8} | {:>12.0} {:>11} | {:>12.0} {:>11} {:>11} | {:>6.2}x",
            n,
            baseline.rps(),
            baseline.latency.p50(),
            session.rps(),
            session.latency.p50(),
            session.latency.p99(),
            session.rps() / baseline.rps(),
        );
        rows.push(LoadRow { clients: n, baseline, session });
    }
    shut_down(addr);
    let _ = handle.join();

    if let Some(path) = args.opt("--json") {
        let json = render_json(&rows, requests, window);
        let mut file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("loadgen: cannot write {path}: {e}");
            exit(1);
        });
        file.write_all(json.as_bytes()).expect("write bench json");
        println!("wrote {path}");
    }
}
