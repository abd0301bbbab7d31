//! The daemon's engine: the event-loop thread that owns every socket
//! (framing, dialect sniffing, inline answers, admission) and the runner
//! threads it hands simulation-heavy jobs to.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use taco_core::api::{
    salvage_request_id, ApiError, ApiRequest, ApiResponse, CacheCounters, Envelope, StatusInfo,
};
use taco_core::{
    explore_with, Constraints, EvalRequest, ExploreOptions, LineRate, PointRecord, SweepObserver,
    SweepSpec,
};

use crate::{poll, Shared};

/// Largest accepted request frame in bytes (8 MiB); a connection exceeding
/// it gets a structured `bad_request` and is closed.
const MAX_FRAME: usize = 8 << 20;

/// A connection whose outgoing buffer grows past this bound is dropped:
/// the client is not reading, and the daemon must not buffer an unbounded
/// result set for it.
const MAX_WRITE_BUFFER: usize = 64 << 20;

/// How long the daemon keeps flushing drained connections after the
/// shutdown ack before giving up on slow readers.
const SHUTDOWN_FLUSH_DEADLINE: Duration = Duration::from_secs(10);

/// Distinct request bodies the inline hit memo holds before it resets.
/// The memo maps an eval request's envelope-independent body to the
/// serialised body of its cache-hit response, so a hammered point costs
/// one hash lookup instead of a parse + report serialisation per
/// request.  It is never stale — evaluation is deterministic and the
/// [`EvalCache`](taco_core::EvalCache) never evicts — so a full clear on
/// overflow only costs re-serialisation.
const HIT_MEMO_BOUND: usize = 4096;

/// One response line in the envelope its request came in.
fn line(envelope: Envelope, response: &ApiResponse) -> String {
    envelope.wrap(&response.body_json())
}

/// A connection's sniffed dialect (decided by its first frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dialect {
    V1,
    V2,
}

/// One admitted job, handed from the event loop to a runner thread.
struct Job {
    token: u64,
    envelope: Envelope,
    work: Work,
}

/// What a runner simulates, as the loop's dispatch already built and
/// range-checked it.
enum Work {
    Eval(EvalRequest),
    Sweep { spec: SweepSpec, rate: LineRate, constraints: Constraints },
}

/// A response fragment flowing from a runner back to the event loop.
enum LoopMsg {
    /// One response line for the connection `token`.
    Line { token: u64, line: String },
    /// The job for `token` is complete; its slot frees.
    Done { token: u64 },
}

/// The runner pool's shared queue.
#[derive(Default)]
struct Runners {
    queue: Mutex<RunnerQueue>,
    work: Condvar,
}

#[derive(Default)]
struct RunnerQueue {
    jobs: VecDeque<Job>,
    stop: bool,
}

/// Serves `listener` until a graceful shutdown completes — the body of
/// [`Server::run`](crate::Server::run).
pub(crate) fn run(listener: &TcpListener, shared: &Shared) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    // The waker: runners write a byte to their end, the loop polls the
    // other.  Both ends are non-blocking — a full pipe already means a
    // wake-up is pending, so a dropped poke byte is harmless.
    let (loop_waker, runner_waker) = UnixStream::pair()?;
    loop_waker.set_nonblocking(true)?;
    runner_waker.set_nonblocking(true)?;
    let runner_count = shared.threads.min(shared.max_pending).max(1);
    let wakers =
        (0..runner_count).map(|_| runner_waker.try_clone()).collect::<io::Result<Vec<_>>>()?;
    let (tx, rx) = mpsc::channel::<LoopMsg>();
    let runners = Runners::default();
    thread::scope(|s| {
        for waker in wakers {
            let tx = tx.clone();
            let runners = &runners;
            s.spawn(move || run_jobs(runners, shared, &tx, &waker));
        }
        drop(tx);
        let result = EventLoop::new(shared, &runners).serve(listener, &rx, &loop_waker);
        // Release the runner pool whether the loop ended cleanly or
        // errored, so the scope can join.
        runners.queue.lock().unwrap().stop = true;
        runners.work.notify_all();
        result
    })
}

/// Writes one byte into the waker pipe (best-effort: a full pipe or a
/// torn-down loop both already mean no poke is needed).
fn poke(waker: &UnixStream) {
    let _ = (&mut &*waker).write(&[1]);
}

/// Emits one response line for `token` and wakes the loop.
fn emit(tx: &Sender<LoopMsg>, waker: &UnixStream, token: u64, line: String) {
    let _ = tx.send(LoopMsg::Line { token, line });
    poke(waker);
}

// ---------------------------------------------------------------------------
// Runner threads: the simulation-heavy half.
// ---------------------------------------------------------------------------

fn run_jobs(runners: &Runners, shared: &Shared, tx: &Sender<LoopMsg>, waker: &UnixStream) {
    loop {
        let job = {
            let mut q = runners.queue.lock().unwrap();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.stop {
                    return;
                }
                q = runners.work.wait(q).unwrap();
            }
        };
        // A panicking evaluation costs its own request an `internal` error,
        // never the runner or the job slot: `Done` is sent on every path.
        let run = AssertUnwindSafe(|| execute(shared, &job, tx, waker));
        if let Err(panic) = catch_unwind(run) {
            let what = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            let error = ApiError::internal(format!("evaluation panicked: {what}"));
            emit(tx, waker, job.token, line(job.envelope, &ApiResponse::Error(error)));
        }
        let _ = tx.send(LoopMsg::Done { token: job.token });
        poke(waker);
    }
}

/// Streams [`ApiResponse::SweepPoint`] lines into the loop channel as
/// sweep workers finish points (completion order), wearing the job's
/// envelope.
struct Progress<'a> {
    tx: &'a Sender<LoopMsg>,
    waker: &'a UnixStream,
    token: u64,
    envelope: Envelope,
}

impl SweepObserver for Progress<'_> {
    fn on_point(&self, record: &PointRecord<'_>) {
        let point = ApiResponse::SweepPoint {
            index: record.index,
            total: record.total,
            label: record.report.config.label(),
            cache_hit: record.cache_hit,
            feasible: record.report.is_feasible(),
        };
        emit(self.tx, self.waker, self.token, line(self.envelope, &point));
    }
}

/// Runs one queued job, streaming its response lines to the loop.
fn execute(shared: &Shared, job: &Job, tx: &Sender<LoopMsg>, waker: &UnixStream) {
    let respond = |response: ApiResponse| emit(tx, waker, job.token, line(job.envelope, &response));
    match &job.work {
        Work::Eval(request) => {
            let (report, _cache_hit) = shared.cache.evaluate_recorded(request);
            respond(ApiResponse::EvalResult(Box::new(report)));
        }
        Work::Sweep { spec, rate, constraints } => {
            let progress = Progress { tx, waker, token: job.token, envelope: job.envelope };
            let opts = ExploreOptions {
                threads: shared.threads,
                cache: Some(&shared.cache),
                observer: &progress,
            };
            let exploration = explore_with(spec, *rate, constraints, &opts);
            respond(ApiResponse::SweepResult {
                admitted: exploration.admitted,
                reports: exploration.all,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// The event loop: sockets, framing, dispatch.
// ---------------------------------------------------------------------------

/// One client connection's loop-side state.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet framed into request lines.
    rbuf: Vec<u8>,
    /// Response bytes not yet accepted by the socket (`wpos` already
    /// written).
    wbuf: Vec<u8>,
    wpos: usize,
    /// Decided by the first frame; `None` until then.
    dialect: Option<Dialect>,
    /// Queued/running jobs whose response lines will still arrive.
    pending_jobs: usize,
    /// Close once the write buffer drains and no jobs are pending.
    closing: bool,
    /// Stop reading (one-shot request consumed or peer EOF).
    read_done: bool,
    /// Framing violation: keep *reading* but discard the bytes until the
    /// peer closes.  Closing with unread bytes in the receive queue would
    /// send an RST that can destroy the error response in flight, so the
    /// connection half-closes (FIN after the flushed error) and drains
    /// instead.
    discarding: bool,
    /// The write side has been shut down (discarding connections only).
    fin_sent: bool,
    /// A fatal buffer overflow or write error: drop at the next reap.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            dialect: None,
            pending_jobs: 0,
            closing: false,
            read_done: false,
            discarding: false,
            fin_sent: false,
            dead: false,
        }
    }

    fn flushed(&self) -> bool {
        self.wpos == self.wbuf.len()
    }

    /// Takes the dialect of a frame a fresh (or same-dialect) connection
    /// accepted: a v1 frame is the connection's only one.
    fn enter(&mut self, envelope: Envelope) {
        match envelope {
            Envelope::V1 => {
                self.dialect = Some(Dialect::V1);
                self.read_done = true;
            }
            Envelope::V2(_) => self.dialect = Some(Dialect::V2),
        }
    }

    /// Pushes response bytes; returns `false` when the connection's
    /// buffer bound is exceeded (the caller drops the connection).
    fn push_line(&mut self, line: &str) -> bool {
        if self.wbuf.len() - self.wpos + line.len() + 1 > MAX_WRITE_BUFFER {
            return false;
        }
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
        true
    }

    /// Pushes one complete response line and, for one-shot connections
    /// with nothing else pending, schedules the close.  The bytes go out
    /// in the loop's end-of-pass flush, so a pipelined batch of requests
    /// is answered with one write, not one write per response.
    fn push_response(&mut self, line: &str) {
        if !self.push_line(line) {
            self.dead = true;
            return;
        }
        if self.dialect != Some(Dialect::V2) && self.pending_jobs == 0 {
            self.closing = true;
            self.read_done = true;
        }
    }

    /// Writes as much buffered output as the socket accepts right now;
    /// returns `false` on a connection-fatal write error.
    fn try_flush(&mut self) -> bool {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return false,
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.flushed() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        true
    }
}

struct EventLoop<'a> {
    shared: &'a Shared,
    runners: &'a Runners,
    /// Keyed by accept-order token; a `BTreeMap` so each poll pass
    /// handles readable connections in arrival order — the fairness the
    /// old one-thread-per-connection server had implicitly (a `shutdown`
    /// accepted after a job submission must not overtake it within one
    /// pass and reject the earlier request with `shutting_down`).
    conns: BTreeMap<u64, Conn>,
    next_token: u64,
    /// Jobs admitted and not yet completed (queued + running).
    in_flight: usize,
    draining: bool,
    /// Post-ack: stop accepting, flush what remains, then return.
    stopping: bool,
    shutdown_to: Option<(u64, Envelope)>,
    flush_deadline: Option<Instant>,
    /// Serialised-response memo for inline cache hits (see
    /// [`HIT_MEMO_BOUND`]).
    hit_memo: HashMap<String, String>,
    /// Requests answered straight from `hit_memo`; counted into the
    /// status report's cache hits (a memo hit *is* a cache hit, served
    /// one layer earlier).
    memo_hits: u64,
    /// Where every readable connection's bytes land before they join its
    /// `rbuf`: one buffer for the loop, not one zeroed per read.
    read_buf: Box<[u8]>,
}

impl<'a> EventLoop<'a> {
    fn new(shared: &'a Shared, runners: &'a Runners) -> Self {
        EventLoop {
            shared,
            runners,
            conns: BTreeMap::new(),
            next_token: 0,
            in_flight: 0,
            draining: false,
            stopping: false,
            shutdown_to: None,
            flush_deadline: None,
            hit_memo: HashMap::new(),
            memo_hits: 0,
            read_buf: vec![0; 64 * 1024].into_boxed_slice(),
        }
    }

    fn serve(
        mut self,
        listener: &TcpListener,
        rx: &Receiver<LoopMsg>,
        waker: &UnixStream,
    ) -> io::Result<()> {
        loop {
            // Interest set: the waker always, the listener until the
            // shutdown ack, every connection that still reads or has
            // unflushed output.  Connections idle on a pending job need no
            // entry — the waker fires when their lines arrive.
            let mut fds = vec![poll::PollFd::new(waker.as_raw_fd(), poll::POLLIN)];
            let mut targets = vec![None];
            if !self.stopping {
                fds.push(poll::PollFd::new(listener.as_raw_fd(), poll::POLLIN));
                targets.push(None);
            }
            let listener_slot = fds.len() - 1;
            for (&token, conn) in &self.conns {
                let mut events = 0;
                if !conn.read_done {
                    events |= poll::POLLIN;
                }
                if !conn.flushed() {
                    events |= poll::POLLOUT;
                }
                if events != 0 {
                    fds.push(poll::PollFd::new(conn.stream.as_raw_fd(), events));
                    targets.push(Some(token));
                }
            }
            let timeout = if self.stopping { 50 } else { -1 };
            poll::wait(&mut fds, timeout)?;

            if fds[0].readable() {
                drain_waker(waker);
            }
            self.drain_msgs(rx);
            if !self.stopping && fds[listener_slot].readable() {
                self.accept_all(listener);
            }
            for (fd, target) in fds.iter().zip(&targets).skip(1) {
                let Some(token) = *target else { continue };
                if fd.readable() {
                    self.handle_read(token);
                }
            }
            self.flush_all();
            self.reap();
            self.advance_shutdown();
            self.flush_all();
            if self.stopping {
                let all_flushed = self.conns.is_empty();
                let expired = self.flush_deadline.is_some_and(|d| Instant::now() >= d);
                if all_flushed || expired {
                    return Ok(());
                }
            }
        }
    }

    /// Applies every queued runner message: response lines into write
    /// buffers, completions into slot bookkeeping.
    fn drain_msgs(&mut self, rx: &Receiver<LoopMsg>) {
        while let Ok(msg) = rx.try_recv() {
            match msg {
                LoopMsg::Line { token, line } => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        if !conn.push_line(&line) {
                            // Overflow: the client is not reading; drop it
                            // at the next reap (the job still drains).
                            conn.dead = true;
                        }
                    }
                }
                LoopMsg::Done { token } => {
                    self.in_flight -= 1;
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.pending_jobs -= 1;
                        if conn.pending_jobs == 0 && conn.dialect == Some(Dialect::V1) {
                            conn.closing = true;
                        }
                    }
                }
            }
        }
    }

    fn accept_all(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    self.conns.insert(token, Conn::new(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn handle_read(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else { return };
        let mut eof = false;
        loop {
            match conn.stream.read(&mut self.read_buf) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&self.read_buf[..n]);
                    // Yield to frame processing before pulling more than a
                    // frame's worth — bounds memory per read pass.
                    if conn.rbuf.len() > MAX_FRAME {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Connection-fatal read error: drop it.  A pending
                    // job's lines will be discarded on arrival.
                    return;
                }
            }
        }
        self.process_frames(&mut conn, token);
        if eof {
            conn.read_done = true;
            if conn.pending_jobs == 0 && conn.flushed() {
                return; // peer gone, nothing left to deliver
            }
            conn.closing = true;
        }
        self.conns.insert(token, conn);
    }

    fn process_frames(&mut self, conn: &mut Conn, token: u64) {
        loop {
            if conn.discarding {
                conn.rbuf.clear();
                return;
            }
            if conn.read_done {
                // One-shot request consumed (or framing violation): any
                // pipelined extra bytes are discarded by contract.
                conn.rbuf.clear();
                return;
            }
            match conn.rbuf.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    let frame: Vec<u8> = conn.rbuf.drain(..=pos).collect();
                    if frame.len() > MAX_FRAME {
                        self.reject_oversized(conn);
                        continue;
                    }
                    let line = String::from_utf8_lossy(&frame).trim_end().to_owned();
                    self.handle_frame(conn, token, &line);
                }
                None => {
                    if conn.rbuf.len() > MAX_FRAME {
                        self.reject_oversized(conn);
                    }
                    return;
                }
            }
        }
    }

    /// A frame (or an unterminated prefix) beyond the size bound: answer
    /// with a structured error and stop reading this connection.
    fn reject_oversized(&mut self, conn: &mut Conn) {
        let envelope = match conn.dialect {
            Some(Dialect::V2) => Envelope::V2(None),
            _ => Envelope::V1,
        };
        let error =
            ApiError::bad_request(format!("request frame exceeds the {MAX_FRAME}-byte limit"));
        self.respond(conn, envelope, &ApiResponse::Error(error));
        conn.discarding = true;
        conn.read_done = false;
        conn.closing = true;
        conn.rbuf.clear();
    }

    /// The inline fast path: a request line in the encoder's own spelling
    /// ([`Envelope::split`]) whose body is already in the hit memo is
    /// answered without parsing or re-serialising anything.  Returns
    /// `false` when the slow path must run (unknown body, an envelope in
    /// any other spelling, or a dialect the connection must not speak).
    fn try_memo(&mut self, conn: &mut Conn, line: &str) -> bool {
        let Some((envelope, body)) = Envelope::split(line) else { return false };
        // Dialect discipline matches the slow path: a v2 session rejects
        // id-less frames, a fresh connection may speak either.
        match (conn.dialect, envelope) {
            (None | Some(Dialect::V1), Envelope::V1) => {}
            (None | Some(Dialect::V2), Envelope::V2(Some(_))) => {}
            _ => return false,
        }
        let Some(response_body) = self.hit_memo.get(body) else { return false };
        self.memo_hits += 1;
        conn.enter(envelope);
        conn.push_response(&envelope.wrap(response_body));
        true
    }

    fn handle_frame(&mut self, conn: &mut Conn, token: u64, line: &str) {
        if self.try_memo(conn, line) {
            return;
        }
        match conn.dialect {
            None => match ApiRequest::from_wire(line) {
                Ok((envelope, request)) => {
                    conn.enter(envelope);
                    self.dispatch(conn, token, envelope, request, line);
                }
                Err(e) => {
                    // An unparseable first frame never established a
                    // dialect: answer in v1 (the sniff default) and close.
                    self.respond(conn, Envelope::V1, &ApiResponse::Error(e));
                    conn.read_done = true;
                    conn.closing = true;
                }
            },
            Some(Dialect::V2) => match ApiRequest::from_wire(line) {
                Ok((Envelope::V1, _)) => {
                    let error =
                        ApiError::bad_request("a v2 session requires \"id\" on every request");
                    self.respond(conn, Envelope::V2(None), &ApiResponse::Error(error));
                }
                Ok((envelope, request)) => self.dispatch(conn, token, envelope, request, line),
                // A malformed frame mid-session answers with the salvaged
                // id (or null) and keeps the session alive — one bad
                // request must not kill a multiplexed connection.
                Err(e) => {
                    let envelope = Envelope::V2(salvage_request_id(line));
                    self.respond(conn, envelope, &ApiResponse::Error(e));
                }
            },
            // One-shot connections consume exactly one frame; extras were
            // already discarded by `process_frames`.
            Some(Dialect::V1) => {}
        }
    }

    fn dispatch(
        &mut self,
        conn: &mut Conn,
        token: u64,
        envelope: Envelope,
        request: ApiRequest,
        raw: &str,
    ) {
        match request {
            ApiRequest::Status => {
                let status = self.status();
                self.respond(conn, envelope, &ApiResponse::Status(status));
            }
            ApiRequest::Shutdown => {
                if self.draining {
                    self.respond(conn, envelope, &ApiResponse::Error(ApiError::shutting_down()));
                } else {
                    // The ack is written once the drain completes — see
                    // `advance_shutdown`.
                    self.draining = true;
                    self.shutdown_to = Some((token, envelope));
                }
            }
            // The inline fast path: a cache hit is answered by the loop
            // itself without consuming a job slot.  The serialised body is
            // remembered so the next identical request short-circuits in
            // `try_memo`.
            ApiRequest::Eval(request) => match self.shared.cache.lookup_recorded(&request) {
                Some(report) => {
                    let body = ApiResponse::EvalResult(Box::new(report)).body_json();
                    if let Some((_, key)) = Envelope::split(raw) {
                        if self.hit_memo.len() >= HIT_MEMO_BOUND {
                            self.hit_memo.clear();
                        }
                        self.hit_memo.insert(key.to_owned(), body.clone());
                    }
                    conn.push_response(&envelope.wrap(&body));
                }
                None => self.enqueue(conn, token, envelope, Work::Eval(request)),
            },
            ApiRequest::Sweep { spec, rate, constraints } => {
                self.enqueue(conn, token, envelope, Work::Sweep { spec, rate, constraints });
            }
        }
    }

    /// Admission control for simulation-heavy jobs.
    fn enqueue(&mut self, conn: &mut Conn, token: u64, envelope: Envelope, work: Work) {
        if self.draining {
            self.respond(conn, envelope, &ApiResponse::Error(ApiError::shutting_down()));
            return;
        }
        if self.in_flight >= self.shared.max_pending {
            let message = format!(
                "{} of {} job slots in use; retry after a slot drains",
                self.in_flight, self.shared.max_pending
            );
            self.respond(conn, envelope, &ApiResponse::Error(ApiError::busy(message)));
            return;
        }
        self.in_flight += 1;
        conn.pending_jobs += 1;
        self.runners.queue.lock().unwrap().jobs.push_back(Job { token, envelope, work });
        self.runners.work.notify_one();
    }

    /// Pushes one inline response line (see [`Conn::push_response`]).
    fn respond(&mut self, conn: &mut Conn, envelope: Envelope, response: &ApiResponse) {
        conn.push_response(&line(envelope, response));
    }

    fn status(&self) -> StatusInfo {
        StatusInfo {
            in_flight: self.in_flight as u64,
            queued: self.runners.queue.lock().unwrap().jobs.len() as u64,
            max_pending: self.shared.max_pending as u64,
            draining: self.draining,
            cache: CacheCounters {
                entries: self.shared.cache.len() as u64,
                hits: self.shared.cache.hits() + self.memo_hits,
                misses: self.shared.cache.misses(),
            },
        }
    }

    /// Writes out every connection's buffered responses, as far as the
    /// sockets accept them.  Running once per loop pass (instead of once
    /// per response) coalesces a pipelined batch into a single write.
    fn flush_all(&mut self) {
        for conn in self.conns.values_mut() {
            if !conn.dead && !conn.flushed() && !conn.try_flush() {
                conn.dead = true;
            }
        }
    }

    /// Drops connections whose response is fully delivered.  Discarding
    /// connections half-close first (FIN after the flushed error, so the
    /// peer's reader sees a normal end of stream) and are dropped only on
    /// the peer's own EOF — a full close with unread bytes in the receive
    /// queue would turn into an RST that can destroy the response.
    fn reap(&mut self) {
        self.conns.retain(|_, conn| {
            if conn.dead {
                return false;
            }
            let delivered = conn.closing && conn.pending_jobs == 0 && conn.flushed();
            if delivered && conn.discarding && !conn.read_done {
                if !conn.fin_sent {
                    conn.fin_sent = true;
                    let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                }
                return true; // keep draining until the peer closes
            }
            !delivered
        });
    }

    /// Once a requested drain completes: persist the snapshot, ack the
    /// shutdown, stop accepting and enter the flush phase.
    fn advance_shutdown(&mut self) {
        if !self.draining || self.stopping || self.in_flight != 0 {
            return;
        }
        // Snapshot failures degrade to `persisted: null` plus a warning —
        // shutdown must complete even on a read-only disk.
        let persisted = self.shared.snapshot.as_ref().and_then(|path| {
            match self.shared.cache.save_snapshot(path) {
                Ok(stats) => Some(stats.persisted),
                Err(e) => {
                    eprintln!(
                        "taco-served: could not persist cache snapshot to {}: {e}",
                        path.display()
                    );
                    None
                }
            }
        });
        if let Some((token, envelope)) = self.shutdown_to.take() {
            if let Some(mut conn) = self.conns.remove(&token) {
                self.respond(&mut conn, envelope, &ApiResponse::ShutdownAck { persisted });
                conn.closing = true;
                conn.read_done = true;
                self.conns.insert(token, conn);
            }
        }
        for conn in self.conns.values_mut() {
            conn.read_done = true;
            conn.closing = true;
        }
        self.stopping = true;
        self.flush_deadline = Some(Instant::now() + SHUTDOWN_FLUSH_DEADLINE);
        self.reap();
    }
}

/// Empties the waker pipe (the wake-up already happened; the bytes are
/// just tokens).
fn drain_waker(waker: &UnixStream) {
    let mut buf = [0u8; 256];
    loop {
        match (&mut &*waker).read(&mut buf) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_job_is_answered_internal_and_still_frees_its_slot() {
        let server = crate::Server::bind(crate::ServerConfig::default()).expect("bind loopback");
        let (_loop_end, runner_end) = UnixStream::pair().expect("waker pair");
        let (tx, rx) = mpsc::channel();
        let runners = Runners::default();
        // Zero buses cannot come off the wire (the sweep parser refuses
        // them) and `grid()` panics on them: a stand-in for whatever the
        // evaluator's next reachable panic turns out to be.
        let work = Work::Sweep {
            spec: SweepSpec { buses: vec![0], ..SweepSpec::default() },
            rate: LineRate::TEN_GBE,
            constraints: Constraints::default(),
        };
        {
            let mut queue = runners.queue.lock().unwrap();
            queue.jobs.push_back(Job { token: 9, envelope: Envelope::V2(Some(4)), work });
            queue.stop = true;
        }
        run_jobs(&runners, &server.shared, &tx, &runner_end);
        match &rx.try_iter().collect::<Vec<_>>()[..] {
            [LoopMsg::Line { token: 9, line }, LoopMsg::Done { token: 9 }] => {
                assert!(
                    line.starts_with("{\"api_version\":\"v2\",\"id\":4,\"kind\":\"error\""),
                    "{line}"
                );
                assert!(line.contains("\"code\":\"internal\""), "{line}");
                assert!(line.contains("at least one bus"), "{line}");
            }
            _ => panic!("expected one error line, then Done"),
        }
    }
}
