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
    let (tx, rx) = mpsc::channel::<LoopMsg>();
    let runners = Runners::default();
    thread::scope(|s| {
        for _ in 0..runner_count {
            let tx = tx.clone();
            let (runners, waker) = (&runners, &runner_waker);
            s.spawn(move || run_jobs(runners, shared, &tx, waker));
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

/// Where a connection is in its life.  The loop reads only `Open` and
/// `Discarding` connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Reading request frames: a fresh connection or a v2 session.
    Open,
    /// Reading no more: dropped once nothing is owed and the buffer is
    /// flushed.  A v1 frame, an unparseable first frame, the peer's EOF
    /// and the daemon's stop all lead here.
    Closing,
    /// A framing violation: keep *reading* but discard the bytes until the
    /// peer closes.  Closing with unread bytes in the receive queue would
    /// send an RST that can destroy the error response in flight, so once
    /// nothing is owed and the buffer is flushed the write side is shut
    /// (FIN after the error, `fin_sent`), and the connection is dropped at
    /// the peer's own EOF.
    Discarding { fin_sent: bool },
    /// A buffer overflow or a write error: dropped at the next reap.
    Dead,
}

/// One client connection's loop-side state.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet framed into request lines.
    rbuf: Vec<u8>,
    /// Response bytes not yet accepted by the socket (`wpos` already
    /// written).
    wbuf: Vec<u8>,
    wpos: usize,
    phase: Phase,
    /// A v2 frame was accepted: every later frame must carry an id.
    session: bool,
    /// Answers still to come: queued or running jobs, plus a shutdown ack
    /// not yet written.
    owed: usize,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            phase: Phase::Open,
            session: false,
            owed: 0,
        }
    }

    fn flushed(&self) -> bool {
        self.wpos == self.wbuf.len()
    }

    /// Takes the dialect of a frame a fresh (or same-dialect) connection
    /// accepted: a v1 frame is the connection's only one.
    fn enter(&mut self, envelope: Envelope) {
        match envelope {
            Envelope::V1 => self.phase = Phase::Closing,
            Envelope::V2(_) => self.session = true,
        }
    }

    /// A frame (or an unterminated prefix) beyond the size bound: answer
    /// with a structured error and stop reading this connection.
    fn reject_oversized(&mut self) {
        let envelope = if self.session { Envelope::V2(None) } else { Envelope::V1 };
        let error =
            ApiError::bad_request(format!("request frame exceeds the {MAX_FRAME}-byte limit"));
        self.phase = Phase::Discarding { fin_sent: false };
        self.respond(envelope, &ApiResponse::Error(error));
        self.rbuf.clear();
    }

    /// Buffers one response line; past the buffer bound the client is not
    /// reading, and the connection is dropped.  The bytes go out in the
    /// loop's end-of-pass flush, so a pipelined batch of requests is
    /// answered with one write, not one write per response.
    fn push(&mut self, line: &str) {
        if self.wbuf.len() - self.wpos + line.len() + 1 > MAX_WRITE_BUFFER {
            self.phase = Phase::Dead;
            return;
        }
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
    }

    fn respond(&mut self, envelope: Envelope, response: &ApiResponse) {
        self.push(&line(envelope, response));
    }

    /// Writes as much buffered output as the socket accepts right now; a
    /// connection-fatal write error kills the connection.
    fn flush(&mut self) {
        while self.phase != Phase::Dead && !self.flushed() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => self.phase = Phase::Dead,
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => self.phase = Phase::Dead,
            }
        }
        if self.flushed() {
            self.wbuf.clear();
            self.wpos = 0;
        }
    }
}

/// Where the daemon is in its life.
enum Life {
    Serving,
    /// A `shutdown` was accepted: new jobs are refused, and once the jobs
    /// in flight finish the ack goes to the requester `(token, envelope)`.
    Draining {
        ack: (u64, Envelope),
    },
    /// Acked: stop accepting, flush what remains until `deadline`, then
    /// return.
    Stopping {
        deadline: Instant,
    },
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
    life: Life,
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
            life: Life::Serving,
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
            let accepting = !matches!(self.life, Life::Stopping { .. });
            if accepting {
                fds.push(poll::PollFd::new(listener.as_raw_fd(), poll::POLLIN));
                targets.push(None);
            }
            let listener_slot = fds.len() - 1;
            for (&token, conn) in &self.conns {
                let mut events = 0;
                if matches!(conn.phase, Phase::Open | Phase::Discarding { .. }) {
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
            let timeout = if accepting { -1 } else { 50 };
            poll::wait(&mut fds, timeout)?;

            if fds[0].readable() {
                drain_waker(waker);
            }
            self.drain_msgs(rx);
            if accepting && fds[listener_slot].readable() {
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
            if let Life::Stopping { deadline } = self.life {
                if self.conns.is_empty() || Instant::now() >= deadline {
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
                // An overflowing connection dies here; its job still drains.
                LoopMsg::Line { token, line } => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.push(&line);
                    }
                }
                LoopMsg::Done { token } => {
                    self.in_flight -= 1;
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.owed -= 1;
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
            if conn.phase == Phase::Dead || conn.owed == 0 && conn.flushed() {
                return; // peer gone, nothing left to deliver
            }
            conn.phase = Phase::Closing;
        }
        self.conns.insert(token, conn);
    }

    fn process_frames(&mut self, conn: &mut Conn, token: u64) {
        loop {
            if conn.phase != Phase::Open {
                // One-shot request consumed (or framing violation): any
                // pipelined extra bytes are discarded by contract.
                conn.rbuf.clear();
                return;
            }
            match conn.rbuf.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    let frame: Vec<u8> = conn.rbuf.drain(..=pos).collect();
                    if frame.len() > MAX_FRAME {
                        conn.reject_oversized();
                        continue;
                    }
                    let line = String::from_utf8_lossy(&frame).trim_end().to_owned();
                    self.handle_frame(conn, token, &line);
                }
                None => {
                    if conn.rbuf.len() > MAX_FRAME {
                        conn.reject_oversized();
                    }
                    return;
                }
            }
        }
    }

    /// The inline fast path: a request line in the encoder's own spelling
    /// ([`Envelope::split`]) whose body is already in the hit memo is
    /// answered without parsing or re-serialising anything.  Returns
    /// `false` when the slow path must run (unknown body, or a dialect the
    /// connection must not speak).
    fn try_memo(&mut self, conn: &mut Conn, envelope: Envelope, body: &str) -> bool {
        // The memo keeps the slow path's dialect rule: a v2 session rejects
        // id-less frames, a fresh connection may speak either.
        if envelope == Envelope::V2(None) || conn.session && envelope == Envelope::V1 {
            return false;
        }
        let Some(response_body) = self.hit_memo.get(body) else { return false };
        self.memo_hits += 1;
        conn.enter(envelope);
        conn.push(&envelope.wrap(response_body));
        true
    }

    /// Answers one frame of an `Open` connection.  The envelope is split
    /// once: the memo is tried with its body, and a cache hit on the slow
    /// path files its answer under that same body.
    fn handle_frame(&mut self, conn: &mut Conn, token: u64, line: &str) {
        let split = Envelope::split(line);
        if let Some((envelope, body)) = split {
            if self.try_memo(conn, envelope, body) {
                return;
            }
        }
        match ApiRequest::from_wire(line) {
            Ok((Envelope::V1, _)) if conn.session => {
                let error = ApiError::bad_request("a v2 session requires \"id\" on every request");
                conn.respond(Envelope::V2(None), &ApiResponse::Error(error));
            }
            Ok((envelope, request)) => {
                conn.enter(envelope);
                self.dispatch(conn, token, envelope, request, split.map(|(_, body)| body));
            }
            // A malformed frame mid-session answers with the salvaged id
            // (or null) and keeps the session alive — one bad request must
            // not kill a multiplexed connection.
            Err(e) if conn.session => {
                conn.respond(Envelope::V2(salvage_request_id(line)), &ApiResponse::Error(e));
            }
            // An unparseable first frame never established a dialect:
            // answer in v1 (the sniff default) and close.
            Err(e) => {
                conn.phase = Phase::Closing;
                conn.respond(Envelope::V1, &ApiResponse::Error(e));
            }
        }
    }

    /// Runs one parsed request; `memo_key` is its body in the encoder's
    /// spelling, when the line was in it.
    fn dispatch(
        &mut self,
        conn: &mut Conn,
        token: u64,
        envelope: Envelope,
        request: ApiRequest,
        memo_key: Option<&str>,
    ) {
        match request {
            ApiRequest::Status => conn.respond(envelope, &ApiResponse::Status(self.status())),
            // The ack is owed until the drain completes — see
            // `advance_shutdown`.
            ApiRequest::Shutdown => match self.life {
                Life::Serving => {
                    conn.owed += 1;
                    self.life = Life::Draining { ack: (token, envelope) };
                }
                _ => conn.respond(envelope, &ApiResponse::Error(ApiError::shutting_down())),
            },
            // The inline fast path: a cache hit is answered by the loop
            // itself without consuming a job slot.  The serialised body is
            // remembered so the next identical request short-circuits in
            // `try_memo`.
            ApiRequest::Eval(request) => match self.shared.cache.lookup_recorded(&request) {
                Some(report) => {
                    let body = ApiResponse::EvalResult(Box::new(report)).body_json();
                    if let Some(key) = memo_key {
                        if self.hit_memo.len() >= HIT_MEMO_BOUND {
                            self.hit_memo.clear();
                        }
                        self.hit_memo.insert(key.to_owned(), body.clone());
                    }
                    conn.push(&envelope.wrap(&body));
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
        if !matches!(self.life, Life::Serving) {
            conn.respond(envelope, &ApiResponse::Error(ApiError::shutting_down()));
            return;
        }
        if self.in_flight >= self.shared.max_pending {
            let message = format!(
                "{} of {} job slots in use; retry after a slot drains",
                self.in_flight, self.shared.max_pending
            );
            conn.respond(envelope, &ApiResponse::Error(ApiError::busy(message)));
            return;
        }
        self.in_flight += 1;
        conn.owed += 1;
        self.runners.queue.lock().unwrap().jobs.push_back(Job { token, envelope, work });
        self.runners.work.notify_one();
    }

    fn status(&self) -> StatusInfo {
        StatusInfo {
            in_flight: self.in_flight as u64,
            queued: self.runners.queue.lock().unwrap().jobs.len() as u64,
            max_pending: self.shared.max_pending as u64,
            draining: !matches!(self.life, Life::Serving),
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
            conn.flush();
        }
    }

    /// Drops connections whose response is fully delivered.  Discarding
    /// connections half-close first (FIN after the flushed error, so the
    /// peer's reader sees a normal end of stream) and are dropped only on
    /// the peer's own EOF — a full close with unread bytes in the receive
    /// queue would turn into an RST that can destroy the response.
    fn reap(&mut self) {
        self.conns.retain(|_, conn| {
            let delivered = conn.owed == 0 && conn.flushed();
            match &mut conn.phase {
                Phase::Open => true,
                Phase::Closing => !delivered,
                Phase::Discarding { fin_sent } => {
                    if delivered && !*fin_sent {
                        *fin_sent = true;
                        let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                    }
                    true // keep draining until the peer closes
                }
                Phase::Dead => false,
            }
        });
    }

    /// Once a requested drain completes: persist the snapshot, ack the
    /// shutdown, stop accepting and enter the flush phase.
    fn advance_shutdown(&mut self) {
        let Life::Draining { ack: (token, envelope) } = self.life else { return };
        if self.in_flight != 0 {
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
        for conn in self.conns.values_mut() {
            if conn.phase != Phase::Dead {
                conn.phase = Phase::Closing;
            }
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.owed -= 1;
            conn.respond(envelope, &ApiResponse::ShutdownAck { persisted });
        }
        self.life = Life::Stopping { deadline: Instant::now() + SHUTDOWN_FLUSH_DEADLINE };
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
