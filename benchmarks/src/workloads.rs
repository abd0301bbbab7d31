//! The six workloads.
//!
//! The operation in every workload is one `EvalRequest` answered with its
//! `EvalReport` (over the wire: one `eval` request answered with its
//! `eval_result` line).  A *pass* is a fixed list of operations; `--seed`
//! shuffles their order and nothing else, so every pass of every run is
//! identical work, whatever the seed.  Each pass is timed on its own, its
//! operations back to back, and its outputs are checked after the clock
//! stops.

use std::io;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::thread::{self, JoinHandle};
use std::time::Instant;

use taco_core::api::{table1_cell_json, ApiRequest, ApiResponse, EvalSpec};
use taco_core::{
    evaluate_request, explore_with, ArchConfig, Constraints, EvalCache, EvalReport, EvalRequest,
    Exploration, ExploreOptions, LineRate, Silent, SweepSpec,
};
use taco_routing::TableKind;
use taco_served::{request_lines, Server, ServerConfig, Session};
use taco_workload::Workload;

use crate::spans::Recorder;

/// A workload's name and the one-line reason it exists (the same text
/// `BENCHMARK.json` carries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadDef {
    /// The `--workload` value.
    pub name: &'static str,
    /// Which layers it stresses and which it bypasses.
    pub why: &'static str,
}

/// The workloads, in the order a full run interleaves them.
pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "table1-cold",
        why: "The paper's twelve Table 1 cells, uncached: per-evaluation fixed costs dominate, \
              the step loop is under a tenth on tree and CAM cells.",
    },
    WorkloadDef {
        name: "seq-scan-1k",
        why: "Sequential tables of 256 to 1024 entries: the one place the simulator's step loop \
              is most of the work, so a faster loop shows here and barely on served-*.",
    },
    WorkloadDef {
        name: "scenario-mix",
        why: "Six behavioural workloads on three table kinds: only here do the scenario harness \
              and the LPM engines dominate; table1-cold never touches them.",
    },
    WorkloadDef {
        name: "dse-sweep",
        why: "The 36-point default sweep on 2 pool threads with a fresh cache per pass: the only \
              user of the pool, of cache inserts and of ranking.",
    },
    WorkloadDef {
        name: "served-hot",
        why: "Two persistent v2 sessions, window 8, every request a cache hit: serving cost with \
              simulation removed, where a simulator speed-up must show nothing.",
    },
    WorkloadDef {
        name: "served-oneshot",
        why: "The same requests one connection each over v1: accept, dialect sniff and teardown \
              per request, so a session-path gain that costs this path is visible.",
    },
];

/// Client threads (= connections at a time) of the served workloads.
pub const CLIENTS: usize = 2;
/// In-flight requests per session in `served-hot`.
pub const WINDOW: usize = 8;
/// Requests per client per pass in `served-hot`.
const HOT_REQUESTS: usize = 2400;
/// Requests per client per pass in `served-oneshot`.
const ONESHOT_REQUESTS: usize = 240;
/// Pool threads of `dse-sweep`.
const SWEEP_THREADS: usize = 2;

/// The repo's own re-blessable Table 1 fixture: one cell line per
/// `ArchConfig::table1_cells()` entry, compiled in so the check follows a
/// re-bless without any file access at run time.
const GOLDEN_TABLE1: &str = include_str!("../../crates/core/tests/golden/table1.json");

/// What one timed pass produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pass {
    /// Wall time of the pass.
    pub nanos: u64,
    /// Operations that errored, were refused, or whose output failed the
    /// workload's correctness check.
    pub failed: u64,
    /// `busy` refusals among them (served workloads).
    pub busy: u64,
}

/// A prepared workload: set-up and warm-up are done, passes can be timed.
pub trait Bench {
    /// Operations in one pass.
    fn ops_per_pass(&self) -> u64;
    /// Σ `EvalReport.stats.cycles` over the reports one pass answers.
    fn cycles_per_pass(&self) -> u64;
    /// Runs and checks one pass.  With a recorder, every operation is
    /// wrapped in a span named `op.<workload>` — the traced variant whose
    /// cost against the plain one is the tracing overhead.
    fn pass(&mut self, spans: Option<&mut Recorder>) -> Pass;
    /// Stops whatever set-up started (the daemon).
    fn finish(self: Box<Self>) {}
}

/// Sets up `name` for `seed` and runs its warm-up pass.
///
/// # Errors
///
/// An unknown name, or a set-up step that failed (daemon bind, warm-up
/// over the wire): the round then counts as failed operations.
pub fn prepare(name: &str, seed: u64) -> Result<Box<dyn Bench>, String> {
    Ok(match name {
        "table1-cold" => Box::new(Direct::table1_cold(seed)),
        "seq-scan-1k" => Box::new(Direct::seq_scan_1k(seed)),
        "scenario-mix" => Box::new(Direct::scenario_mix(seed)),
        "dse-sweep" => Box::new(DseSweep::new()),
        "served-hot" => Box::new(Served::start(Dialect::Session, seed)?),
        "served-oneshot" => Box::new(Served::start(Dialect::Oneshot, seed)?),
        other => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {other:?}; expected one of {}",
                names.join(", ")
            ));
        }
    })
}

/// SplitMix64, the benchmark's own input generator: the program under
/// test receives only the generated inputs.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Fisher–Yates shuffle driven by `seed`.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix64(seed);
    for i in (1..items.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The twelve Table 1 cells with their golden fixture lines.
fn table1_cells_with_golden() -> Vec<(ArchConfig, &'static str)> {
    let cells = ArchConfig::table1_cells();
    let lines: Vec<&str> = GOLDEN_TABLE1.lines().collect();
    assert_eq!(cells.len(), lines.len(), "golden fixture has one line per Table 1 cell");
    cells.into_iter().zip(lines).collect()
}

/// How a direct workload decides an output is correct.
enum Check {
    /// `api::table1_cell_json(report)` equals the golden fixture line.
    Golden(Vec<&'static str>),
    /// The report equals the warm-up pass's report and simulated cleanly.
    Reference,
    /// The report's `ScenarioMetrics::to_json()` bytes equal the warm-up
    /// pass's.
    Scenario,
}

/// The in-process, single-thread workloads: a list of requests answered
/// by `evaluate_request`, no `EvalCache`.
struct Direct {
    span_name: String,
    requests: Vec<EvalRequest>,
    reference: Vec<EvalReport>,
    check: Check,
}

impl Direct {
    fn new(name: &str, requests: Vec<EvalRequest>, check: Check) -> Self {
        // The warm-up pass: fills the process-wide program cache, and is
        // pass 0 — the reference later passes are compared against.
        let reference = requests.iter().map(evaluate_request).collect();
        Direct { span_name: format!("op.{name}"), requests, reference, check }
    }

    fn table1_cold(seed: u64) -> Self {
        let mut cells = table1_cells_with_golden();
        shuffle(&mut cells, seed);
        let (configs, golden): (Vec<_>, Vec<_>) = cells.into_iter().unzip();
        let requests = configs.into_iter().map(EvalRequest::new).collect();
        Direct::new("table1-cold", requests, Check::Golden(golden))
    }

    fn seq_scan_1k(seed: u64) -> Self {
        let shapes = [
            ArchConfig::one_bus_one_fu,
            ArchConfig::three_bus_one_fu,
            ArchConfig::three_bus_three_fu,
        ];
        let mut requests: Vec<EvalRequest> = shapes
            .iter()
            .flat_map(|shape| {
                [256, 512, 1024]
                    .map(|entries| EvalRequest::new(shape(TableKind::Sequential)).entries(entries))
            })
            .collect();
        shuffle(&mut requests, seed);
        Direct::new("seq-scan-1k", requests, Check::Reference)
    }

    /// The scenarios keep their built-in traffic seed; `seed` only orders
    /// the operations.  Re-seeding the traffic changes the work itself —
    /// single balanced-tree cells cost up to 1.6x more under some seeds
    /// (README, "Why the scenario traffic is not re-seeded") — and a
    /// workload must cost the same under every `--seed` for runs with
    /// different seeds to be comparable.
    fn scenario_mix(seed: u64) -> Self {
        let mut requests: Vec<EvalRequest> = Workload::builtin()
            .into_iter()
            .flat_map(|w| {
                TableKind::PAPER_KINDS
                    .map(|kind| EvalRequest::new(ArchConfig::three_bus_one_fu(kind)).workload(w))
            })
            .collect();
        shuffle(&mut requests, seed);
        Direct::new("scenario-mix", requests, Check::Scenario)
    }

    fn is_correct(&self, index: usize, report: &EvalReport) -> bool {
        let reference = &self.reference[index];
        match &self.check {
            Check::Golden(lines) => table1_cell_json(report) == lines[index],
            Check::Reference => {
                report.sim_error.is_none() && report.stats.cycles > 0 && report == reference
            }
            Check::Scenario => match (&report.scenario, &reference.scenario) {
                (Some(got), Some(want)) => got.to_json() == want.to_json(),
                _ => false,
            },
        }
    }
}

impl Bench for Direct {
    fn ops_per_pass(&self) -> u64 {
        self.requests.len() as u64
    }

    fn cycles_per_pass(&self) -> u64 {
        self.reference.iter().map(|r| r.stats.cycles).sum()
    }

    /// The operations run back to back under one clock.
    fn pass(&mut self, spans: Option<&mut Recorder>) -> Pass {
        let mut traced = spans.map(|rec| {
            let name = rec.name(&self.span_name);
            (rec, name)
        });
        let mut reports = Vec::with_capacity(self.requests.len());
        let started = Instant::now();
        for request in &self.requests {
            reports.push(match traced.as_mut() {
                Some((rec, name)) => {
                    rec.next_op();
                    rec.span(*name, |_| evaluate_request(request))
                }
                None => evaluate_request(request),
            });
        }
        let nanos = started.elapsed().as_nanos() as u64;
        let failed =
            reports.iter().enumerate().filter(|(i, r)| !self.is_correct(*i, r)).count() as u64;
        Pass { nanos, failed, busy: 0 }
    }
}

/// `dse-sweep`: the `dse` user path — `explore_with` over the default
/// grid on two pool threads, a fresh `EvalCache` per pass, so every point
/// is a miss followed by an insert, then ranked.
struct DseSweep {
    spec: SweepSpec,
    constraints: Constraints,
    reference: Exploration,
}

impl DseSweep {
    fn new() -> Self {
        let spec = SweepSpec::default();
        let constraints = Constraints::default();
        let (reference, _) = Self::sweep(&spec, &constraints);
        DseSweep { spec, constraints, reference }
    }

    /// One sweep against a fresh cache; returns the exploration and
    /// whether the cache saw exactly one miss and no hit per point.
    fn sweep(spec: &SweepSpec, constraints: &Constraints) -> (Exploration, bool) {
        let cache = EvalCache::new();
        let options =
            ExploreOptions { threads: SWEEP_THREADS, cache: Some(&cache), observer: &Silent };
        let exploration = explore_with(spec, LineRate::TEN_GBE, constraints, &options);
        let all_missed = cache.misses() == exploration.all.len() as u64 && cache.hits() == 0;
        (exploration, all_missed)
    }
}

impl Bench for DseSweep {
    fn ops_per_pass(&self) -> u64 {
        self.reference.all.len() as u64
    }

    fn cycles_per_pass(&self) -> u64 {
        self.reference.all.iter().map(|r| r.stats.cycles).sum()
    }

    fn pass(&mut self, spans: Option<&mut Recorder>) -> Pass {
        let points = self.ops_per_pass();
        let started = Instant::now();
        let (exploration, all_missed) = match spans {
            None => Self::sweep(&self.spec, &self.constraints),
            Some(rec) => {
                // The points run on pool threads inside `explore_with`, so
                // from outside the sweep is one span covering all of them.
                let name = rec.name("op.dse-sweep");
                rec.next_op();
                rec.span_n(name, points as u32, |_| Self::sweep(&self.spec, &self.constraints))
            }
        };
        let nanos = started.elapsed().as_nanos() as u64;
        let failed = if !all_missed
            || exploration.admitted != self.reference.admitted
            || exploration.all.len() != self.reference.all.len()
        {
            points
        } else {
            exploration
                .all
                .iter()
                .zip(&self.reference.all)
                .filter(|(got, want)| got != want)
                .count() as u64
        };
        Pass { nanos, failed, busy: 0 }
    }
}

/// Which wire dialect a served workload speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dialect {
    /// Persistent v2 sessions with a window of in-flight requests.
    Session,
    /// v1: one connection per request (`request_lines`, the `taco-cli
    /// submit` path).
    Oneshot,
}

/// Prefix of a canonical v2 response line up to the echoed id.
const V2_HEAD: &str = "{\"api_version\":\"v2\",\"id\":";

/// Splits a v2 response line into its echoed id and everything after it.
fn split_v2(line: &str) -> Option<(u64, &str)> {
    let rest = line.strip_prefix(V2_HEAD)?;
    let comma = rest.find(',')?;
    Some((rest[..comma].parse().ok()?, &rest[comma..]))
}

/// The twelve Table 1 requests in wire form, with the lines a correct
/// daemon must answer — computed in set-up from an in-process
/// `evaluate_request`, never from the daemon itself.
struct WireSet {
    requests: Vec<ApiRequest>,
    v1_lines: Vec<String>,
    expected_v1: Vec<String>,
    /// The v2 line after the echoed id (ids differ per request).
    expected_v2_tail: Vec<String>,
    cycles: Vec<u64>,
}

impl WireSet {
    fn table1() -> Result<WireSet, String> {
        let mut set = WireSet {
            requests: Vec::new(),
            v1_lines: Vec::new(),
            expected_v1: Vec::new(),
            expected_v2_tail: Vec::new(),
            cycles: Vec::new(),
        };
        for cell in ArchConfig::table1_cells() {
            let request = EvalRequest::new(cell);
            let spec = EvalSpec::from_request(&request)
                .ok_or_else(|| format!("{} has no wire form", request.config))?;
            let report = evaluate_request(&request);
            set.cycles.push(report.stats.cycles);
            let response = ApiResponse::EvalResult(Box::new(report));
            set.expected_v1.push(response.to_json());
            let v2 = response.to_json_v2(Some(0));
            let (_, tail) = split_v2(&v2).ok_or("v2 response is not in canonical form")?;
            set.expected_v2_tail.push(tail.to_owned());
            let request = ApiRequest::Eval(spec);
            set.v1_lines.push(request.to_json());
            set.requests.push(request);
        }
        Ok(set)
    }
}

/// What one client thread did in one pass.
struct ClientOutcome {
    finished: Instant,
    failed: u64,
    busy: u64,
    /// `(sent, answered)` per request — only when the pass is traced.
    latencies: Vec<(Instant, Instant)>,
}

/// The served workloads: an in-process `taco-served` daemon on loopback
/// and [`CLIENTS`] closed-loop client threads cycling the twelve warmed
/// Table 1 specs, so every request is an inline cache hit.
struct Served {
    dialect: Dialect,
    addr: SocketAddr,
    daemon: Option<JoinHandle<io::Result<()>>>,
    wire: WireSet,
    /// Spec index of each request, per client.
    plans: Vec<Vec<usize>>,
    sessions: Vec<Session>,
}

impl Served {
    fn start(dialect: Dialect, seed: u64) -> Result<Served, String> {
        let wire = WireSet::table1()?;
        let server = Server::bind(ServerConfig::default())
            .map_err(|e| format!("cannot bind a loopback daemon: {e}"))?;
        let addr = server.local_addr();
        let daemon = thread::spawn(move || server.run());
        let per_client = match dialect {
            Dialect::Session => HOT_REQUESTS,
            Dialect::Oneshot => ONESHOT_REQUESTS,
        };
        let plans = (0..CLIENTS)
            .map(|client| {
                let mut cycle: Vec<usize> = (0..wire.requests.len()).collect();
                shuffle(&mut cycle, seed.wrapping_add(client as u64));
                cycle.into_iter().cycle().take(per_client).collect()
            })
            .collect();
        let mut served =
            Served { dialect, addr, daemon: Some(daemon), wire, plans, sessions: Vec::new() };
        served.warm_up()?;
        Ok(served)
    }

    /// Warms the daemon's cache over the wire (each spec simulated once,
    /// its answer checked), opens the persistent sessions, and runs one
    /// untimed pass so the response memo and both sessions are hot.
    fn warm_up(&mut self) -> Result<(), String> {
        let mut session =
            Session::connect(self.addr).map_err(|e| format!("cannot open a session: {e}"))?;
        for (index, request) in self.wire.requests.iter().enumerate() {
            let id = session.send(request).map_err(|e| format!("warm-up send failed: {e}"))?;
            let line = session.recv_line().map_err(|e| format!("warm-up recv failed: {e}"))?;
            if split_v2(&line) != Some((id, self.wire.expected_v2_tail[index].as_str())) {
                return Err(format!("daemon disagrees with evaluate_request on spec {index}"));
            }
        }
        drop(session);
        if self.dialect == Dialect::Session {
            for _ in 0..CLIENTS {
                self.sessions.push(
                    Session::connect(self.addr)
                        .map_err(|e| format!("cannot open a session: {e}"))?,
                );
            }
        }
        let warm = self.pass(None);
        if warm.failed > 0 {
            return Err(format!("{} operations failed in the warm-up pass", warm.failed));
        }
        Ok(())
    }
}

/// One `served-hot` client: a closed loop keeping [`WINDOW`] requests in
/// flight on its persistent session.
fn session_client(
    session: &mut Session,
    wire: &WireSet,
    plan: &[usize],
    traced: bool,
) -> ClientOutcome {
    let mut outcome = ClientOutcome {
        finished: Instant::now(),
        failed: 0,
        busy: 0,
        latencies: Vec::with_capacity(if traced { plan.len() } else { 0 }),
    };
    // Session ids are consecutive, so the id of the first request locates
    // every later one in `plan` (and in `sent_at`).
    let mut first_id = None;
    let mut sent_at: Vec<Instant> = Vec::with_capacity(if traced { plan.len() } else { 0 });
    let (mut sent, mut done) = (0usize, 0usize);
    while done < plan.len() {
        while sent < plan.len() && sent - done < WINDOW {
            if traced {
                sent_at.push(Instant::now());
            }
            match session.send(&wire.requests[plan[sent]]) {
                Ok(id) => {
                    first_id.get_or_insert(id);
                }
                Err(_) => {
                    outcome.failed += (plan.len() - done) as u64;
                    outcome.finished = Instant::now();
                    return outcome;
                }
            }
            sent += 1;
        }
        let Ok(line) = session.recv_line() else {
            outcome.failed += (plan.len() - done) as u64;
            break;
        };
        let position = split_v2(&line).and_then(|(id, tail)| {
            let position = id.checked_sub(first_id?)? as usize;
            Some((position, tail))
        });
        match position {
            Some((position, tail)) if position < sent => {
                if traced {
                    outcome.latencies.push((sent_at[position], Instant::now()));
                }
                if tail != wire.expected_v2_tail[plan[position]] {
                    outcome.failed += 1;
                    outcome.busy += u64::from(tail.contains("\"code\":\"busy\""));
                }
            }
            _ => outcome.failed += 1,
        }
        done += 1;
    }
    outcome.finished = Instant::now();
    outcome
}

/// One `served-oneshot` client: a closed loop of one-request connections.
fn oneshot_client(addr: SocketAddr, wire: &WireSet, plan: &[usize], traced: bool) -> ClientOutcome {
    let mut outcome = ClientOutcome {
        finished: Instant::now(),
        failed: 0,
        busy: 0,
        latencies: Vec::with_capacity(if traced { plan.len() } else { 0 }),
    };
    for &spec in plan {
        let sent = traced.then(Instant::now);
        let answer = request_lines(addr, &wire.v1_lines[spec]);
        if let Some(sent) = sent {
            outcome.latencies.push((sent, Instant::now()));
        }
        match answer.as_deref() {
            Ok([line]) if *line == wire.expected_v1[spec] => {}
            Ok(lines) => {
                outcome.failed += 1;
                outcome.busy += u64::from(lines.iter().any(|l| l.contains("\"code\":\"busy\"")));
            }
            Err(_) => outcome.failed += 1,
        }
    }
    outcome.finished = Instant::now();
    outcome
}

impl Bench for Served {
    fn ops_per_pass(&self) -> u64 {
        self.plans.iter().map(|p| p.len() as u64).sum()
    }

    fn cycles_per_pass(&self) -> u64 {
        self.plans.iter().flatten().map(|&spec| self.wire.cycles[spec]).sum()
    }

    /// Pass time runs from the release of the start barrier to the last
    /// response of the slower client.
    fn pass(&mut self, spans: Option<&mut Recorder>) -> Pass {
        let traced = spans.is_some();
        let barrier = Barrier::new(CLIENTS + 1);
        let (wire, addr, dialect) = (&self.wire, self.addr, self.dialect);
        let mut sessions = self.sessions.iter_mut();
        let (started, outcomes) = thread::scope(|scope| {
            let clients: Vec<_> = self
                .plans
                .iter()
                .map(|plan| {
                    let session = sessions.next();
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        match (dialect, session) {
                            (Dialect::Session, Some(session)) => {
                                session_client(session, wire, plan, traced)
                            }
                            _ => oneshot_client(addr, wire, plan, traced),
                        }
                    })
                })
                .collect();
            barrier.wait();
            let started = Instant::now();
            let outcomes: Vec<ClientOutcome> =
                clients.into_iter().map(|c| c.join().expect("client thread")).collect();
            (started, outcomes)
        });
        let finished = outcomes.iter().map(|o| o.finished).max().unwrap_or(started);
        if let Some(rec) = spans {
            let name = rec.name(match dialect {
                Dialect::Session => "op.served-hot",
                Dialect::Oneshot => "op.served-oneshot",
            });
            for (client, outcome) in outcomes.iter().enumerate() {
                for &(sent, answered) in &outcome.latencies {
                    let op = rec.next_op();
                    rec.record(name, sent, answered, op, client as u32 + 1);
                }
            }
        }
        Pass {
            nanos: finished.saturating_duration_since(started).as_nanos() as u64,
            failed: outcomes.iter().map(|o| o.failed).sum(),
            busy: outcomes.iter().map(|o| o.busy).sum(),
        }
    }

    fn finish(mut self: Box<Self>) {
        self.sessions.clear();
        let _ = request_lines(self.addr, &ApiRequest::Shutdown.to_json());
        if let Some(daemon) = self.daemon.take() {
            let _ = daemon.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..12).collect();
        let mut b = a.clone();
        let mut c = a.clone();
        shuffle(&mut a, 2003);
        shuffle(&mut b, 2003);
        shuffle(&mut c, 7);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<u32>>());
    }

    #[test]
    fn v2_lines_split_at_the_echoed_id() {
        assert_eq!(
            split_v2("{\"api_version\":\"v2\",\"id\":41,\"kind\":\"status\"}"),
            Some((41, ",\"kind\":\"status\"}"))
        );
        assert_eq!(split_v2("{\"api_version\":\"v2\",\"id\":null,\"kind\":\"error\"}"), None);
        assert_eq!(split_v2("{\"api_version\":\"v1\",\"kind\":\"status\"}"), None);
    }

    #[test]
    fn golden_fixture_lines_up_with_the_table1_cells() {
        let cells = table1_cells_with_golden();
        assert_eq!(cells.len(), 12);
        for (cell, line) in cells {
            assert!(line.starts_with(&format!("{{\"label\":\"{}\"", cell.label())), "{line}");
        }
    }

    #[test]
    fn every_workload_name_prepares_or_is_refused_by_name() {
        let err = prepare("no-such-workload", 1).err().expect("refused");
        assert!(err.contains("table1-cold") && err.contains("served-oneshot"), "{err}");
    }

    #[test]
    fn a_wrong_output_is_counted_as_a_failed_operation() {
        let mut bench = Direct::table1_cold(2003);
        let pass = bench.pass(None);
        assert_eq!(pass.failed, 0);
        assert!(pass.nanos > 0);
        // Corrupt one golden cell: exactly that operation must fail.
        if let Check::Golden(lines) = &mut bench.check {
            lines[3] = "{\"label\":\"corrupted\"}";
        }
        assert_eq!(bench.pass(None).failed, 1);
    }
}
