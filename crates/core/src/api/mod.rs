//! The versioned JSON wire API: one schema shared by the daemon, the CLI
//! flags and the builder pipeline.
//!
//! Everything that crosses a process boundary — a `taco-served` request, a
//! cache snapshot entry, a client response — is one line of strict JSON
//! with an explicit `"api_version"` field.  Two schema versions coexist:
//!
//! * `API_VERSION` (`"v1"`) is the original one-shot dialect — one
//!   request per connection, responses in submission order, no request
//!   identity.  [`ApiRequest::from_json`]/[`ApiResponse::from_json`] speak
//!   it and reject everything else, which is what keeps the golden daemon
//!   fixtures byte-stable.
//! * `API_VERSION_V2` (`"v2"`) is the multiplexed session dialect: every
//!   request carries a client-chosen `"id"` echoed on all of its response
//!   lines, so many requests can be in flight on one persistent connection
//!   and their (possibly interleaved) streams can be told apart.  The
//!   request and response kinds are exactly v1's — v2 is v1 plus `"id"`
//!   plus a persistent connection.  [`ApiRequest::from_wire`] and
//!   [`WireResponse`] read either dialect; [`Envelope`] owns the spelling
//!   of a line's head in both directions.
//!
//! Every record lists its members once, in wire order, in a `record!` table
//! beside its type (`table` has the mechanism); the writer and the strict
//! reader are both expanded from that list.  A
//! record is the in-process type it spells: an eval line reads as the
//! [`EvalRequest`] that is evaluated, cached and persisted, checked as it
//! is read, and the name-based
//! parsers ([`parse_table_kind`], [`parse_workload_name`],
//! [`parse_fault_plan_name`], [`parse_machine_spec`]) are the single
//! source of truth `taco-cli dse`/`trace` and the wire layer share, so
//! a workload name means the same thing on a command line and on a socket.
//!
//! An [`ArchConfig`] crosses the wire as one flat object,
//! `{"table":...,"buses":...,"replication":...,"memory_ports":...}`, and a
//! [`FlowTrace`] as one spelling, an inline hex body, in an eval and a
//! sweep alike.
//!
//! Parsing is *strict*: unknown fields are rejected (a typo'd option must
//! not be silently ignored), version mismatches are reported as
//! [`ApiErrorCode::VersionMismatch`], and every failure is a structured
//! [`ApiError`] rather than a panic.  Serialisation follows the workspace's
//! byte-stability discipline: fixed key order, integers verbatim, floats
//! via the shortest-round-trip `Display` (exact under re-parse), and
//! non-finite floats as `null` (JSON has no `Infinity` literal; the only
//! producers are infeasible cells, where `null` mirrors the paper's "NA").

mod error;
pub mod json;
mod names;
mod report;
mod rules;
pub(crate) mod table;

pub use error::{ApiError, ApiErrorCode};
pub use names::{parse_fault_plan_name, parse_machine_spec, parse_table_kind, parse_workload_name};
pub use report::table1_cell_json;

use std::fmt::Write as _;
use std::sync::Arc;

use taco_routing::TableKind;
use taco_workload::{FaultPlan, FlowTrace, Workload};

use crate::arch::ArchConfig;
use crate::evaluate::EvalReport;
use crate::explorer::{Constraints, SweepSpec};
use crate::rate::LineRate;
use crate::request::EvalRequest;
use json::Json;
use names::{one_of, validated_rate};
use rules::{check_descriptor, check_entries, check_faults, check_workload};
use table::{must, record, scalar, unknown_tag, Bound, Raw, Record, Wire};

/// The one-shot wire schema version (one request per connection).
pub(crate) const API_VERSION: &str = "v1";

/// The multiplexed session schema version (persistent connections, every
/// request id-tagged).
pub(crate) const API_VERSION_V2: &str = "v2";

/// Strict field access over one JSON object: every member must be consumed
/// by the time [`Fields::finish`] runs, which is what rejects unknown
/// fields with a structured error instead of ignoring them.  The member
/// tables ([`table`]) read through it; what a value may be is theirs to say.
pub(crate) struct Fields<'a> {
    ctx: &'static str,
    members: &'a [(String, Json)],
    used: Vec<bool>,
}

impl<'a> Fields<'a> {
    pub(crate) fn new(ctx: &'static str, value: &'a Json) -> Result<Self, ApiError> {
        let members = value
            .as_object()
            .ok_or_else(|| ApiError::bad_request(format!("{ctx} must be a JSON object")))?;
        Ok(Fields { ctx, members, used: vec![false; members.len()] })
    }

    /// What errors call the object.
    pub(crate) fn ctx(&self) -> &'static str {
        self.ctx
    }

    /// The member named `name`, marking it consumed; `None` when absent.
    pub(crate) fn get(&mut self, name: &str) -> Option<&'a Json> {
        let i = self.members.iter().position(|(k, _)| k == name)?;
        self.used[i] = true;
        Some(&self.members[i].1)
    }

    /// Like [`Fields::get`], but a `null` value also reads as absent.
    pub(crate) fn get_non_null(&mut self, name: &str) -> Option<&'a Json> {
        self.get(name).filter(|v| !v.is_null())
    }

    /// The member named `name`, or a structured missing-field error.
    pub(crate) fn req(&mut self, name: &str) -> Result<&'a Json, ApiError> {
        let ctx = self.ctx;
        self.get(name)
            .ok_or_else(|| ApiError::bad_request(format!("{ctx}: missing field {name:?}")))
    }

    /// Errors on the first unconsumed member — the strict-parse guarantee.
    pub(crate) fn finish(self) -> Result<(), ApiError> {
        for (i, (key, _)) in self.members.iter().enumerate() {
            if !self.used[i] {
                return Err(ApiError::bad_request(format!("{}: unknown field {key:?}", self.ctx)));
            }
        }
        Ok(())
    }
}

// Values spelled by name; none needs escaping.  The names an error lists
// come from the type's own `ALL`, so they cannot drift from what is read.
scalar!(TableKind: |v, out| { let _ = write!(out, "\"{v}\""); },
    |json| json.as_str().and_then(|text| parse_table_kind(text).ok()),
    format_args!("be one of: {} (aliases: seq, tree, pat)", one_of(TableKind::ALL_KINDS)));
scalar!(ApiErrorCode: |v, out| { let _ = write!(out, "\"{}\"", v.as_str()); },
    |json| json.as_str().and_then(ApiErrorCode::from_str_opt),
    format_args!("be one of: {}", one_of(ApiErrorCode::ALL.map(ApiErrorCode::as_str))));

// ---------------------------------------------------------------------------
// Leaf records: config, rate, workload, fault plan, trace.
// ---------------------------------------------------------------------------

/// The wire form of a machine: routing-table
/// organisation, bus count, datapath replication and memory ports.
///
/// This spans every configuration the in-tree generators produce
/// ([`ArchConfig::with_replication`] composed with
/// [`ArchConfig::with_memory_ports`]); a hand-built [`MachineConfig`] with
/// *asymmetric* replication has no wire spelling and
/// [`ConfigSpec::from_config`] returns `None` for it.
///
/// [`MachineConfig`]: taco_isa::MachineConfig
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ConfigSpec {
    table: TableKind,
    buses: u8,
    replication: u8,
    memory_ports: u8,
}

record!(ConfigSpec as "config" { table, buses, replication, memory_ports [or 1], } check |spec| {
    spec.to_config()?; // validate ranges eagerly
});

impl ConfigSpec {
    /// The spelling of `config`, or `None` when the machine is not
    /// expressible (asymmetric replication).
    fn from_config(config: &ArchConfig) -> Option<ConfigSpec> {
        let spec = ConfigSpec::nearest(config);
        // Round-trip check: only machines the spec regenerates exactly are
        // expressible (this is what catches asymmetric replication).
        (spec.to_config().ok()? == *config).then_some(spec)
    }

    /// The spec read off `config`'s unit counts, exact or not.
    fn nearest(config: &ArchConfig) -> ConfigSpec {
        ConfigSpec {
            table: config.table,
            buses: config.machine.buses(),
            replication: config.machine.fu_count(taco_isa::FuKind::Matcher),
            memory_ports: config.machine.fu_count(taco_isa::FuKind::Mmu),
        }
    }
}

/// A machine is its [`ConfigSpec`].
impl Wire for ArchConfig {
    /// For the (in-tree-unreachable) case of a hand-built machine with no
    /// wire form, the nearest spec is written and the round trip is lossy.
    fn put(&self, out: &mut String) {
        ConfigSpec::nearest(self).put(out);
    }

    fn get(ctx: &str, name: &str, value: &Json) -> Result<Self, ApiError> {
        ConfigSpec::get(ctx, name, value)?.to_config()
    }
}

record!(LineRate as "rate" { bits_per_second, packet_bytes, } check |rate| {
    validated_rate(rate.bits_per_second, rate.packet_bytes)
        .map_err(|e| ApiError::bad_request(format!("rate: {e}")))?;
});

record!(Workload as "workload" by "name" {
    "steady-forward" => Self::SteadyForward { seed, ticks, packets_per_tick, entries, },
    "burst-overload" => Self::BurstOverload {
        seed, ticks, mean_per_tick_milli, burst_every, burst_len, burst_multiplier, entries,
    },
    "ripng-convergence" => Self::RipngConvergence {
        seed, ticks, neighbours, routes_per_neighbour, packets_per_tick,
    },
    "table-churn" => Self::TableChurn {
        seed, ticks, packets_per_tick, entries, churn_every, churn_size,
    },
    "mixed-plane" => Self::MixedPlane {
        seed, ticks, neighbours, routes_per_neighbour, packets_per_tick, burst_multiplier, phase_len,
    },
    "trace-replay" => Self::TraceReplay { seed, ticks, flows, entries, },
} else |ctx, name| unknown_tag(ctx, "name", name, |other| {
    parse_workload_name(other).expect_err("name did not match a builtin")
}), check |workload| {
    check_workload("workload", workload)?;
});

record!(FaultPlan as "faults" {
    seed, malformed_per_tick_milli, hop_limit_zero_per_tick_milli, corrupt_every, repair_ticks,
    repair_retries, flap_every, flap_down_ticks, stall_every_cycles, stall_cycles,
});

/// Appends lowercase hex of `bytes` to `out` — the wire encoding of an
/// inline flow trace (hex rather than base64: std-only, trivially
/// greppable, and the traces small enough to ship inline are small enough
/// to double in size).
fn hex_encode(bytes: &[u8], out: &mut String) {
    out.reserve(bytes.len() * 2);
    for &b in bytes {
        out.push(char::from_digit(u32::from(b >> 4), 16).expect("nibble"));
        out.push(char::from_digit(u32::from(b & 0xf), 16).expect("nibble"));
    }
}

/// Decodes [`hex_encode`] output (either nibble case accepted).
fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err(format!("hex body has odd length {}", s.len()));
    }
    s.as_bytes()
        .chunks_exact(2)
        .map(|pair| {
            let nibble = |c: u8| (c as char).to_digit(16).map(|d| d as u8);
            match (nibble(pair[0]), nibble(pair[1])) {
                (Some(hi), Some(lo)) => Ok(hi << 4 | lo),
                _ => Err(format!(
                    "hex body contains a non-hex byte pair {:?}",
                    String::from_utf8_lossy(pair)
                )),
            }
        })
        .collect()
}

/// A flow trace on the wire, in an eval and a sweep alike: the
/// [`FlowTrace::to_bytes`] body, hex-encoded, as the one member of an
/// `{"inline":…}` object.  The daemon must receive the records themselves:
/// it reads no file a client names.  The trace is resolved as it is read,
/// so every failure (bad hex, a corrupt or version-skewed body, a header
/// sizing more work than one request may) is a structured `trace: …` bad
/// request at the parse.
impl Wire for Arc<FlowTrace> {
    fn put(&self, out: &mut String) {
        out.push_str("{\"inline\":\"");
        hex_encode(&self.to_bytes(), out);
        out.push_str("\"}");
    }

    fn get(ctx: &str, name: &str, value: &Json) -> Result<Self, ApiError> {
        if value.as_object().is_none() {
            return Err(must(ctx, name, "be a JSON object"));
        }
        // Closed: `{"path":…}` is refused for the member it has, not for
        // the one it lacks.
        let mut f = Fields::new("trace", value)?;
        let inline = f.get("inline");
        f.finish()?;
        let hex = inline
            .ok_or_else(|| ApiError::bad_request("trace: missing field \"inline\""))?
            .as_str()
            .ok_or_else(|| must("trace", "inline", "be a string"))?;
        let trace = hex_decode(hex)
            .and_then(|bytes| FlowTrace::from_bytes(&bytes).map_err(|e| e.to_string()))
            .map_err(|e| ApiError::bad_request(format!("trace: {e}")))?;
        // The header's ticks and entries size the replay the records ride on.
        check_workload("trace header", &trace.descriptor())?;
        Ok(Arc::new(trace))
    }
}

// ---------------------------------------------------------------------------
// Evaluations and sweeps: the two request tables.
// ---------------------------------------------------------------------------

// The trace is the one replay an eval with both members runs: a workload
// beside it must be the trace's own descriptor, and a plan's frames are
// held to the scenario the trace sizes as well.
record!(EvalRequest as "eval spec" {
    config, line_rate as "rate", entries, workload [omit None], faults [omit None],
    flow_trace as "trace" [omit None],
} check |request| {
    check_entries("eval spec", "\"entries\"", request.entries as u64)?;
    check_faults("eval spec", request.workload.as_ref(), request.faults.as_ref())?;
    if let Some(trace) = &request.flow_trace {
        let descriptor = check_descriptor(request.workload, trace)?;
        check_faults("eval spec", Some(&descriptor), request.faults.as_ref())?;
    }
});

/// The retired name of an evaluation request, which `benchmarks/` spells.
pub type EvalSpec = EvalRequest;

impl EvalRequest {
    /// `request`, or `None` when its machine has no wire spelling.
    pub fn from_request(request: &EvalRequest) -> Option<EvalRequest> {
        ConfigSpec::from_config(&request.config).map(|_| request.clone())
    }
}

// Counts are range-checked here, at the wire boundary: `grid()` feeds
// them to constructors that panic on zero, so a bad request must die as a
// structured error long before it can reach the sweep.  A trace is every
// point's replay, so a workload beside it is held to the trace's
// descriptor as an eval's is.
record!(SweepSpec as "sweep spec" {
    buses, replication, kinds, entries,
    workload [omit None], faults [omit None], trace [omit None],
} check |spec| {
    for (axis, counts) in [("buses", &spec.buses), ("replication", &spec.replication)] {
        if counts.contains(&0) {
            return Err(must("sweep spec", axis, format_args!("hold 1..={}, got 0", u8::MAX)));
        }
    }
    check_entries("sweep spec", "\"entries\"", spec.entries as u64)?;
    let scenario = match &spec.trace {
        Some(trace) => Some(check_descriptor(spec.workload, trace)?),
        None => spec.workload,
    };
    check_faults("sweep spec", scenario.as_ref(), spec.faults.as_ref())?;
});

// `null` is what it is everywhere else in the schema, no bound; only an
// absent member takes the designer's default.
record!(Constraints as "constraints" {
    max_power_w: Bound [or Constraints::default().max_power_w],
    max_area_mm2: Bound [or Constraints::default().max_area_mm2],
    max_scenario_drops [or None],
    max_unrecovered_faults [or None],
});

// ---------------------------------------------------------------------------
// The envelope.
// ---------------------------------------------------------------------------

/// The head of a wire line: the dialect, and for v2 the request id the
/// line carries or echoes.  Every line of either dialect is
/// `envelope.wrap(body)`; this type owns that spelling in both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Envelope {
    /// The one-shot dialect: no request identity.
    V1,
    /// The session dialect; `None` is `"id":null`, the answer to a frame
    /// too broken to carry an id.
    V2(Option<u64>),
}

// The tags are `API_VERSION` and `API_VERSION_V2`; an `"id"` on a v1 line
// is an unknown member.
record!(Envelope as "line" by "api_version" {
    "v1" => Self::V1 {},
    "v2" => Self::V2 { id in 0, },
} else |ctx, version: &Json| match version.as_str() {
    Some(other) => ApiError::version_mismatch(other),
    None => must(ctx, "api_version", "be a string"),
});

impl Envelope {
    /// The line carrying `body` — a request's or a response's members
    /// after the envelope, without braces ([`ApiResponse::body_json`]).
    pub fn wrap(self, body: &str) -> String {
        let mut line = String::with_capacity(body.len() + 48);
        line.push('{');
        self.put_members(&mut line);
        line.push(',');
        line.push_str(body);
        line.push('}');
        line
    }

    /// Undoes [`Envelope::wrap`] without parsing the body: `Some` exactly
    /// when `line` is `envelope.wrap(body)`.  Only the encoder's spelling
    /// of the head is read — members in its order, no whitespace, the id in
    /// ASCII digits with no sign and no leading zero — so a line in any
    /// other spelling, valid or not, is left to the strict parser.
    pub fn split(line: &str) -> Option<(Envelope, &str)> {
        let rest = line.strip_prefix("{\"api_version\":\"")?.strip_suffix('}')?;
        if let Some(body) = rest.strip_prefix(API_VERSION).and_then(|r| r.strip_prefix("\",")) {
            return Some((Envelope::V1, body));
        }
        let rest = rest.strip_prefix(API_VERSION_V2)?.strip_prefix("\",\"id\":")?;
        let (id, body) = rest.split_once(',')?;
        let canonical =
            id.bytes().all(|b| b.is_ascii_digit()) && (id == "0" || !id.starts_with('0'));
        let id = if id == "null" { None } else { Some(id.parse().ok().filter(|_| canonical)?) };
        Some((Envelope::V2(id), body))
    }
}

/// Strictly parses one line of either dialect: its envelope, then `T`'s
/// members and nothing else.
fn read_line<T: Record>(line: &str) -> Result<(Envelope, T), ApiError> {
    let value = Json::parse(line).map_err(|e| ApiError::bad_request(e.to_string()))?;
    let mut f = Fields::new(T::CTX, &value)?;
    let envelope = Envelope::get_members(&mut f)?;
    let body = T::get_members(&mut f)?;
    f.finish()?;
    Ok((envelope, body))
}

// ---------------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------------

/// One client request, the unit of the wire protocol (one JSON line each).
#[derive(Debug, Clone, PartialEq)]
pub enum ApiRequest {
    /// Evaluate a single architecture instance.
    Eval(EvalRequest),
    /// Run a whole sweep as one batch job.
    Sweep {
        /// The exploration grid.
        spec: SweepSpec,
        /// Line-rate target for every grid point.
        rate: LineRate,
        /// Admission constraints for the ranking.
        constraints: Constraints,
    },
    /// Ask the daemon for queue and cache statistics.
    Status,
    /// Ask the daemon to drain, persist its cache and exit — the
    /// SIGTERM-equivalent shutdown byte.
    Shutdown,
}

// The same kinds in either dialect; an `eval` stays flat.
record!(ApiRequest as "request" by "kind" {
    "eval" => Self::Eval { request in 0: Flat, },
    "sweep" => Self::Sweep { spec, rate, constraints [or Constraints::default()], },
    "status" => Self::Status {},
    "shutdown" => Self::Shutdown {},
} else |ctx, kind| unknown_tag(ctx, "kind", kind, |other| {
    format!("unknown request kind {other:?}; expected eval, sweep, status or shutdown")
}));

impl ApiRequest {
    /// Serialises the request as one v1 JSON line (fixed key order,
    /// explicit `"api_version"`).
    pub fn to_json(&self) -> String {
        Envelope::V1.wrap(&self.members())
    }

    /// Serialises the request as one v2 JSON line carrying the
    /// client-chosen `id` that every response line for this request will
    /// echo.
    pub fn to_json_v2(&self, id: u64) -> String {
        Envelope::V2(Some(id)).wrap(&self.members())
    }

    /// Strictly parses one **v1** request line: bad JSON, missing/unknown
    /// fields and out-of-range values are [`ApiErrorCode::BadRequest`]; a
    /// wrong `"api_version"` (including `"v2"`) is
    /// [`ApiErrorCode::VersionMismatch`].  Session-aware servers parse
    /// through [`ApiRequest::from_wire`] instead.
    pub fn from_json(line: &str) -> Result<ApiRequest, ApiError> {
        match read_line(line)? {
            (Envelope::V1, request) => Ok(request),
            _ => Err(ApiError::version_mismatch(API_VERSION_V2)),
        }
    }

    /// Strictly parses one request line of either dialect — the parse
    /// every `taco-served` connection runs on each frame.  The envelope
    /// tells the server which session semantics the client expects:
    /// [`Envelope::V1`], or [`Envelope::V2`] with the id v2 requires.
    pub fn from_wire(line: &str) -> Result<(Envelope, ApiRequest), ApiError> {
        match read_line(line)? {
            (Envelope::V2(None), _) => Err(must(ApiRequest::CTX, "id", "be an unsigned integer")),
            read => Ok(read),
        }
    }
}

/// Best-effort extraction of the `"id"` member from a line that failed
/// the strict parse, so a v2 error response can still be correlated with
/// the request that caused it (`None` when even that much is unreadable —
/// the server then answers with `"id":null`).
pub fn salvage_request_id(line: &str) -> Option<u64> {
    let value = Json::parse(line).ok()?;
    value.as_object()?.iter().find(|(k, _)| k == "id")?.1.as_u64()
}

// ---------------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------------

/// Daemon queue and cache statistics, the payload of a `status` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusInfo {
    /// Jobs admitted and not yet fully answered.
    pub in_flight: u64,
    /// Admitted jobs still waiting for a runner thread — the current
    /// queue depth, which together with the cache counters distinguishes
    /// a cold cache from a saturated queue when diagnosing slow clients.
    pub queued: u64,
    /// The admission bound ([`ApiErrorCode::Busy`] beyond it).
    pub max_pending: u64,
    /// `true` once a shutdown has been requested.
    pub draining: bool,
    /// The evaluation cache's counters, nested as the wire nests them.
    pub cache: CacheCounters,
}

/// The `"cache"` object of a `status` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Evaluations stored in the cache.
    pub entries: u64,
    /// Cache lookups answered from the map.
    pub hits: u64,
    /// Cache lookups that had to simulate.
    pub misses: u64,
}

record!(StatusInfo as "response" { in_flight, queued, max_pending, draining, cache, });

record!(CacheCounters as "status cache" { entries, hits, misses, });

record!(ApiError as "response" { code, message, });

/// One server response line.
///
/// Result payloads are **byte-stable**: an `eval_result` for a given
/// request is identical whether it was simulated or answered from the
/// cache (cache statistics live in the `status` response instead), which
/// is what lets the daemon integration tests pin responses against the
/// golden Table 1 fixture across restarts.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiResponse {
    /// The result of one `eval` request: the golden-fixture cell line plus
    /// the full report.
    EvalResult(Box<EvalReport>),
    /// Streamed per-point progress of a running sweep (delivered before
    /// the final [`ApiResponse::SweepResult`]; completion order, not index
    /// order).
    SweepPoint {
        /// Sweep index of the finished point.
        index: usize,
        /// Total points in the sweep.
        total: usize,
        /// The point's Table 1 style label.
        label: String,
        /// Whether the evaluation cache answered it.
        cache_hit: bool,
        /// Whether the point is physically feasible.
        feasible: bool,
    },
    /// The final result of a `sweep` request.
    SweepResult {
        /// Indices into `reports` admitted by the constraints, best first.
        admitted: Vec<usize>,
        /// Every evaluated point, in sweep order.
        reports: Vec<EvalReport>,
    },
    /// Queue and cache statistics.
    Status(StatusInfo),
    /// Shutdown acknowledged: the cache snapshot was written (`persisted`
    /// entries), or `None` when no snapshot path is configured / the write
    /// failed.
    ShutdownAck {
        /// Evaluations persisted to the snapshot.
        persisted: Option<u64>,
    },
    /// A structured failure.
    Error(ApiError),
}

// `cell`, `points` and `best` are derived from the reports beside them:
// written for readers of the line, dropped on the way in (`cell` unread,
// as it always was; the other two type-checked).
record!(ApiResponse as "response" by "kind" {
    "eval_result" => Self::EvalResult {
        #cell: Raw = Raw(table1_cell_json(report)),
        report in 0,
    },
    "sweep_point" => Self::SweepPoint { index, total, label, cache_hit, feasible, },
    "sweep_result" => Self::SweepResult {
        #points: usize = reports.len(),
        admitted,
        #best: Option<String> =
            admitted.first().and_then(|&i| reports.get(i)).map(|r| r.config.label()),
        reports,
    } check |result| {
        if !matches!(result, Self::SweepResult { reports, .. } if reports.len() == points) {
            return Err(must("response", "points", "count the reports present"));
        }
    },
    "status_result" => Self::Status { info in 0: Flat, },
    "shutdown_ack" => Self::ShutdownAck { persisted [or None], },
    "error" => Self::Error { error in 0: Flat, },
} else |ctx, kind| unknown_tag(ctx, "kind", kind, |other| {
    format!("unknown response kind {other:?}")
}));

impl ApiResponse {
    /// The response's JSON members after the envelope (no braces, starting
    /// at `"kind"`) — what [`Envelope::wrap`] takes.  Front ends that
    /// memoise a serialised response body and wrap version/id envelopes
    /// around it (the daemon's inline cache-hit fast path) use this instead
    /// of re-serialising per request.
    pub fn body_json(&self) -> String {
        self.members()
    }

    /// Serialises the response as one v1 JSON line.
    pub fn to_json(&self) -> String {
        Envelope::V1.wrap(&self.members())
    }

    /// Serialises the response as one v2 JSON line echoing the request's
    /// `id` (`None` → `"id":null`, for errors on frames too broken to
    /// carry one).
    pub fn to_json_v2(&self, id: Option<u64>) -> String {
        Envelope::V2(id).wrap(&self.members())
    }

    /// Strictly parses one **v1** response line.
    ///
    /// `eval_result`/`sweep_result` payloads are only parseable when their
    /// reports are (reports carrying a `sim_error` are one-way).
    /// Session-aware clients parse through [`WireResponse::from_json`]
    /// instead.
    pub fn from_json(line: &str) -> Result<ApiResponse, ApiError> {
        match read_line(line)? {
            (Envelope::V1, response) => Ok(response),
            _ => Err(ApiError::version_mismatch(API_VERSION_V2)),
        }
    }
}

/// One response line of either dialect, as a client reads it.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResponse {
    /// The line's head: [`Envelope::V1`], or [`Envelope::V2`] echoing the
    /// request id — `None` for an error whose offending frame carried no
    /// salvageable id (`"id":null`).
    pub envelope: Envelope,
    /// The response proper.
    pub response: ApiResponse,
}

impl WireResponse {
    /// Serialises under the line's own envelope.
    pub fn to_json(&self) -> String {
        self.envelope.wrap(&self.response.members())
    }

    /// Strictly parses one response line of either dialect.
    pub fn from_json(line: &str) -> Result<WireResponse, ApiError> {
        let (envelope, response) = read_line(line)?;
        Ok(WireResponse { envelope, response })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use taco_isa::MachineConfig;

    fn cam_request() -> EvalRequest {
        EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam))
    }

    /// A line's reader: strict parse, then the encoder again.
    pub(crate) type Reread = fn(&str) -> Result<String, ApiError>;

    fn reread_request(line: &str) -> Result<String, ApiError> {
        ApiRequest::from_wire(line).map(|(envelope, request)| envelope.wrap(&request.members()))
    }

    fn reread_response(line: &str) -> Result<String, ApiError> {
        WireResponse::from_json(line).map(|wire| wire.to_json())
    }

    /// Members a reader may find absent: each has a documented default.
    const DEFAULTED: [&str; 12] = [
        "memory_ports",
        "workload",
        "faults",
        "trace",
        "constraints",
        "max_power_w",
        "max_area_mm2",
        "max_scenario_drops",
        "max_unrecovered_faults",
        "persisted",
        "cam",
        "scenario",
    ];

    /// Objects the grid does not open: `scenario` is written by the crates
    /// below (no member table), the trigger maps are keyed by FU name, not
    /// by member, and `cell` is derived text, read unchecked.
    const CLOSED: [&str; 4] = ["scenario", "fu_triggers", "fu_instance_triggers", "cell"];

    /// Every object of `json` not under a [`CLOSED`] member, as the path of
    /// member names that leads to it.
    fn objects(json: &Json, path: &mut Vec<String>, found: &mut Vec<Vec<String>>) {
        let Some(members) = json.as_object() else { return };
        found.push(path.clone());
        for (name, value) in members {
            // A report's config is held to its label; requests open the table.
            let labelled = name == "config" && path.last().is_some_and(|p| p == "report");
            if !CLOSED.contains(&name.as_str()) && !labelled {
                path.push(name.clone());
                objects(value, path, found);
                path.pop();
            }
        }
    }

    fn at<'a>(json: &'a mut Json, path: &[String]) -> &'a mut Vec<(String, Json)> {
        let Json::Obj(members) = json else { panic!("{path:?} leads to an object") };
        match path.split_first() {
            None => members,
            Some((name, rest)) => {
                at(&mut members.iter_mut().find(|(k, _)| k == name).expect("path").1, rest)
            }
        }
    }

    /// The grid over one canonical line: it reads back as written, and for
    /// every member of every open object — removed, it is named as missing
    /// or takes its documented default; given a value of a JSON type no kind
    /// takes, it is named; beside an unknown sibling, the sibling is named.
    /// Returns the member names seen.
    pub(crate) fn table_grid(line: &str, reread: Reread) -> Vec<String> {
        assert_eq!(reread(line).as_deref(), Ok(line), "not a fixed point");
        let json = Json::parse(line).expect("a canonical line");
        let mut paths = Vec::new();
        objects(&json, &mut Vec::new(), &mut paths);
        let mut seen = Vec::new();
        for path in &paths {
            let mut stranger = json.clone();
            at(&mut stranger, path).push(("zzz".to_owned(), Json::Null));
            let e = reread(&stranger.encode()).expect_err("an unknown member");
            assert!(e.message.contains("unknown field \"zzz\""), "{path:?}: {e}");

            let members = at(&mut json.clone(), path).clone();
            for (slot, (name, value)) in members.iter().enumerate() {
                seen.push(name.clone());
                let quoted = format!("{name:?}");

                let mut without = json.clone();
                at(&mut without, path).remove(slot);
                let defaulted = DEFAULTED.contains(&name.as_str());
                match reread(&without.encode()) {
                    Ok(_) => assert!(defaulted, "{path:?}: {name} is not optional"),
                    Err(e) => {
                        assert!(!defaulted, "{path:?}: {name} has a default: {e}");
                        let missing = format!("missing field {quoted}");
                        assert!(e.message.contains(&missing), "{path:?}: {e}");
                    }
                }

                if name != "cell" {
                    let mut bent = json.clone();
                    at(&mut bent, path)[slot].1 = match value {
                        Json::Bool(_) => Json::Str("x".into()),
                        _ => Json::Bool(true),
                    };
                    let e = reread(&bent.encode()).expect_err("a value of the wrong type");
                    assert_eq!(e.code, ApiErrorCode::BadRequest);
                    assert!(e.message.contains(&quoted), "{path:?}: {name}: {e}");
                }
            }
        }
        seen
    }

    /// One line per table and variant: requests and responses that between
    /// them carry every member of every table in this module and `report`.
    fn sample_lines() -> Vec<(String, Reread)> {
        let trace = Arc::new(taco_workload::TraceGen::generate(9, 30, 5, 8));
        let mut requests = vec![ApiRequest::Status, ApiRequest::Shutdown];
        for workload in Workload::builtin() {
            let mut spec = cam_request();
            spec.workload = Some(workload);
            spec.faults = Some(FaultPlan::storm());
            requests.push(ApiRequest::Eval(spec));
        }
        requests.push(ApiRequest::Eval(cam_request().entries(8).flow_trace(trace.clone())));
        requests.push(ApiRequest::Sweep {
            spec: SweepSpec {
                buses: vec![1, 3],
                replication: vec![1, 2],
                kinds: vec![TableKind::Cam, TableKind::BalancedTree],
                entries: 8,
                workload: None,
                faults: Some(FaultPlan::flaps()),
                trace: Some(trace),
            },
            rate: LineRate::GIGE,
            constraints: Constraints {
                max_power_w: 3.5,
                max_area_mm2: f64::INFINITY,
                max_scenario_drops: Some(10),
                max_unrecovered_faults: None,
            },
        });

        let feasible = EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam))
            .entries(8)
            .workload(Workload::steady_forward())
            .run();
        let infeasible =
            EvalRequest::new(ArchConfig::one_bus_one_fu(TableKind::Sequential)).entries(64).run();
        assert!(feasible.estimate.feasible().is_some_and(|e| e.cam.is_some()));
        assert!(!infeasible.is_feasible());
        let status = StatusInfo {
            in_flight: 2,
            queued: 1,
            max_pending: 8,
            draining: false,
            cache: CacheCounters { entries: 11, hits: 40, misses: 11 },
        };
        let responses = [
            ApiResponse::EvalResult(Box::new(feasible.clone())),
            ApiResponse::SweepPoint {
                index: 1,
                total: 2,
                label: "cam \"3BUS\"".to_owned(),
                cache_hit: true,
                feasible: false,
            },
            ApiResponse::SweepResult {
                admitted: vec![1],
                reports: vec![infeasible.clone(), feasible],
            },
            ApiResponse::Status(status),
            ApiResponse::ShutdownAck { persisted: Some(9) },
            ApiResponse::ShutdownAck { persisted: None },
            ApiResponse::Error(ApiError::busy("queue full (4 in flight)")),
            ApiResponse::EvalResult(Box::new(infeasible.clone())),
        ];

        let mut lines: Vec<(String, Reread)> = Vec::new();
        for request in &requests {
            lines.push((request.to_json(), reread_request));
        }
        lines.push((requests[0].to_json_v2(7), reread_request));
        for response in &responses {
            lines.push((response.to_json(), reread_response));
        }
        lines.push((responses[5].to_json_v2(Some(7)), reread_response));
        lines.push((responses[6].to_json_v2(None), reread_response));
        lines
    }

    #[test]
    fn every_member_of_every_table_is_required_typed_and_closed() {
        let mut seen: Vec<String> = Vec::new();
        for (line, reread) in sample_lines() {
            seen.extend(table_grid(&line, reread));
        }
        // A member added to a table without a sample line fails here.
        let tables: Vec<&[&str]> = vec![
            Envelope::MEMBERS,
            ConfigSpec::MEMBERS,
            LineRate::MEMBERS,
            Workload::MEMBERS,
            FaultPlan::MEMBERS,
            EvalRequest::MEMBERS,
            SweepSpec::MEMBERS,
            Constraints::MEMBERS,
            ApiRequest::MEMBERS,
            StatusInfo::MEMBERS,
            CacheCounters::MEMBERS,
            ApiError::MEMBERS,
            ApiResponse::MEMBERS,
            EvalReport::MEMBERS,
            taco_sim::SimStats::MEMBERS,
            taco_estimate::Estimate::MEMBERS,
            taco_estimate::PhysicalEstimate::MEMBERS,
            taco_estimate::ExternalCam::MEMBERS,
            &["api_version", "kind", "name", "feasible"],
        ];
        // Not on any line: a report with a `sim_error` does not read back,
        // and a member read `Flat` lends its name to no key.
        let unseen = ["sim_error", "request", "info", "error"];
        for member in tables.iter().flat_map(|table| table.iter()) {
            assert!(seen.iter().any(|s| s == member) || unseen.contains(member), "{member}");
        }
    }

    #[test]
    fn an_infinite_constraint_survives_the_wire_in_both_dialects() {
        let request = ApiRequest::Sweep {
            spec: SweepSpec { entries: 8, ..SweepSpec::default() },
            rate: LineRate::TEN_GBE,
            constraints: Constraints { max_power_w: f64::INFINITY, ..Constraints::default() },
        };
        let line = request.to_json();
        assert!(line.contains("\"max_power_w\":null,\"max_area_mm2\":50,"), "{line}");
        assert_eq!(ApiRequest::from_json(&line).unwrap(), request);
        let wire = ApiRequest::from_wire(&request.to_json_v2(3)).unwrap();
        assert_eq!(wire, (Envelope::V2(Some(3)), request));
        // Only an absent member takes the designer's default.
        let absent = line.replace("\"max_power_w\":null,", "");
        let ApiRequest::Sweep { constraints, .. } = ApiRequest::from_json(&absent).unwrap() else {
            panic!("a sweep")
        };
        assert_eq!(constraints, Constraints::default());
    }

    #[test]
    fn a_trace_that_names_a_file_dies_naming_the_member() {
        // The daemon opens no file a client names: `path` is not a member,
        // and it is refused before the missing `inline` is.
        for bad in ["{\"path\":\"t.bin\"}", "{\"inline\":\"00\",\"path\":\"x\"}"] {
            let value = Json::parse(bad).unwrap();
            let err = <Arc<FlowTrace>>::get("eval spec", "trace", &value).expect_err(bad);
            assert!(err.message.contains("unknown field \"path\""), "{bad}: {}", err.message);
        }
    }

    #[test]
    fn trace_workload_mismatch_is_a_structured_bad_request() {
        let trace = Arc::new(taco_workload::TraceGen::generate(9, 30, 5, 8));
        let built = cam_request().entries(8).flow_trace(trace.clone());
        let cache = crate::cache::EvalCache::new();
        let report = cache.evaluate(&built);

        // A line carrying only the trace is the builder's request, and
        // finds the entry the builder's request filled.
        let line = ApiRequest::Eval(built.clone()).to_json();
        assert!(line.contains("\"trace\"") && !line.contains("\"workload\""), "{line}");
        let ApiRequest::Eval(decoded) = ApiRequest::from_json(&line).unwrap() else {
            panic!("an eval")
        };
        assert_eq!(decoded, built);
        assert_eq!(cache.lookup_recorded(&decoded).as_ref(), Some(&report));

        // A workload equal to the trace's descriptor is accepted, and is
        // the same evaluation...
        let mut spelled = built;
        spelled.workload = Some(trace.descriptor());
        let line = ApiRequest::Eval(spelled.clone()).to_json();
        assert_eq!(ApiRequest::from_json(&line), Ok(ApiRequest::Eval(spelled.clone())));
        assert_eq!(cache.lookup_recorded(&spelled).as_ref(), Some(&report));

        // ...any other workload is refused at the parse, not silently
        // overridden.
        spelled.workload = Some(Workload::burst_overload());
        let line = ApiRequest::Eval(spelled).to_json();
        let err = ApiRequest::from_json(&line).expect_err("mismatched workload must be rejected");
        assert_eq!(err.code, ApiErrorCode::BadRequest);
        assert!(err.message.contains("descriptor"), "{}", err.message);
    }

    #[test]
    fn a_sweep_trace_refuses_a_mismatched_workload_as_an_eval_does() {
        let trace = Arc::new(taco_workload::TraceGen::generate(9, 30, 5, 8));
        let sweep = |workload| ApiRequest::Sweep {
            spec: SweepSpec {
                entries: 8,
                workload,
                trace: Some(trace.clone()),
                ..SweepSpec::default()
            },
            rate: LineRate::TEN_GBE,
            constraints: Constraints::default(),
        };
        // Without a workload, or with the trace's own descriptor, the line
        // is the sweep it spells.
        for workload in [None, Some(trace.descriptor())] {
            let line = sweep(workload).to_json();
            assert_eq!(ApiRequest::from_json(&line), Ok(sweep(workload)), "{line}");
        }
        // Any other workload is refused with the eval's message, not
        // silently dropped for the trace's.
        let eval = cam_request().flow_trace(trace.clone()).workload(Workload::burst_overload());
        let eval_err = ApiRequest::from_json(&ApiRequest::Eval(eval).to_json()).unwrap_err();
        let line = sweep(Some(Workload::burst_overload())).to_json();
        let err = ApiRequest::from_json(&line).expect_err("mismatched workload must be rejected");
        assert_eq!(err.code, ApiErrorCode::BadRequest);
        assert!(err.message.contains("descriptor"), "{}", err.message);
        assert_eq!(err, eval_err);
    }

    #[test]
    fn a_fault_plan_counts_against_the_offered_budget() {
        let mut spec = cam_request();
        spec.workload = Some(Workload::steady_forward());
        for (_, plan) in FaultPlan::builtin() {
            for workload in Workload::builtin() {
                assert_eq!(check_faults("eval spec", Some(&workload), Some(&plan)), Ok(()));
            }
        }
        // 2^63 frames a tick parsed nothing at the wire before this check.
        let greedy = FaultPlan { malformed_per_tick_milli: 1 << 63, ..FaultPlan::none() };
        spec.faults = Some(greedy);
        let trace = taco_workload::TraceGen::generate(9, 30, 5, 8);
        let sweep = |workload, trace| ApiRequest::Sweep {
            spec: SweepSpec { workload, faults: Some(greedy), trace, ..SweepSpec::default() },
            rate: LineRate::TEN_GBE,
            constraints: Constraints::default(),
        };
        for line in [
            ApiRequest::Eval(spec.clone()).to_json(),
            sweep(spec.workload, None).to_json(),
            sweep(None, Some(Arc::new(trace.clone()))).to_json(),
        ] {
            let err = ApiRequest::from_json(&line).expect_err("an over-rate plan");
            assert!(err.message.contains("\"faults\" injects up to"), "{err}");
        }
        // An eval's plan is held to its trace's header as well.
        spec.workload = None;
        spec.flow_trace = Some(Arc::new(trace));
        let err = ApiRequest::from_json(&ApiRequest::Eval(spec.clone()).to_json())
            .expect_err("an over-rate plan");
        assert!(err.message.contains("\"faults\" injects up to"), "{err}");
        // Without a scenario a plan injects no frames.
        spec.flow_trace = None;
        assert!(ApiRequest::from_json(&ApiRequest::Eval(spec).to_json()).is_ok());
    }

    #[test]
    fn removed_request_kinds_are_unknown_in_both_dialects() {
        // The cache-exchange kinds (spelled in halves: verify.sh fails if
        // the whole names reappear).
        for op in ["export", "import"] {
            let kind = format!("cache_{op}");
            let v1 = ApiRequest::Status.to_json().replace("status", &kind);
            let v2 = ApiRequest::Status.to_json_v2(7).replace("status", &kind);
            for err in [ApiRequest::from_json(&v1), ApiRequest::from_wire(&v2).map(|w| w.1)]
                .map(Result::unwrap_err)
            {
                assert_eq!(err.code, ApiErrorCode::BadRequest);
                assert!(err.message.contains(&format!("unknown request kind {kind:?}")), "{err}");
            }
        }
    }

    #[test]
    fn removed_multicore_members_are_unknown_fields() {
        // An evaluation is one processor: a machine's `core`, a sweep's
        // core, topology and protocol axes and a status line's `features`
        // are members no table has, in either dialect.
        let eval = ApiRequest::Eval(cam_request()).to_json();
        let sweep = ApiRequest::Sweep {
            spec: SweepSpec { entries: 8, ..SweepSpec::default() },
            rate: LineRate::TEN_GBE,
            constraints: Constraints::default(),
        }
        .to_json();
        let status = ApiResponse::Status(StatusInfo {
            in_flight: 0,
            queued: 0,
            max_pending: 4,
            draining: false,
            cache: CacheCounters { entries: 0, hits: 0, misses: 0 },
        })
        .to_json();
        let core = "\"core\":{\"table\":\"cam\",\"buses\":3,\"replication\":1}";
        let with = |line: &str, after: &str, member: &str| {
            line.replacen(after, &format!("{after},{member}"), 1)
        };
        let lines = [
            ("core", with(&eval, "\"memory_ports\":1", core), reread_request as Reread),
            ("cores", with(&sweep, "\"entries\":8", "\"cores\":[1,2]"), reread_request),
            ("topologies", with(&sweep, "\"entries\":8", "\"topologies\":[]"), reread_request),
            ("protocols", with(&sweep, "\"entries\":8", "\"protocols\":[]"), reread_request),
            ("features", with(&status, "\"misses\":0}", "\"features\":{}"), reread_response),
        ];
        for (member, line, reread) in lines {
            let v2 = line.replacen("\"v1\"", "\"v2\",\"id\":7", 1);
            for line in [line, v2] {
                let err = reread(&line).expect_err(&line);
                assert_eq!(err.code, ApiErrorCode::BadRequest, "{line}");
                assert!(err.message.contains(&format!("unknown field {member:?}")), "{err}");
            }
        }
        // The nested machine spelling as a whole reads as a flat one
        // missing its table.
        let nested = eval.replace(
            "\"config\":{\"table\":\"cam\",\"buses\":3,\"replication\":1,\"memory_ports\":1}",
            &format!("\"config\":{{{core},\"cores\":2}}"),
        );
        assert_ne!(nested, eval);
        let err = reread_request(&nested).expect_err(&nested);
        assert!(err.message.contains("config: missing field \"table\""), "{err}");
    }

    #[test]
    fn version_mismatch_is_structured() {
        let line = ApiRequest::Status.to_json().replace("\"v1\"", "\"v0\"");
        let err = ApiRequest::from_json(&line).unwrap_err();
        assert_eq!(err.code, ApiErrorCode::VersionMismatch);
        assert!(err.message.contains("v0"), "{err}");
        // The one-shot entry points speak v1 only.
        let v2 = ApiRequest::Status.to_json_v2(1);
        assert_eq!(ApiRequest::from_json(&v2).unwrap_err().code, ApiErrorCode::VersionMismatch);
        let v2 = ApiResponse::ShutdownAck { persisted: None }.to_json_v2(Some(1));
        assert_eq!(ApiResponse::from_json(&v2).unwrap_err().code, ApiErrorCode::VersionMismatch);
        // Missing version entirely is a bad request.
        let err = ApiRequest::from_json("{\"kind\":\"status\"}").unwrap_err();
        assert_eq!(err.code, ApiErrorCode::BadRequest);
    }

    #[test]
    fn garbage_and_wrong_shapes_are_bad_requests() {
        for bad in ["", "not json", "[]", "42", "{\"api_version\":\"v1\"}"] {
            let err = ApiRequest::from_json(bad).unwrap_err();
            assert_eq!(err.code, ApiErrorCode::BadRequest, "{bad:?}");
        }
        let err =
            ApiRequest::from_json("{\"api_version\":\"v1\",\"kind\":\"teapot\"}").unwrap_err();
        assert!(err.message.contains("teapot"), "{err}");
    }

    #[test]
    fn out_of_range_entries_and_zero_buses_are_rejected_not_panics() {
        // More entries than data memory has words: refused at the parse,
        // before a runner generates a million routes to find that out.
        let max = taco_sim::DEFAULT_MEMORY_WORDS as usize;
        for (entries, ok) in [(0, false), (max, true), (max + 1, false), (1 << 40, false)] {
            let spec = cam_request().entries(entries);
            let sweep = ApiRequest::Sweep {
                spec: SweepSpec { entries, ..SweepSpec::default() },
                rate: LineRate::TEN_GBE,
                constraints: Constraints::default(),
            };
            for request in [ApiRequest::Eval(spec), sweep] {
                match ApiRequest::from_json(&request.to_json()) {
                    Ok(parsed) => assert!(ok && parsed == request, "{entries}"),
                    Err(err) => {
                        assert_eq!(err.code, ApiErrorCode::BadRequest);
                        assert!(!ok && err.message.contains("\"entries\" must be in"), "{err}");
                    }
                }
            }
        }

        let line = ApiRequest::Eval(cam_request()).to_json().replace("\"buses\":3", "\"buses\":0");
        let err = ApiRequest::from_json(&line).unwrap_err();
        assert_eq!(err.code, ApiErrorCode::BadRequest);
    }

    #[test]
    fn config_spec_inverts_every_in_tree_shape() {
        let mut shapes = ArchConfig::table1_cells();
        shapes.push(ArchConfig::with_replication(TableKind::Patricia, 4, 2));
        shapes.push(ArchConfig::with_replication(TableKind::Cam, 2, 1).with_memory_ports(3));
        for config in shapes {
            let spec = ConfigSpec::from_config(&config)
                .unwrap_or_else(|| panic!("{} must be expressible", config.label()));
            assert_eq!(spec.to_config().unwrap(), config);
        }
        // Asymmetric replication has no wire spelling.
        let machine = MachineConfig::new(2).with_fu_count(taco_isa::FuKind::Matcher, 2);
        let odd = ArchConfig::new(machine, TableKind::Cam);
        assert_eq!(ConfigSpec::from_config(&odd), None);
    }

    #[test]
    fn a_unit_count_of_one_has_the_default_machines_wire_form() {
        let config = ArchConfig::three_bus_one_fu(TableKind::Cam).with_memory_ports(1);
        assert_eq!(config, ArchConfig::three_bus_one_fu(TableKind::Cam));
        let request = EvalRequest::new(config.clone());
        let spec = EvalRequest::from_request(&request).expect("a 3BUS/1FU machine has a wire form");
        let line = ApiRequest::Eval(spec.clone()).to_json();
        assert_eq!(ApiRequest::from_json(&line), Ok(ApiRequest::Eval(spec)));
        assert_eq!(line, ApiRequest::Eval(cam_request()).to_json());
    }

    /// A machine as its codec writes it.
    fn machine_json(config: &ArchConfig) -> String {
        let mut out = String::new();
        config.put(&mut out);
        out
    }

    /// A machine read through its codec.
    fn read_machine(text: &str) -> Result<ArchConfig, ApiError> {
        ArchConfig::get("config", "config", &Json::parse(text).expect("JSON"))
    }

    #[test]
    fn machines_keep_flat_bytes_for_default_systems() {
        let cam = ArchConfig::three_bus_one_fu(TableKind::Cam);
        let flat = "{\"table\":\"cam\",\"buses\":3,\"replication\":1,\"memory_ports\":1}";
        assert_eq!(machine_json(&cam), flat);
        assert_eq!(read_machine(flat), Ok(cam));
    }

    #[test]
    fn machine_range_checks_name_the_field() {
        let flat = "{\"table\":\"cam\",\"buses\":3,\"replication\":1,\"memory_ports\":1}";
        for (bad, needle) in [
            (flat.replace("\"buses\":3", "\"buses\":0"), "buses"),
            (flat.replace("\"replication\":1", "\"replication\":0"), "replication"),
            (flat.replace("\"memory_ports\":1", "\"memory_ports\":0"), "memory_ports"),
            (flat.replace("\"buses\":3", "\"buses\":256"), "\"buses\""),
        ] {
            let err = read_machine(&bad).expect_err(&bad);
            assert_eq!(err.code, ApiErrorCode::BadRequest, "{bad}");
            assert!(err.message.contains(needle), "{needle} missing from {err}");
        }
    }

    #[test]
    fn envelopes_split_exactly_what_they_wrap() {
        let body = ApiRequest::Status.members();
        for envelope in [
            Envelope::V1,
            Envelope::V2(None),
            Envelope::V2(Some(0)),
            Envelope::V2(Some(7)),
            Envelope::V2(Some(u64::MAX)),
        ] {
            assert_eq!(Envelope::split(&envelope.wrap(&body)), Some((envelope, body.as_str())));
        }
        // The table's tags are the published constants.
        assert!(Envelope::V1
            .wrap(&body)
            .starts_with(&format!("{{\"api_version\":\"{API_VERSION}\",")));
        let v2 = format!("{{\"api_version\":\"{API_VERSION_V2}\",\"id\":null,");
        assert!(Envelope::V2(None).wrap(&body).starts_with(&v2));
        // Any spelling of the head but the encoder's is the strict
        // parser's to judge, valid or not.
        for id in ["+5", "007", "05", "5.0", " 5", "-0", "\"5\"", "18446744073709551616", ""] {
            let line = format!("{{\"api_version\":\"v2\",\"id\":{id},{body}}}");
            assert_eq!(Envelope::split(&line), None, "{line}");
        }
        let canonical = Envelope::V2(Some(5)).wrap(&body);
        for line in [
            format!("{canonical} "),
            format!(" {canonical}"),
            canonical[..canonical.len() - 1].to_owned(),
            format!("{{\"id\":5,\"api_version\":\"v2\",{body}}}"),
            "{\"api_version\":\"v3\",\"kind\":\"status\"}".to_owned(),
        ] {
            assert_eq!(Envelope::split(&line), None, "{line}");
        }
    }

    #[test]
    fn v2_envelope_round_trips_and_requires_an_id() {
        let line = ApiRequest::Status.to_json_v2(7);
        assert!(line.starts_with("{\"api_version\":\"v2\",\"id\":7,"), "{line}");
        assert_eq!(ApiRequest::from_wire(&line), Ok((Envelope::V2(Some(7)), ApiRequest::Status)));
        assert_eq!(reread_request(&line).unwrap(), line);

        // A v1 line sniffs as id-less through the same entry point.
        let v1 = ApiRequest::Status.to_json();
        assert_eq!(ApiRequest::from_wire(&v1), Ok((Envelope::V1, ApiRequest::Status)));

        // v2 without an id or with a null one, and v1 with one, are all
        // structured errors.
        for bad in ["\"kind\":\"status\"", "\"id\":null,\"kind\":\"status\""] {
            let err = ApiRequest::from_wire(&format!("{{\"api_version\":\"v2\",{bad}}}"));
            let err = err.unwrap_err();
            assert_eq!(err.code, ApiErrorCode::BadRequest);
            assert!(err.message.contains("\"id\""), "{err}");
        }
        let err = ApiRequest::from_wire("{\"api_version\":\"v1\",\"id\":1,\"kind\":\"status\"}")
            .unwrap_err();
        assert_eq!(err.code, ApiErrorCode::BadRequest);
        assert!(err.message.contains("unknown field \"id\""), "{err}");

        // Unknown versions stay a version mismatch naming both dialects.
        let err =
            ApiRequest::from_wire("{\"api_version\":\"v3\",\"kind\":\"status\"}").unwrap_err();
        assert_eq!(err.code, ApiErrorCode::VersionMismatch);
        assert!(err.message.contains("v1") && err.message.contains("v2"), "{err}");
    }

    #[test]
    fn v2_error_lines_carry_a_null_id_when_unsalvageable() {
        let response = ApiResponse::Error(ApiError::bad_request("unparseable frame"));
        let line = response.to_json_v2(None);
        assert!(line.starts_with("{\"api_version\":\"v2\",\"id\":null,"), "{line}");
        let wire = WireResponse::from_json(&line).unwrap();
        assert_eq!(wire.envelope, Envelope::V2(None));
        assert_eq!(wire.response, response);

        assert_eq!(salvage_request_id("{\"id\":31,\"kind\":\"nope\""), None);
        assert_eq!(salvage_request_id("{\"id\":31,\"bogus\":{}}"), Some(31));
        assert_eq!(salvage_request_id("{\"id\":\"nope\"}"), None);
        assert_eq!(salvage_request_id("garbage"), None);
    }

    #[test]
    fn error_codes_enumerate_exhaustively() {
        for code in ApiErrorCode::ALL {
            assert_eq!(ApiErrorCode::from_str_opt(code.as_str()), Some(code));
        }
        assert!(ApiErrorCode::Busy.is_retryable());
        let transient: Vec<_> =
            ApiErrorCode::ALL.iter().copied().filter(|c| c.is_retryable()).collect();
        assert_eq!(transient, [ApiErrorCode::Busy]);
    }
}
