//! The versioned JSON wire API: one schema shared by the daemon, the CLI
//! flags and the builder pipeline.
//!
//! Everything that crosses a process boundary — a `taco-served` request, a
//! cache snapshot entry, a client response — is one line of strict JSON
//! with an explicit `"api_version"` field.  Two schema versions coexist:
//!
//! * [`API_VERSION`] (`"v1"`) is the original one-shot dialect — one
//!   request per connection, responses in submission order, no request
//!   identity.  [`ApiRequest::from_json`]/[`ApiResponse::from_json`] speak
//!   it and reject everything else, which is what keeps the golden daemon
//!   fixtures byte-stable.
//! * [`API_VERSION_V2`] (`"v2"`) is the multiplexed session dialect: every
//!   request carries a client-chosen `"id"` echoed on all of its response
//!   lines, so many requests can be in flight on one persistent connection
//!   and their (possibly interleaved) streams can be told apart.  The
//!   request and response kinds are exactly v1's — v2 is v1 plus `"id"`
//!   plus a persistent connection.  [`WireRequest`]/[`WireResponse`]
//!   sniff the version and parse either dialect.
//!
//! The
//! same types also back the in-process entry points: [`EvalSpec`] is the
//! validated construction path for [`EvalRequest`], and the name-based
//! parsers ([`parse_table_kind`], [`parse_workload_name`],
//! [`parse_fault_plan_name`], [`parse_machine_spec`]) are the single
//! source of truth the `dse`/`trace` binaries and the wire layer share, so
//! a workload name means the same thing on a command line and on a socket.
//!
//! Machine configurations cross the wire as a [`MachineSpec`]: the
//! per-core [`ConfigSpec`] plus the multi-core [`SystemConfig`] built
//! from it.  The codec is form-sniffed — a default single-core system
//! keeps the original flat `{"table":...,"buses":...}` spelling (so every
//! pre-multicore request line and golden fixture keeps its bytes), and a
//! non-default system nests the core under a `"core"` member alongside
//! `"cores"`, `"cache"`, `"interconnect"` and `"coherence"`.
//!
//! Parsing is *strict*: unknown fields are rejected (a typo'd option must
//! not be silently ignored), version mismatches are reported as
//! [`ApiErrorCode::VersionMismatch`], and every failure is a structured
//! [`ApiError`] rather than a panic.  Serialisation follows the workspace's
//! byte-stability discipline: fixed key order, integers verbatim, floats
//! via the shortest-round-trip `Display` (exact under re-parse), and
//! non-finite floats as `null` (JSON has no `Infinity` literal; the only
//! producers are infeasible cells, where `null` mirrors the paper's "NA").

pub mod json;
mod report;

pub(crate) use report::report_from_value;
pub use report::{report_from_json, report_to_json, table1_cell_json};

use std::sync::Arc;

use taco_isa::{
    CacheConfig, CoherenceProtocol, InterconnectConfig, SystemConfig, Topology, MAX_CORES,
};
use taco_router::traffic::TrafficGen;
use taco_routing::TableKind;
use taco_workload::{FaultPlan, FlowTrace, Workload, MAX_FLOW_LEN, MAX_OFFERED};

use crate::arch::ArchConfig;
use crate::evaluate::EvalReport;
use crate::explorer::{Constraints, SweepSpec};
use crate::rate::LineRate;
use crate::request::EvalRequest;
use json::Json;

/// The one-shot wire schema version (one request per connection).
pub const API_VERSION: &str = "v1";

/// The multiplexed session schema version (persistent connections, every
/// request id-tagged).
pub const API_VERSION_V2: &str = "v2";

/// Machine-readable failure classes, the `"code"` field of an error
/// response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApiErrorCode {
    /// The request was malformed: bad JSON, a missing or unknown field, an
    /// out-of-range value.
    BadRequest,
    /// The request named a schema version this server does not speak.
    VersionMismatch,
    /// The daemon's job queue is at `max_pending` capacity — the
    /// 429-equivalent; retry after drain.
    Busy,
    /// The daemon is draining for shutdown and admits no new work.
    ShuttingDown,
    /// The server failed internally (snapshot IO, a poisoned lock, ...).
    Internal,
}

impl ApiErrorCode {
    /// Every machine code, in wire-spelling order — the single exhaustive
    /// list the server, `taco-cli` and the round-trip tests share, so a
    /// new code cannot exist without a wire spelling and a parse.
    pub const ALL: [ApiErrorCode; 5] = [
        ApiErrorCode::BadRequest,
        ApiErrorCode::VersionMismatch,
        ApiErrorCode::Busy,
        ApiErrorCode::ShuttingDown,
        ApiErrorCode::Internal,
    ];

    /// `true` for the codes a client may retry verbatim after a delay (the
    /// daemon was healthy but temporarily unable to admit the request).
    pub fn is_retryable(self) -> bool {
        matches!(self, ApiErrorCode::Busy)
    }

    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ApiErrorCode::BadRequest => "bad_request",
            ApiErrorCode::VersionMismatch => "version_mismatch",
            ApiErrorCode::Busy => "busy",
            ApiErrorCode::ShuttingDown => "shutting_down",
            ApiErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire spelling back to a code.
    pub fn from_str_opt(s: &str) -> Option<ApiErrorCode> {
        Some(match s {
            "bad_request" => ApiErrorCode::BadRequest,
            "version_mismatch" => ApiErrorCode::VersionMismatch,
            "busy" => ApiErrorCode::Busy,
            "shutting_down" => ApiErrorCode::ShuttingDown,
            "internal" => ApiErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A structured wire-layer failure: a machine-readable code plus a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// The failure class.
    pub code: ApiErrorCode,
    /// What went wrong, for humans.
    pub message: String,
}

impl ApiError {
    /// A [`ApiErrorCode::BadRequest`] error.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ApiError { code: ApiErrorCode::BadRequest, message: message.into() }
    }

    /// A [`ApiErrorCode::VersionMismatch`] error naming the found version
    /// and the supported ones.
    pub fn version_mismatch(found: &str) -> Self {
        ApiError {
            code: ApiErrorCode::VersionMismatch,
            message: format!(
                "api_version {found:?} is not supported; this server speaks {API_VERSION:?} \
                 and {API_VERSION_V2:?}"
            ),
        }
    }

    /// A [`ApiErrorCode::Busy`] rejection.
    pub fn busy(message: impl Into<String>) -> Self {
        ApiError { code: ApiErrorCode::Busy, message: message.into() }
    }

    /// A [`ApiErrorCode::ShuttingDown`] rejection.
    pub fn shutting_down() -> Self {
        ApiError {
            code: ApiErrorCode::ShuttingDown,
            message: "server is draining for shutdown".into(),
        }
    }

    /// An [`ApiErrorCode::Internal`] error.
    pub fn internal(message: impl Into<String>) -> Self {
        ApiError { code: ApiErrorCode::Internal, message: message.into() }
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for ApiError {}

/// Strict field access over one JSON object: every member must be consumed
/// by the time [`Fields::finish`] runs, which is what rejects unknown
/// fields with a structured error instead of ignoring them.
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

    pub(crate) fn req_str(&mut self, name: &str) -> Result<&'a str, ApiError> {
        let ctx = self.ctx;
        self.req(name)?
            .as_str()
            .ok_or_else(|| ApiError::bad_request(format!("{ctx}: {name:?} must be a string")))
    }

    pub(crate) fn req_u64(&mut self, name: &str) -> Result<u64, ApiError> {
        let ctx = self.ctx;
        self.req(name)?.as_u64().ok_or_else(|| {
            ApiError::bad_request(format!("{ctx}: {name:?} must be an unsigned integer"))
        })
    }

    pub(crate) fn req_u32(&mut self, name: &str) -> Result<u32, ApiError> {
        let ctx = self.ctx;
        let v = self.req_u64(name)?;
        u32::try_from(v)
            .map_err(|_| ApiError::bad_request(format!("{ctx}: {name:?} must fit in 32 bits")))
    }

    pub(crate) fn req_u16(&mut self, name: &str) -> Result<u16, ApiError> {
        let ctx = self.ctx;
        let v = self.req_u64(name)?;
        u16::try_from(v)
            .map_err(|_| ApiError::bad_request(format!("{ctx}: {name:?} must fit in 16 bits")))
    }

    pub(crate) fn req_u8(&mut self, name: &str) -> Result<u8, ApiError> {
        let ctx = self.ctx;
        let v = self.req_u64(name)?;
        u8::try_from(v)
            .map_err(|_| ApiError::bad_request(format!("{ctx}: {name:?} must fit in 8 bits")))
    }

    pub(crate) fn req_usize(&mut self, name: &str) -> Result<usize, ApiError> {
        let ctx = self.ctx;
        let v = self.req_u64(name)?;
        usize::try_from(v)
            .map_err(|_| ApiError::bad_request(format!("{ctx}: {name:?} is out of range")))
    }

    pub(crate) fn req_bool(&mut self, name: &str) -> Result<bool, ApiError> {
        let ctx = self.ctx;
        self.req(name)?
            .as_bool()
            .ok_or_else(|| ApiError::bad_request(format!("{ctx}: {name:?} must be a boolean")))
    }

    /// A required finite float.
    pub(crate) fn req_finite_f64(&mut self, name: &str) -> Result<f64, ApiError> {
        let ctx = self.ctx;
        self.req(name)?.as_f64().ok_or_else(|| {
            ApiError::bad_request(format!("{ctx}: {name:?} must be a finite number"))
        })
    }

    /// A required float under the non-finite convention: `null` decodes as
    /// `f64::INFINITY` (the wire spelling of an infeasible requirement).
    pub(crate) fn req_f64_or_infinity(&mut self, name: &str) -> Result<f64, ApiError> {
        let ctx = self.ctx;
        let v = self.req(name)?;
        if v.is_null() {
            return Ok(f64::INFINITY);
        }
        v.as_f64().ok_or_else(|| {
            ApiError::bad_request(format!("{ctx}: {name:?} must be a number or null"))
        })
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

/// Encodes a float for the wire: shortest-round-trip `Display` for finite
/// values, `null` otherwise.
pub(crate) fn f64_json(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

// ---------------------------------------------------------------------------
// Name-based parsers: the single validation path shared by CLI and wire.
// ---------------------------------------------------------------------------

/// Parses a routing-table organisation by its display name (`sequential`,
/// `balanced-tree`, `cam`, `trie`, `patricia`; aliases `seq`, `tree`,
/// `pat`).  The error message lists the accepted names — shared verbatim
/// by the `trace` binary and the wire schema (both v1 and v2 dialects
/// funnel through here, so an unknown kind is a structured `bad_request`
/// on every path).
pub fn parse_table_kind(name: &str) -> Result<TableKind, String> {
    match name {
        "sequential" | "seq" => Ok(TableKind::Sequential),
        "balanced-tree" | "tree" => Ok(TableKind::BalancedTree),
        "cam" => Ok(TableKind::Cam),
        "trie" => Ok(TableKind::Trie),
        "patricia" | "pat" => Ok(TableKind::Patricia),
        other => Err(format!(
            "unknown table kind {other:?}; expected sequential, balanced-tree, cam, trie or \
             patricia (aliases: seq, tree, pat)"
        )),
    }
}

/// Every accepted machine-shape spelling: the canonical
/// `<buses>x<replication>` shape first, then its documented aliases (the
/// paper's Table 1 column labels).  [`parse_machine_spec`] matches against
/// this table **and** generates its error message from it, so the list of
/// spellings an error names cannot drift from what the parser accepts.
const MACHINE_SPELLINGS: &[(&[&str], u8, u8)] = &[
    (&["1x1", "1BUS/1FU"], 1, 1),
    (&["3x1", "3BUS/1FU"], 3, 1),
    (&["3x3", "3bus/3CNT,3CMP,3M"], 3, 3),
];

/// Parses a machine shape (`1x1`, `3x1`, `3x3`, or the Table 1 label
/// aliases `1BUS/1FU`, `3BUS/1FU`, `3bus/3CNT,3CMP,3M`) into a
/// single-core [`MachineSpec`] over `kind` — the one shape parser the
/// wire schema, `taco-cli` and the bench binaries share.  Compose with
/// [`MachineSpec::with_system`] to scale the parsed shape to a multi-core
/// system.  The error message lists every accepted spelling, generated
/// from the same table the parser matches against.
pub fn parse_machine_spec(kind: TableKind, shape: &str) -> Result<MachineSpec, String> {
    for &(names, buses, replication) in MACHINE_SPELLINGS {
        if names.contains(&shape) {
            return Ok(MachineSpec::new(ConfigSpec::new(kind, buses, replication)));
        }
    }
    let accepted: Vec<&str> =
        MACHINE_SPELLINGS.iter().flat_map(|&(names, _, _)| names.iter().copied()).collect();
    Err(format!("unknown machine config {shape:?}; expected one of: {}", accepted.join(", ")))
}

/// Looks a builtin workload up by name; the error lists the valid names
/// (the single source the `dse --scenario` flag and the wire share).
pub fn parse_workload_name(name: &str) -> Result<Workload, String> {
    Workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::builtin().iter().map(|w| w.name()).collect();
        format!("unknown scenario {name:?}; expected one of: {}", names.join(", "))
    })
}

/// Looks a builtin fault plan up by name; the error lists the valid names
/// (shared by `dse --faults` and the wire).
pub fn parse_fault_plan_name(name: &str) -> Result<FaultPlan, String> {
    FaultPlan::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = FaultPlan::builtin().iter().map(|(n, _)| *n).collect();
        format!("unknown fault plan {name:?}; expected one of: {}", names.join(", "))
    })
}

/// Validates a line rate the way [`LineRate::new`] does, as a `Result`
/// instead of a panic — the construction path wire requests and CLI flags
/// share.
pub fn validated_rate(bits_per_second: f64, packet_bytes: u32) -> Result<LineRate, String> {
    if !(bits_per_second.is_normal() && bits_per_second > 0.0) {
        return Err(format!("rate must be a positive finite number, got {bits_per_second}"));
    }
    if packet_bytes == 0 {
        return Err("packet size must be positive".to_owned());
    }
    Ok(LineRate { bits_per_second, packet_bytes })
}

// ---------------------------------------------------------------------------
// Leaf codecs: config, rate, workload, fault plan.
// ---------------------------------------------------------------------------

/// The wire shape of an architecture instance: routing-table organisation,
/// bus count, datapath replication and memory ports.
///
/// This spans every configuration the in-tree generators produce
/// ([`ArchConfig::with_replication`] composed with
/// [`ArchConfig::with_memory_ports`]); a hand-built [`MachineConfig`] with
/// *asymmetric* replication has no wire spelling and
/// [`ConfigSpec::from_config`] returns `None` for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigSpec {
    /// Routing-table organisation.
    pub table: TableKind,
    /// Data buses (≥ 1).
    pub buses: u8,
    /// Instances of each replicable datapath unit (Counter, Comparator,
    /// Matcher together; ≥ 1).
    pub replication: u8,
    /// Data-memory ports (replicated MMU; ≥ 1).
    pub memory_ports: u8,
}

impl ConfigSpec {
    /// A spec with one memory port (the default everywhere but the
    /// memory-port ablation).
    pub fn new(table: TableKind, buses: u8, replication: u8) -> Self {
        ConfigSpec { table, buses, replication, memory_ports: 1 }
    }

    /// Builds the architecture instance, validating ranges (a zero bus or
    /// unit count is a structured error here, where the panicking
    /// constructors would abort a server).
    pub fn to_config(&self) -> Result<ArchConfig, ApiError> {
        if self.buses == 0 || self.replication == 0 || self.memory_ports == 0 {
            return Err(ApiError::bad_request(
                "config: buses, replication and memory_ports must all be >= 1",
            ));
        }
        let mut config = ArchConfig::with_replication(self.table, self.buses, self.replication);
        if self.memory_ports > 1 {
            config = config.with_memory_ports(self.memory_ports);
        }
        Ok(config)
    }

    /// The wire spelling of `config`, or `None` when the machine is not
    /// expressible (asymmetric replication).
    pub fn from_config(config: &ArchConfig) -> Option<ConfigSpec> {
        let machine = &config.machine;
        let replication = machine.fu_count(taco_isa::FuKind::Matcher);
        let spec = ConfigSpec {
            table: config.table,
            buses: machine.buses(),
            replication,
            memory_ports: machine.fu_count(taco_isa::FuKind::Mmu),
        };
        // Round-trip check: only machines the spec regenerates exactly are
        // expressible (this is what catches asymmetric replication).
        match spec.to_config() {
            Ok(rebuilt) if rebuilt == *config => Some(spec),
            _ => None,
        }
    }

    /// One-line JSON body (fixed key order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"table\":\"{}\",\"buses\":{},\"replication\":{},\"memory_ports\":{}}}",
            self.table, self.buses, self.replication, self.memory_ports
        )
    }

    pub(crate) fn from_value(value: &Json) -> Result<ConfigSpec, ApiError> {
        let mut f = Fields::new("config", value)?;
        let table = parse_table_kind(f.req_str("table")?).map_err(ApiError::bad_request)?;
        let spec = ConfigSpec {
            table,
            buses: f.req_u8("buses")?,
            replication: f.req_u8("replication")?,
            memory_ports: f.get_non_null("memory_ports").map_or(Ok(1), |v| {
                v.as_u64().and_then(|n| u8::try_from(n).ok()).ok_or_else(|| {
                    ApiError::bad_request("config: \"memory_ports\" must fit in 8 bits")
                })
            })?,
        };
        f.finish()?;
        spec.to_config()?; // validate ranges eagerly
        Ok(spec)
    }
}

/// The structured wire shape of a whole machine: one per-core
/// [`ConfigSpec`] plus the multi-core [`SystemConfig`] built from it.
///
/// The codec is **form-sniffed** for compatibility.  A default
/// (single-core) system serialises as the flat [`ConfigSpec`] form —
/// byte-identical to the pre-multicore schema, which is what keeps every
/// v1/v2 golden fixture passing unmodified.  A non-default system nests
/// the per-core spec under a `"core"` member:
///
/// ```json
/// {"core":{"table":"cam","buses":3,"replication":1,"memory_ports":1},
///  "cores":4,"cache":{"lines":64,"line_words":4},
///  "interconnect":{"topology":"mesh","latency":2},"coherence":"mesi"}
/// ```
///
/// [`MachineSpec::from_value`] sniffs on the presence of `"core"` and
/// accepts either form; in the nested form `"cores"`, `"cache"`,
/// `"interconnect"` and `"coherence"` may each be omitted and default to
/// the single-core system's values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineSpec {
    /// The per-core machine: table organisation, buses, replication and
    /// memory ports.
    pub core: ConfigSpec,
    /// The system built from the cores: count, private table caches,
    /// interconnect and coherence protocol.
    pub system: SystemConfig,
}

impl From<ConfigSpec> for MachineSpec {
    fn from(core: ConfigSpec) -> Self {
        MachineSpec::new(core)
    }
}

impl MachineSpec {
    /// A single-core (default-system) spec over `core`.
    pub fn new(core: ConfigSpec) -> Self {
        MachineSpec { core, system: SystemConfig::default() }
    }

    /// Returns a copy with the given multi-core system.
    pub fn with_system(mut self, system: SystemConfig) -> Self {
        self.system = system;
        self
    }

    /// Builds the architecture instance, validating every range (core
    /// counts, cache geometry and interconnect latency are structured
    /// errors here, where the panicking constructors would abort a
    /// server).
    pub fn to_config(&self) -> Result<ArchConfig, ApiError> {
        if self.system.cores == 0 || self.system.cores > MAX_CORES {
            return Err(ApiError::bad_request(format!(
                "config: \"cores\" must be 1..={MAX_CORES}, got {}",
                self.system.cores
            )));
        }
        if self.system.cache.lines == 0 || self.system.cache.line_words == 0 {
            return Err(ApiError::bad_request(
                "config: cache \"lines\" and \"line_words\" must both be >= 1",
            ));
        }
        if self.system.interconnect.latency == 0 {
            return Err(ApiError::bad_request("config: interconnect \"latency\" must be >= 1"));
        }
        Ok(self.core.to_config()?.with_system(self.system))
    }

    /// The wire spelling of `config`, or `None` when the per-core machine
    /// is not expressible (asymmetric replication).
    pub fn from_config(config: &ArchConfig) -> Option<MachineSpec> {
        let mut single = config.clone();
        single.system = SystemConfig::single_core();
        Some(MachineSpec { core: ConfigSpec::from_config(&single)?, system: config.system })
    }

    /// One-line JSON body: the flat [`ConfigSpec`] form for a default
    /// system (pre-multicore bytes preserved), the nested `"core"`-keyed
    /// form otherwise (fixed key order, every member explicit).
    pub fn to_json(&self) -> String {
        if self.system.is_default() {
            return self.core.to_json();
        }
        format!(
            "{{\"core\":{},\"cores\":{},\"cache\":{{\"lines\":{},\"line_words\":{}}},\
             \"interconnect\":{{\"topology\":\"{}\",\"latency\":{}}},\"coherence\":\"{}\"}}",
            self.core.to_json(),
            self.system.cores,
            self.system.cache.lines,
            self.system.cache.line_words,
            self.system.interconnect.topology,
            self.system.interconnect.latency,
            self.system.protocol,
        )
    }

    /// Parses either wire form back into a spec: the flat [`ConfigSpec`]
    /// object, or the nested `"core"`-keyed multicore form (the inverse of
    /// [`MachineSpec::to_json`]).  Unknown fields and out-of-range values
    /// are structured `bad_request` errors naming the field.
    pub fn from_json(json: &str) -> Result<MachineSpec, ApiError> {
        let value = Json::parse(json)
            .map_err(|e| ApiError::bad_request(format!("config: invalid JSON: {e}")))?;
        MachineSpec::from_value(&value)
    }

    pub(crate) fn from_value(value: &Json) -> Result<MachineSpec, ApiError> {
        let nested = value.as_object().is_some_and(|m| m.iter().any(|(k, _)| k == "core"));
        if !nested {
            return Ok(MachineSpec::new(ConfigSpec::from_value(value)?));
        }
        let mut f = Fields::new("config", value)?;
        let core = ConfigSpec::from_value(f.req("core")?)?;
        let mut system = SystemConfig::single_core();
        if let Some(v) = f.get_non_null("cores") {
            system.cores = v
                .as_u64()
                .and_then(|n| u8::try_from(n).ok())
                .ok_or_else(|| ApiError::bad_request("config: \"cores\" must fit in 8 bits"))?;
        }
        if let Some(v) = f.get_non_null("cache") {
            let mut c = Fields::new("config cache", v)?;
            system.cache =
                CacheConfig { lines: c.req_u16("lines")?, line_words: c.req_u8("line_words")? };
            c.finish()?;
        }
        if let Some(v) = f.get_non_null("interconnect") {
            let mut i = Fields::new("config interconnect", v)?;
            let name = i.req_str("topology")?;
            system.interconnect = InterconnectConfig {
                topology: Topology::by_name(name).ok_or_else(|| unknown_topology(name))?,
                latency: i.req_u8("latency")?,
            };
            i.finish()?;
        }
        if let Some(v) = f.get_non_null("coherence") {
            let name = v
                .as_str()
                .ok_or_else(|| ApiError::bad_request("config: \"coherence\" must be a string"))?;
            system.protocol =
                CoherenceProtocol::by_name(name).ok_or_else(|| unknown_protocol(name))?;
        }
        f.finish()?;
        let spec = MachineSpec { core, system };
        spec.to_config()?; // validate ranges eagerly
        Ok(spec)
    }
}

/// The structured error for an unknown interconnect topology, listing the
/// accepted names (generated from [`Topology::ALL`], so it cannot drift).
fn unknown_topology(name: &str) -> ApiError {
    let names: Vec<&str> = Topology::ALL.iter().map(|t| t.name()).collect();
    ApiError::bad_request(format!(
        "config: unknown topology {name:?}; expected one of: {} (alias: bus)",
        names.join(", ")
    ))
}

/// The structured error for an unknown coherence protocol, listing the
/// accepted names (generated from [`CoherenceProtocol::ALL`]).
fn unknown_protocol(name: &str) -> ApiError {
    let names: Vec<&str> = CoherenceProtocol::ALL.iter().map(|p| p.name()).collect();
    ApiError::bad_request(format!(
        "config: unknown coherence protocol {name:?}; expected one of: {}",
        names.join(", ")
    ))
}

/// The spec features this build supports — the `"features"` member every
/// `status_result` carries: the core-count ceiling and the known
/// interconnect topologies and coherence protocols, generated from the
/// same constants the [`MachineSpec`] parser accepts.
pub fn supported_features_json() -> String {
    let quoted =
        |xs: Vec<&str>| xs.iter().map(|n| format!("\"{n}\"")).collect::<Vec<_>>().join(",");
    format!(
        "{{\"max_cores\":{MAX_CORES},\"topologies\":[{}],\"protocols\":[{}]}}",
        quoted(Topology::ALL.iter().map(|t| t.name()).collect()),
        quoted(CoherenceProtocol::ALL.iter().map(|p| p.name()).collect()),
    )
}

pub(crate) fn rate_to_json(rate: &LineRate) -> String {
    format!(
        "{{\"bits_per_second\":{},\"packet_bytes\":{}}}",
        f64_json(rate.bits_per_second),
        rate.packet_bytes
    )
}

pub(crate) fn rate_from_value(value: &Json) -> Result<LineRate, ApiError> {
    let mut f = Fields::new("rate", value)?;
    let bits = f.req_finite_f64("bits_per_second")?;
    let packet_bytes = f.req_u32("packet_bytes")?;
    f.finish()?;
    validated_rate(bits, packet_bytes).map_err(|e| ApiError::bad_request(format!("rate: {e}")))
}

pub(crate) fn workload_to_json(w: &Workload) -> String {
    match *w {
        Workload::SteadyForward { seed, ticks, packets_per_tick, entries } => format!(
            "{{\"name\":\"steady-forward\",\"seed\":{seed},\"ticks\":{ticks},\
             \"packets_per_tick\":{packets_per_tick},\"entries\":{entries}}}"
        ),
        Workload::BurstOverload {
            seed,
            ticks,
            mean_per_tick_milli,
            burst_every,
            burst_len,
            burst_multiplier,
            entries,
        } => format!(
            "{{\"name\":\"burst-overload\",\"seed\":{seed},\"ticks\":{ticks},\
             \"mean_per_tick_milli\":{mean_per_tick_milli},\"burst_every\":{burst_every},\
             \"burst_len\":{burst_len},\"burst_multiplier\":{burst_multiplier},\
             \"entries\":{entries}}}"
        ),
        Workload::RipngConvergence {
            seed,
            ticks,
            neighbours,
            routes_per_neighbour,
            packets_per_tick,
        } => {
            format!(
                "{{\"name\":\"ripng-convergence\",\"seed\":{seed},\"ticks\":{ticks},\
                 \"neighbours\":{neighbours},\"routes_per_neighbour\":{routes_per_neighbour},\
                 \"packets_per_tick\":{packets_per_tick}}}"
            )
        }
        Workload::TableChurn {
            seed,
            ticks,
            packets_per_tick,
            entries,
            churn_every,
            churn_size,
        } => {
            format!(
                "{{\"name\":\"table-churn\",\"seed\":{seed},\"ticks\":{ticks},\
                 \"packets_per_tick\":{packets_per_tick},\"entries\":{entries},\
                 \"churn_every\":{churn_every},\"churn_size\":{churn_size}}}"
            )
        }
        Workload::MixedPlane {
            seed,
            ticks,
            neighbours,
            routes_per_neighbour,
            packets_per_tick,
            burst_multiplier,
            phase_len,
        } => format!(
            "{{\"name\":\"mixed-plane\",\"seed\":{seed},\"ticks\":{ticks},\
             \"neighbours\":{neighbours},\"routes_per_neighbour\":{routes_per_neighbour},\
             \"packets_per_tick\":{packets_per_tick},\"burst_multiplier\":{burst_multiplier},\
             \"phase_len\":{phase_len}}}"
        ),
        Workload::TraceReplay { seed, ticks, flows, entries } => format!(
            "{{\"name\":\"trace-replay\",\"seed\":{seed},\"ticks\":{ticks},\
             \"flows\":{flows},\"entries\":{entries}}}"
        ),
    }
}

pub(crate) fn workload_from_value(value: &Json) -> Result<Workload, ApiError> {
    let mut f = Fields::new("workload", value)?;
    let name = f.req_str("name")?;
    let workload = match name {
        "steady-forward" => Workload::SteadyForward {
            seed: f.req_u64("seed")?,
            ticks: f.req_u32("ticks")?,
            packets_per_tick: f.req_u32("packets_per_tick")?,
            entries: f.req_u32("entries")?,
        },
        "burst-overload" => Workload::BurstOverload {
            seed: f.req_u64("seed")?,
            ticks: f.req_u32("ticks")?,
            mean_per_tick_milli: f.req_u64("mean_per_tick_milli")?,
            burst_every: f.req_u32("burst_every")?,
            burst_len: f.req_u32("burst_len")?,
            burst_multiplier: f.req_u32("burst_multiplier")?,
            entries: f.req_u32("entries")?,
        },
        "ripng-convergence" => Workload::RipngConvergence {
            seed: f.req_u64("seed")?,
            ticks: f.req_u32("ticks")?,
            neighbours: f.req_u32("neighbours")?,
            routes_per_neighbour: f.req_u32("routes_per_neighbour")?,
            packets_per_tick: f.req_u32("packets_per_tick")?,
        },
        "table-churn" => Workload::TableChurn {
            seed: f.req_u64("seed")?,
            ticks: f.req_u32("ticks")?,
            packets_per_tick: f.req_u32("packets_per_tick")?,
            entries: f.req_u32("entries")?,
            churn_every: f.req_u32("churn_every")?,
            churn_size: f.req_u32("churn_size")?,
        },
        "mixed-plane" => Workload::MixedPlane {
            seed: f.req_u64("seed")?,
            ticks: f.req_u32("ticks")?,
            neighbours: f.req_u32("neighbours")?,
            routes_per_neighbour: f.req_u32("routes_per_neighbour")?,
            packets_per_tick: f.req_u32("packets_per_tick")?,
            burst_multiplier: f.req_u32("burst_multiplier")?,
            phase_len: f.req_u32("phase_len")?,
        },
        "trace-replay" => Workload::TraceReplay {
            seed: f.req_u64("seed")?,
            ticks: f.req_u32("ticks")?,
            flows: f.req_u32("flows")?,
            entries: f.req_u32("entries")?,
        },
        other => {
            return Err(ApiError::bad_request(
                parse_workload_name(other).expect_err("name did not match a builtin"),
            ))
        }
    };
    f.finish()?;
    check_workload("workload", &workload)?;
    Ok(workload)
}

pub(crate) fn fault_plan_to_json(p: &FaultPlan) -> String {
    format!(
        "{{\"seed\":{},\"malformed_per_tick_milli\":{},\"hop_limit_zero_per_tick_milli\":{},\
         \"corrupt_every\":{},\"repair_ticks\":{},\"repair_retries\":{},\"flap_every\":{},\
         \"flap_down_ticks\":{},\"stall_every_cycles\":{},\"stall_cycles\":{}}}",
        p.seed,
        p.malformed_per_tick_milli,
        p.hop_limit_zero_per_tick_milli,
        p.corrupt_every,
        p.repair_ticks,
        p.repair_retries,
        p.flap_every,
        p.flap_down_ticks,
        p.stall_every_cycles,
        p.stall_cycles,
    )
}

pub(crate) fn fault_plan_from_value(value: &Json) -> Result<FaultPlan, ApiError> {
    let mut f = Fields::new("faults", value)?;
    let plan = FaultPlan {
        seed: f.req_u64("seed")?,
        malformed_per_tick_milli: f.req_u64("malformed_per_tick_milli")?,
        hop_limit_zero_per_tick_milli: f.req_u64("hop_limit_zero_per_tick_milli")?,
        corrupt_every: f.req_u32("corrupt_every")?,
        repair_ticks: f.req_u32("repair_ticks")?,
        repair_retries: f.req_u32("repair_retries")?,
        flap_every: f.req_u32("flap_every")?,
        flap_down_ticks: f.req_u32("flap_down_ticks")?,
        stall_every_cycles: f.req_u32("stall_every_cycles")?,
        stall_cycles: f.req_u32("stall_cycles")?,
    };
    f.finish()?;
    Ok(plan)
}

/// Lowercase hex of `bytes` — the wire encoding of an inline flow trace
/// (hex rather than base64: std-only, trivially greppable, and the traces
/// small enough to ship inline are small enough to double in size).
pub(crate) fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(char::from_digit(u32::from(b >> 4), 16).expect("nibble"));
        s.push(char::from_digit(u32::from(b & 0xf), 16).expect("nibble"));
    }
    s
}

/// Decodes [`hex_encode`] output (either nibble case accepted).
pub(crate) fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if s.len() % 2 != 0 {
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

/// A flow trace in wire form: the full binary body shipped inline
/// (hex-encoded).  The daemon reads no file a client names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceRef {
    /// The [`FlowTrace::to_bytes`] body, hex-encoded.
    Inline(String),
}

impl TraceRef {
    /// The inline wire form of `trace`.
    pub fn inline(trace: &FlowTrace) -> TraceRef {
        TraceRef::Inline(hex_encode(&trace.to_bytes()))
    }

    /// Decodes the referenced trace; every failure (bad hex, a corrupt or
    /// version-skewed body) is a structured bad request.
    pub fn resolve(&self) -> Result<FlowTrace, ApiError> {
        let TraceRef::Inline(hex) = self;
        let bytes = hex_decode(hex).map_err(|e| ApiError::bad_request(format!("trace: {e}")))?;
        let trace = FlowTrace::from_bytes(&bytes)
            .map_err(|e| ApiError::bad_request(format!("trace: {e}")))?;
        // The header's ticks and entries size the replay the records ride on.
        check_workload("trace header", &trace.descriptor())?;
        Ok(trace)
    }

    fn to_json(&self) -> String {
        // Hex is [0-9a-f] only: no JSON escaping needed.
        let TraceRef::Inline(hex) = self;
        format!("{{\"inline\":\"{hex}\"}}")
    }

    fn from_value(value: &Json) -> Result<TraceRef, ApiError> {
        let mut f = Fields::new("trace", value)?;
        let inline = f.get("inline");
        // Unknown members first: `{"path":…}` dies naming the field.
        f.finish()?;
        inline
            .and_then(Json::as_str)
            .map(|hex| TraceRef::Inline(hex.to_owned()))
            .ok_or_else(|| ApiError::bad_request("trace: \"inline\" must be a hex string"))
    }
}

// ---------------------------------------------------------------------------
// EvalSpec: the validated construction path for one evaluation.
// ---------------------------------------------------------------------------

/// Refuses a table size no evaluation can use: zero, or more entries than
/// data memory has words (every organisation spends at least a word or a
/// CAM row per entry).  Checked where a spec is parsed, so an absurd size
/// costs a `bad_request`, not minutes of route generation on a runner.
/// `members` is the quoted wire member (or product of members) that
/// carries the size.
fn check_entries(ctx: &str, members: &str, entries: u64) -> Result<(), ApiError> {
    const MAX: u64 = taco_sim::DEFAULT_MEMORY_WORDS as u64;
    if (1..=MAX).contains(&entries) {
        return Ok(());
    }
    Err(ApiError::bad_request(format!("{ctx}: {members} must be in 1..={MAX}, got {entries}")))
}

/// Refuses a workload descriptor that sizes more work than one request may
/// occupy a runner with: a table outside [`check_entries`]' range, or more
/// than [`MAX_OFFERED`] ticks or offered datagrams — `ticks ×` the peak
/// per-tick arrivals, or `flows ×` the longest flow the horizon admits for
/// a trace descriptor.  Checked at the wire only (a parsed `workload`
/// member, a resolved inline trace's header — `ctx` says which): in-process
/// callers, such as the `churn` bin at 100k prefixes, size their own runs.
fn check_workload(ctx: &str, workload: &Workload) -> Result<(), ApiError> {
    let u = u64::from;
    let ticks = u(workload.ticks());
    // (members that size the table, the size; members that size the
    // offered budget, the most datagrams they can offer)
    let (table_members, table, budget_members, offered) = match *workload {
        Workload::SteadyForward { packets_per_tick, entries, .. }
        | Workload::TableChurn { packets_per_tick, entries, .. } => (
            "\"entries\"",
            u(entries),
            "\"ticks\" × \"packets_per_tick\"",
            ticks * u(packets_per_tick),
        ),
        Workload::BurstOverload { mean_per_tick_milli, burst_multiplier, entries, .. } => (
            "\"entries\"",
            u(entries),
            "\"ticks\" × \"mean_per_tick_milli\" × \"burst_multiplier\"",
            (mean_per_tick_milli / 1000 + TrafficGen::MAX_ARRIVAL_JITTER)
                .saturating_mul(u(burst_multiplier.max(1)))
                .saturating_mul(ticks),
        ),
        Workload::RipngConvergence {
            neighbours, routes_per_neighbour, packets_per_tick, ..
        } => (
            "\"neighbours\" × \"routes_per_neighbour\"",
            u(neighbours) * u(routes_per_neighbour),
            "\"ticks\" × \"packets_per_tick\"",
            ticks * u(packets_per_tick),
        ),
        Workload::MixedPlane {
            neighbours,
            routes_per_neighbour,
            packets_per_tick,
            burst_multiplier,
            ..
        } => (
            "\"neighbours\" × \"routes_per_neighbour\"",
            u(neighbours) * u(routes_per_neighbour),
            "\"ticks\" × \"packets_per_tick\" × \"burst_multiplier\"",
            (ticks * u(packets_per_tick)).saturating_mul(u(burst_multiplier.max(1))),
        ),
        Workload::TraceReplay { ticks, flows, entries, .. } => (
            "\"entries\"",
            u(entries),
            "\"flows\" × the longest flow \"ticks\" admits",
            u(flows) * u(ticks.min(MAX_FLOW_LEN)),
        ),
    };
    check_entries(ctx, table_members, table)?;
    if ticks > MAX_OFFERED {
        return Err(ApiError::bad_request(format!(
            "{ctx}: \"ticks\" must be at most {MAX_OFFERED}, got {ticks}"
        )));
    }
    if offered > MAX_OFFERED {
        return Err(ApiError::bad_request(format!(
            "{ctx}: {budget_members} offers up to {offered} datagrams, more than the \
             {MAX_OFFERED} one request may"
        )));
    }
    Ok(())
}

/// One evaluation, in wire form: the validated front door that the JSON
/// schema, the CLI and programmatic callers share before an
/// [`EvalRequest`] is built.
///
/// The `trace` member is an **input**: a flow trace ([`TraceRef`]) the
/// scenario replays verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalSpec {
    /// The machine under evaluation: per-core shape plus the multi-core
    /// system built from it.
    pub config: MachineSpec,
    /// Line-rate target.
    pub rate: LineRate,
    /// Routing-table size (1 to [`taco_sim::DEFAULT_MEMORY_WORDS`]).
    pub entries: usize,
    /// Optional behavioural workload.
    pub workload: Option<Workload>,
    /// Optional deterministic fault plan.
    pub faults: Option<FaultPlan>,
    /// Optional explicit flow trace (inline body), replayed verbatim
    /// instead of regenerating from the workload descriptor.  When both `workload` and `trace` are present the
    /// workload must equal the trace's descriptor — a mismatch is a
    /// structured bad request, not a silent override.
    pub trace: Option<TraceRef>,
}

impl EvalSpec {
    /// A spec for `config` with the paper's defaults (10 GbE, 100 entries,
    /// no workload, no faults).  Accepts a bare
    /// [`ConfigSpec`] (single-core) or a full [`MachineSpec`].
    pub fn new(config: impl Into<MachineSpec>) -> Self {
        EvalSpec {
            config: config.into(),
            rate: LineRate::TEN_GBE,
            entries: EvalRequest::DEFAULT_ENTRIES,
            workload: None,
            faults: None,
            trace: None,
        }
    }

    /// Builds the validated [`EvalRequest`], decoding any inline flow
    /// trace, so a corrupt body rejects the request before any simulation
    /// runs.
    pub fn to_request(&self) -> Result<EvalRequest, ApiError> {
        check_entries("eval spec", "\"entries\"", self.entries as u64)?;
        let mut request =
            EvalRequest::new(self.config.to_config()?).rate(self.rate).entries(self.entries);
        if let Some(workload) = self.workload {
            request = request.workload(workload);
        }
        if let Some(faults) = self.faults {
            request = request.faults(faults);
        }
        if let Some(trace_ref) = &self.trace {
            let trace = trace_ref.resolve()?;
            if let Some(workload) = self.workload {
                if workload != trace.descriptor() {
                    return Err(ApiError::bad_request(
                        "trace: the request's workload does not match the attached trace's \
                         descriptor",
                    ));
                }
            }
            request = request.flow_trace(Arc::new(trace));
        }
        Ok(request)
    }

    /// The wire spelling of `request` (an attached flow trace becomes an
    /// inline [`TraceRef`]), or `None` when the machine configuration is
    /// not expressible on the wire.
    pub fn from_request(request: &EvalRequest) -> Option<EvalSpec> {
        Some(EvalSpec {
            config: MachineSpec::from_config(&request.config)?,
            rate: request.line_rate,
            entries: request.entries,
            workload: request.workload,
            faults: request.faults,
            trace: request.flow_trace.as_ref().map(|t| TraceRef::inline(t)),
        })
    }

    /// The spec's JSON members (no surrounding braces) — reused by the
    /// request envelope so `eval` requests stay flat.
    fn to_json_fields(&self) -> String {
        let mut s = format!(
            "\"config\":{},\"rate\":{},\"entries\":{}",
            self.config.to_json(),
            rate_to_json(&self.rate),
            self.entries
        );
        if let Some(w) = &self.workload {
            s.push_str(",\"workload\":");
            s.push_str(&workload_to_json(w));
        }
        if let Some(p) = &self.faults {
            s.push_str(",\"faults\":");
            s.push_str(&fault_plan_to_json(p));
        }
        if let Some(t) = &self.trace {
            s.push_str(",\"trace\":");
            s.push_str(&t.to_json());
        }
        s
    }

    /// One-line JSON body (fixed key order; `workload`/`faults` omitted
    /// when absent).
    pub fn to_json(&self) -> String {
        format!("{{{}}}", self.to_json_fields())
    }

    /// Parses a JSON body produced by [`EvalSpec::to_json`].
    pub fn from_json(text: &str) -> Result<EvalSpec, ApiError> {
        let value = Json::parse(text).map_err(|e| ApiError::bad_request(e.to_string()))?;
        Self::from_value(&value)
    }

    pub(crate) fn from_value(value: &Json) -> Result<EvalSpec, ApiError> {
        let mut f = Fields::new("eval spec", value)?;
        let spec = Self::from_fields(&mut f)?;
        f.finish()?;
        Ok(spec)
    }

    fn from_fields(f: &mut Fields<'_>) -> Result<EvalSpec, ApiError> {
        let spec = EvalSpec {
            config: MachineSpec::from_value(f.req("config")?)?,
            rate: rate_from_value(f.req("rate")?)?,
            entries: f.req_usize("entries")?,
            workload: f.get_non_null("workload").map(workload_from_value).transpose()?,
            faults: f.get_non_null("faults").map(fault_plan_from_value).transpose()?,
            trace: f.get_non_null("trace").map(TraceRef::from_value).transpose()?,
        };
        check_entries("eval spec", "\"entries\"", spec.entries as u64)?;
        spec.config.to_config()?;
        Ok(spec)
    }
}

// ---------------------------------------------------------------------------
// Sweep codecs.
// ---------------------------------------------------------------------------

pub(crate) fn sweep_spec_to_json(spec: &SweepSpec) -> String {
    let ints = |xs: &[u8]| xs.iter().map(u8::to_string).collect::<Vec<_>>().join(",");
    let kinds = spec.kinds.iter().map(|k| format!("\"{k}\"")).collect::<Vec<_>>().join(",");
    let mut s = format!(
        "{{\"buses\":[{}],\"replication\":[{}],\"kinds\":[{}],\"entries\":{}",
        ints(&spec.buses),
        ints(&spec.replication),
        kinds,
        spec.entries
    );
    // The multicore axes are omitted at their single-core defaults so
    // pre-multicore sweep requests keep their exact bytes (and their
    // cache keys).
    if spec.cores != [1] {
        s.push_str(&format!(",\"cores\":[{}]", ints(&spec.cores)));
    }
    if spec.topologies != [Topology::SharedBus] {
        let names =
            spec.topologies.iter().map(|t| format!("\"{t}\"")).collect::<Vec<_>>().join(",");
        s.push_str(&format!(",\"topologies\":[{names}]"));
    }
    if spec.protocols != [CoherenceProtocol::Mesi] {
        let names = spec.protocols.iter().map(|p| format!("\"{p}\"")).collect::<Vec<_>>().join(",");
        s.push_str(&format!(",\"protocols\":[{names}]"));
    }
    if let Some(w) = &spec.workload {
        s.push_str(",\"workload\":");
        s.push_str(&workload_to_json(w));
    }
    if let Some(p) = &spec.faults {
        s.push_str(",\"faults\":");
        s.push_str(&fault_plan_to_json(p));
    }
    if let Some(t) = &spec.trace {
        // Always inline: the daemon must receive the records themselves,
        // not a path on the client's filesystem.
        s.push_str(",\"trace\":");
        s.push_str(&TraceRef::inline(t).to_json());
    }
    s.push('}');
    s
}

fn u8_list(ctx: &'static str, name: &str, value: &Json) -> Result<Vec<u8>, ApiError> {
    let items = value
        .as_array()
        .ok_or_else(|| ApiError::bad_request(format!("{ctx}: {name:?} must be an array")))?;
    items
        .iter()
        .map(|v| {
            v.as_u64().and_then(|n| u8::try_from(n).ok()).filter(|&n| n >= 1).ok_or_else(|| {
                ApiError::bad_request(format!(
                    "{ctx}: {name:?} entries must be integers in 1..=255"
                ))
            })
        })
        .collect()
}

pub(crate) fn sweep_spec_from_value(value: &Json) -> Result<SweepSpec, ApiError> {
    let mut f = Fields::new("sweep spec", value)?;
    let kinds_value = f.req("kinds")?;
    let kinds = kinds_value
        .as_array()
        .ok_or_else(|| ApiError::bad_request("sweep spec: \"kinds\" must be an array"))?
        .iter()
        .map(|v| {
            v.as_str()
                .ok_or_else(|| ApiError::bad_request("sweep spec: kinds must be strings"))
                .and_then(|s| parse_table_kind(s).map_err(ApiError::bad_request))
        })
        .collect::<Result<Vec<_>, _>>()?;
    // The multicore axes are optional (absent = the single-core default
    // grid).  Core counts are range-checked here, at the wire boundary:
    // `grid()` feeds them to `SystemConfig::with_cores`, which panics on
    // out-of-range values, so a bad request must die as a structured
    // error long before it can reach the sweep.
    let cores = match f.get_non_null("cores") {
        None => vec![1],
        Some(v) => {
            let cores = u8_list("sweep spec", "cores", v)?;
            if let Some(&bad) = cores.iter().find(|&&n| n > MAX_CORES) {
                return Err(ApiError::bad_request(format!(
                    "sweep spec: \"cores\" entries must be 1..={MAX_CORES}, got {bad}"
                )));
            }
            cores
        }
    };
    let name_list = |name: &'static str, value: &Json| -> Result<Vec<String>, ApiError> {
        value
            .as_array()
            .ok_or_else(|| ApiError::bad_request(format!("sweep spec: {name:?} must be an array")))?
            .iter()
            .map(|v| {
                v.as_str().map(str::to_owned).ok_or_else(|| {
                    ApiError::bad_request(format!("sweep spec: {name} entries must be strings"))
                })
            })
            .collect()
    };
    let topologies = match f.get_non_null("topologies") {
        None => vec![Topology::SharedBus],
        Some(v) => name_list("topologies", v)?
            .iter()
            .map(|name| Topology::by_name(name).ok_or_else(|| unknown_topology(name)))
            .collect::<Result<Vec<_>, _>>()?,
    };
    let protocols = match f.get_non_null("protocols") {
        None => vec![CoherenceProtocol::Mesi],
        Some(v) => name_list("protocols", v)?
            .iter()
            .map(|name| CoherenceProtocol::by_name(name).ok_or_else(|| unknown_protocol(name)))
            .collect::<Result<Vec<_>, _>>()?,
    };
    let spec = SweepSpec {
        buses: u8_list("sweep spec", "buses", f.req("buses")?)?,
        replication: u8_list("sweep spec", "replication", f.req("replication")?)?,
        kinds,
        entries: f.req_usize("entries")?,
        workload: f.get_non_null("workload").map(workload_from_value).transpose()?,
        faults: f.get_non_null("faults").map(fault_plan_from_value).transpose()?,
        trace: f
            .get_non_null("trace")
            .map(|v| TraceRef::from_value(v)?.resolve().map(Arc::new))
            .transpose()?,
        cores,
        topologies,
        protocols,
    };
    check_entries("sweep spec", "\"entries\"", spec.entries as u64)?;
    f.finish()?;
    Ok(spec)
}

pub(crate) fn constraints_to_json(c: &Constraints) -> String {
    let opt = |v: Option<u64>| v.map_or("null".to_owned(), |n| n.to_string());
    format!(
        "{{\"max_power_w\":{},\"max_area_mm2\":{},\"max_scenario_drops\":{},\
         \"max_unrecovered_faults\":{}}}",
        f64_json(c.max_power_w),
        f64_json(c.max_area_mm2),
        opt(c.max_scenario_drops),
        opt(c.max_unrecovered_faults),
    )
}

pub(crate) fn constraints_from_value(value: &Json) -> Result<Constraints, ApiError> {
    let mut f = Fields::new("constraints", value)?;
    let defaults = Constraints::default();
    let finite_or = |v: Option<&Json>, name: &str, default: f64| match v {
        None => Ok(default),
        Some(v) => v.as_f64().ok_or_else(|| {
            ApiError::bad_request(format!("constraints: {name:?} must be a finite number"))
        }),
    };
    let opt_u64 = |v: Option<&Json>, name: &str| match v {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            ApiError::bad_request(format!("constraints: {name:?} must be an unsigned integer"))
        }),
    };
    let constraints = Constraints {
        max_power_w: finite_or(f.get_non_null("max_power_w"), "max_power_w", defaults.max_power_w)?,
        max_area_mm2: finite_or(
            f.get_non_null("max_area_mm2"),
            "max_area_mm2",
            defaults.max_area_mm2,
        )?,
        max_scenario_drops: opt_u64(f.get_non_null("max_scenario_drops"), "max_scenario_drops")?,
        max_unrecovered_faults: opt_u64(
            f.get_non_null("max_unrecovered_faults"),
            "max_unrecovered_faults",
        )?,
    };
    f.finish()?;
    Ok(constraints)
}

// ---------------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------------

/// One client request, the unit of the wire protocol (one JSON line each).
#[derive(Debug, Clone, PartialEq)]
pub enum ApiRequest {
    /// Evaluate a single architecture instance.
    Eval(EvalSpec),
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

impl ApiRequest {
    /// The request's JSON members after the envelope (no braces, starting
    /// at `"kind"`) — shared by the v1 and v2 serialisers.
    fn body_fields(&self) -> String {
        match self {
            ApiRequest::Eval(spec) => format!("\"kind\":\"eval\",{}", spec.to_json_fields()),
            ApiRequest::Sweep { spec, rate, constraints } => format!(
                "\"kind\":\"sweep\",\"spec\":{},\"rate\":{},\"constraints\":{}",
                sweep_spec_to_json(spec),
                rate_to_json(rate),
                constraints_to_json(constraints),
            ),
            ApiRequest::Status => "\"kind\":\"status\"".to_owned(),
            ApiRequest::Shutdown => "\"kind\":\"shutdown\"".to_owned(),
        }
    }

    /// Serialises the request as one v1 JSON line (fixed key order,
    /// explicit `"api_version"`).
    pub fn to_json(&self) -> String {
        format!("{{\"api_version\":\"{API_VERSION}\",{}}}", self.body_fields())
    }

    /// Serialises the request as one v2 JSON line carrying the
    /// client-chosen `id` that every response line for this request will
    /// echo.
    pub fn to_json_v2(&self, id: u64) -> String {
        format!("{{\"api_version\":\"{API_VERSION_V2}\",\"id\":{id},{}}}", self.body_fields())
    }

    /// Parses the fields after the envelope — the same kinds in either
    /// dialect.
    fn from_fields(mut f: Fields<'_>) -> Result<ApiRequest, ApiError> {
        let request = match f.req_str("kind")? {
            "eval" => ApiRequest::Eval(EvalSpec::from_fields(&mut f)?),
            "sweep" => ApiRequest::Sweep {
                spec: sweep_spec_from_value(f.req("spec")?)?,
                rate: rate_from_value(f.req("rate")?)?,
                constraints: f
                    .get_non_null("constraints")
                    .map(constraints_from_value)
                    .transpose()?
                    .unwrap_or_default(),
            },
            "status" => ApiRequest::Status,
            "shutdown" => ApiRequest::Shutdown,
            other => {
                return Err(ApiError::bad_request(format!(
                    "unknown request kind {other:?}; expected eval, sweep, status or shutdown"
                )))
            }
        };
        f.finish()?;
        Ok(request)
    }

    /// Strictly parses one **v1** request line: bad JSON, missing/unknown
    /// fields and out-of-range values are [`ApiErrorCode::BadRequest`]; a
    /// wrong `"api_version"` (including `"v2"`) is
    /// [`ApiErrorCode::VersionMismatch`].  Session-aware servers parse
    /// through [`WireRequest::from_json`] instead.
    pub fn from_json(line: &str) -> Result<ApiRequest, ApiError> {
        let value = Json::parse(line).map_err(|e| ApiError::bad_request(e.to_string()))?;
        let mut f = Fields::new("request", &value)?;
        let version = f.req_str("api_version")?;
        if version != API_VERSION {
            return Err(ApiError::version_mismatch(version));
        }
        ApiRequest::from_fields(f)
    }
}

/// A version-sniffed request envelope: the parse every `taco-served`
/// connection runs on each frame, accepting both dialects.
///
/// `id` is `None` for a v1 line (the one-shot dialect has no request
/// identity) and `Some` for a v2 line (where `"id"` is mandatory) — so
/// the envelope itself tells the server which session semantics the
/// client expects.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// The client-chosen request id (v2), or `None` (v1).
    pub id: Option<u64>,
    /// The request proper.
    pub request: ApiRequest,
}

impl WireRequest {
    /// Serialises with the dialect implied by `id`.
    pub fn to_json(&self) -> String {
        match self.id {
            Some(id) => self.request.to_json_v2(id),
            None => self.request.to_json(),
        }
    }

    /// Strictly parses one request line of either dialect.
    pub fn from_json(line: &str) -> Result<WireRequest, ApiError> {
        let value = Json::parse(line).map_err(|e| ApiError::bad_request(e.to_string()))?;
        let mut f = Fields::new("request", &value)?;
        match f.req_str("api_version")? {
            v if v == API_VERSION => {
                if f.get("id").is_some() {
                    return Err(ApiError::bad_request(format!(
                        "\"id\" requires api_version {API_VERSION_V2:?}"
                    )));
                }
                Ok(WireRequest { id: None, request: ApiRequest::from_fields(f)? })
            }
            v if v == API_VERSION_V2 => {
                let id = f.req_u64("id")?;
                Ok(WireRequest { id: Some(id), request: ApiRequest::from_fields(f)? })
            }
            other => Err(ApiError::version_mismatch(other)),
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
    /// Evaluations stored in the cache.
    pub cache_entries: u64,
    /// Cache lookups answered from the map.
    pub cache_hits: u64,
    /// Cache lookups that had to simulate.
    pub cache_misses: u64,
}

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

impl ApiResponse {
    /// The response's JSON members after the envelope (no braces, starting
    /// at `"kind"`) — shared by the v1 and v2 serialisers.  Front ends
    /// that memoise a serialised response body and splice version/id
    /// envelopes around it (the daemon's inline cache-hit fast path) use
    /// this instead of re-serialising per request.
    pub fn body_json(&self) -> String {
        match self {
            ApiResponse::EvalResult(report) => format!(
                "\"kind\":\"eval_result\",\"cell\":{},\"report\":{}",
                table1_cell_json(report),
                report_to_json(report),
            ),
            ApiResponse::SweepPoint { index, total, label, cache_hit, feasible } => format!(
                "\"kind\":\"sweep_point\",\"index\":{index},\"total\":{total},\
                 \"label\":{},\"cache_hit\":{cache_hit},\"feasible\":{feasible}",
                Json::str(label.clone()).encode(),
            ),
            ApiResponse::SweepResult { admitted, reports } => {
                let indices = admitted.iter().map(usize::to_string).collect::<Vec<_>>().join(",");
                let best = admitted
                    .first()
                    .and_then(|&i| reports.get(i))
                    .map_or("null".to_owned(), |r| Json::str(r.config.label()).encode());
                let body = reports.iter().map(report_to_json).collect::<Vec<_>>().join(",");
                format!(
                    "\"kind\":\"sweep_result\",\"points\":{},\"admitted\":[{indices}],\
                     \"best\":{best},\"reports\":[{body}]",
                    reports.len(),
                )
            }
            ApiResponse::Status(s) => format!(
                "\"kind\":\"status_result\",\"in_flight\":{},\"queued\":{},\"max_pending\":{},\
                 \"draining\":{},\"cache\":{{\"entries\":{},\"hits\":{},\"misses\":{}}},\
                 \"features\":{}",
                s.in_flight,
                s.queued,
                s.max_pending,
                s.draining,
                s.cache_entries,
                s.cache_hits,
                s.cache_misses,
                supported_features_json(),
            ),
            ApiResponse::ShutdownAck { persisted } => format!(
                "\"kind\":\"shutdown_ack\",\"persisted\":{}",
                persisted.map_or("null".to_owned(), |n| n.to_string()),
            ),
            ApiResponse::Error(e) => format!(
                "\"kind\":\"error\",\"code\":\"{}\",\"message\":{}",
                e.code.as_str(),
                Json::str(e.message.clone()).encode(),
            ),
        }
    }

    /// Serialises the response as one v1 JSON line.
    pub fn to_json(&self) -> String {
        format!("{{\"api_version\":\"{API_VERSION}\",{}}}", self.body_json())
    }

    /// Serialises the response as one v2 JSON line echoing the request's
    /// `id` (`None` → `"id":null`, for errors on frames too broken to
    /// carry one).
    pub fn to_json_v2(&self, id: Option<u64>) -> String {
        let id = id.map_or("null".to_owned(), |n| n.to_string());
        format!("{{\"api_version\":\"{API_VERSION_V2}\",\"id\":{id},{}}}", self.body_json())
    }

    /// Parses the fields after the envelope.
    fn from_fields(mut f: Fields<'_>) -> Result<ApiResponse, ApiError> {
        let response = match f.req_str("kind")? {
            "eval_result" => {
                let _cell = f.req("cell")?; // derived from the report; consumed, not re-checked
                let report = report::report_from_value(f.req("report")?)?;
                ApiResponse::EvalResult(Box::new(report))
            }
            "sweep_point" => ApiResponse::SweepPoint {
                index: f.req_usize("index")?,
                total: f.req_usize("total")?,
                label: f.req_str("label")?.to_owned(),
                cache_hit: f.req_bool("cache_hit")?,
                feasible: f.req_bool("feasible")?,
            },
            "sweep_result" => {
                let points = f.req_usize("points")?;
                let admitted = f
                    .req("admitted")?
                    .as_array()
                    .ok_or_else(|| {
                        ApiError::bad_request("response: \"admitted\" must be an array")
                    })?
                    .iter()
                    .map(|v| {
                        v.as_u64().and_then(|n| usize::try_from(n).ok()).ok_or_else(|| {
                            ApiError::bad_request("response: admitted indices must be integers")
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let _best = f.req("best")?; // derived; consumed, not re-checked
                let reports = f
                    .req("reports")?
                    .as_array()
                    .ok_or_else(|| ApiError::bad_request("response: \"reports\" must be an array"))?
                    .iter()
                    .map(report::report_from_value)
                    .collect::<Result<Vec<_>, _>>()?;
                if reports.len() != points {
                    return Err(ApiError::bad_request(format!(
                        "response: {points} points declared but {} reports present",
                        reports.len()
                    )));
                }
                ApiResponse::SweepResult { admitted, reports }
            }
            "status_result" => {
                let in_flight = f.req_u64("in_flight")?;
                let queued = f.req_u64("queued")?;
                let max_pending = f.req_u64("max_pending")?;
                let draining = f.req_bool("draining")?;
                let mut cache = Fields::new("status cache", f.req("cache")?)?;
                let info = StatusInfo {
                    in_flight,
                    queued,
                    max_pending,
                    draining,
                    cache_entries: cache.req_u64("entries")?,
                    cache_hits: cache.req_u64("hits")?,
                    cache_misses: cache.req_u64("misses")?,
                };
                cache.finish()?;
                // The feature record is advisory (what specs this build
                // accepts); it is regenerated on re-serialisation, so the
                // strict parse validates and consumes it without storing
                // it.  Absent in pre-multicore lines — still accepted.
                if let Some(v) = f.get_non_null("features") {
                    let mut feat = Fields::new("status features", v)?;
                    feat.req_u64("max_cores")?;
                    for list in ["topologies", "protocols"] {
                        let items = feat.req(list)?.as_array().ok_or_else(|| {
                            ApiError::bad_request(format!(
                                "status features: {list:?} must be an array"
                            ))
                        })?;
                        for item in items {
                            item.as_str().ok_or_else(|| {
                                ApiError::bad_request(format!(
                                    "status features: {list:?} entries must be strings"
                                ))
                            })?;
                        }
                    }
                    feat.finish()?;
                }
                ApiResponse::Status(info)
            }
            "shutdown_ack" => ApiResponse::ShutdownAck {
                persisted: f
                    .get_non_null("persisted")
                    .map(|v| {
                        v.as_u64().ok_or_else(|| {
                            ApiError::bad_request(
                                "response: \"persisted\" must be an integer or null",
                            )
                        })
                    })
                    .transpose()?,
            },
            "error" => {
                let code_str = f.req_str("code")?;
                let code = ApiErrorCode::from_str_opt(code_str).ok_or_else(|| {
                    ApiError::bad_request(format!("response: unknown error code {code_str:?}"))
                })?;
                ApiResponse::Error(ApiError { code, message: f.req_str("message")?.to_owned() })
            }
            other => return Err(ApiError::bad_request(format!("unknown response kind {other:?}"))),
        };
        f.finish()?;
        Ok(response)
    }

    /// Strictly parses one **v1** response line.
    ///
    /// `eval_result`/`sweep_result` payloads are only parseable when their
    /// reports are (reports carrying a `sim_error` are one-way, see
    /// [`report_from_json`]).  Session-aware clients parse through
    /// [`WireResponse::from_json`] instead.
    pub fn from_json(line: &str) -> Result<ApiResponse, ApiError> {
        let value = Json::parse(line).map_err(|e| ApiError::bad_request(e.to_string()))?;
        let mut f = Fields::new("response", &value)?;
        let version = f.req_str("api_version")?;
        if version != API_VERSION {
            return Err(ApiError::version_mismatch(version));
        }
        ApiResponse::from_fields(f)
    }
}

/// A version-sniffed response envelope, the receive side of a
/// [`WireRequest`] exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResponse {
    /// `true` when the line used the v2 envelope (which always carries an
    /// `"id"` member, possibly `null`).
    pub v2: bool,
    /// The echoed request id: `None` for a v1 line, or for a v2 error
    /// whose offending frame carried no salvageable id (`"id":null`).
    pub id: Option<u64>,
    /// The response proper.
    pub response: ApiResponse,
}

impl WireResponse {
    /// Serialises with the dialect selected by `v2`.
    pub fn to_json(&self) -> String {
        if self.v2 {
            self.response.to_json_v2(self.id)
        } else {
            self.response.to_json()
        }
    }

    /// Strictly parses one response line of either dialect.
    pub fn from_json(line: &str) -> Result<WireResponse, ApiError> {
        let value = Json::parse(line).map_err(|e| ApiError::bad_request(e.to_string()))?;
        let mut f = Fields::new("response", &value)?;
        match f.req_str("api_version")? {
            v if v == API_VERSION => {
                Ok(WireResponse { v2: false, id: None, response: ApiResponse::from_fields(f)? })
            }
            v if v == API_VERSION_V2 => {
                let id = match f.req("id")? {
                    v if v.is_null() => None,
                    v => Some(v.as_u64().ok_or_else(|| {
                        ApiError::bad_request("response: \"id\" must be an integer or null")
                    })?),
                };
                Ok(WireResponse { v2: true, id, response: ApiResponse::from_fields(f)? })
            }
            other => Err(ApiError::version_mismatch(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_isa::MachineConfig;

    fn cam_spec() -> EvalSpec {
        EvalSpec::new(ConfigSpec::new(TableKind::Cam, 3, 1))
    }

    #[test]
    fn eval_request_round_trips() {
        let mut spec = cam_spec();
        spec.entries = 16;
        spec.workload = Some(Workload::burst_overload());
        spec.faults = Some(FaultPlan::storm());
        let request = ApiRequest::Eval(spec);
        let line = request.to_json();
        assert!(line.starts_with("{\"api_version\":\"v1\",\"kind\":\"eval\","), "{line}");
        assert_eq!(ApiRequest::from_json(&line).unwrap(), request);
        // And the serialisation itself is a fixed point.
        assert_eq!(ApiRequest::from_json(&line).unwrap().to_json(), line);
    }

    #[test]
    fn sweep_request_round_trips() {
        let request = ApiRequest::Sweep {
            spec: SweepSpec {
                buses: vec![1, 3],
                replication: vec![1, 2],
                kinds: vec![TableKind::Cam, TableKind::BalancedTree],
                entries: 8,
                workload: Some(Workload::steady_forward()),
                ..SweepSpec::default()
            },
            rate: LineRate::GIGE,
            constraints: Constraints {
                max_power_w: 3.5,
                max_area_mm2: 60.0,
                max_scenario_drops: Some(10),
                max_unrecovered_faults: None,
            },
        };
        let line = request.to_json();
        assert_eq!(ApiRequest::from_json(&line).unwrap(), request);
        assert_eq!(ApiRequest::from_json(&line).unwrap().to_json(), line);
    }

    #[test]
    fn multicore_sweep_requests_round_trip_and_default_axes_stay_silent() {
        // Default multicore axes leave the wire bytes exactly as v1 wrote
        // them — no "cores"/"topologies"/"protocols" members appear.
        let default_axes = ApiRequest::Sweep {
            spec: SweepSpec { entries: 8, ..SweepSpec::default() },
            rate: LineRate::TEN_GBE,
            constraints: Constraints::default(),
        };
        let line = default_axes.to_json();
        for silent in ["\"cores\"", "\"topologies\"", "\"protocols\""] {
            assert!(!line.contains(silent), "{silent} must be omitted at default: {line}");
        }
        assert_eq!(ApiRequest::from_json(&line).unwrap(), default_axes);

        // Non-default axes round-trip as a fixed point.
        let request = ApiRequest::Sweep {
            spec: SweepSpec {
                buses: vec![3],
                replication: vec![1],
                kinds: vec![TableKind::Cam],
                entries: 8,
                cores: vec![1, 2, 4],
                topologies: vec![Topology::Mesh, Topology::SharedBus],
                protocols: vec![CoherenceProtocol::Msi],
                ..SweepSpec::default()
            },
            rate: LineRate::TEN_GBE,
            constraints: Constraints::default(),
        };
        let line = request.to_json();
        assert!(
            line.contains(
                "\"cores\":[1,2,4],\"topologies\":[\"mesh\",\"shared-bus\"],\
                 \"protocols\":[\"msi\"]"
            ),
            "{line}"
        );
        assert_eq!(ApiRequest::from_json(&line).unwrap(), request);
        assert_eq!(ApiRequest::from_json(&line).unwrap().to_json(), line);
    }

    #[test]
    fn sweep_multicore_axes_reject_bad_values_structurally() {
        let sweep = |axes: &str| {
            let json = format!(
                "{{\"api_version\":\"v1\",\"kind\":\"sweep\",\"spec\":{{\"buses\":[3],\
                 \"replication\":[1],\"kinds\":[\"cam\"],\"entries\":8{axes}}},\
                 \"rate\":{{\"bits_per_second\":10000000000,\"packet_bytes\":1500}}}}"
            );
            ApiRequest::from_json(&json)
        };
        // A core count past the ceiling must be a structured bad_request
        // naming the field — never the `with_cores` panic inside `grid()`.
        let err = sweep(",\"cores\":[2,9]").expect_err("9 cores must be rejected");
        assert_eq!(err.code, ApiErrorCode::BadRequest);
        assert!(err.message.contains("\"cores\""), "{}", err.message);
        assert!(err.message.contains("got 9"), "{}", err.message);
        let err = sweep(",\"cores\":[0]").expect_err("0 cores must be rejected");
        assert_eq!(err.code, ApiErrorCode::BadRequest);
        // Unknown topology and protocol names list the accepted spellings.
        let err = sweep(",\"topologies\":[\"ring\"]").expect_err("ring must be rejected");
        assert!(err.message.contains("shared-bus, mesh"), "{}", err.message);
        let err = sweep(",\"protocols\":[\"moesi\"]").expect_err("moesi must be rejected");
        assert!(err.message.contains("msi, mesi"), "{}", err.message);
    }

    #[test]
    fn trace_eval_requests_round_trip_inline() {
        let trace = taco_workload::TraceGen::generate(9, 30, 5, 8);
        let mut spec = cam_spec();
        spec.entries = 8;
        spec.trace = Some(TraceRef::inline(&trace));
        let request = ApiRequest::Eval(spec);
        let line = request.to_json();
        assert!(line.contains("\"trace\":{\"inline\":\""), "{line}");
        assert_eq!(ApiRequest::from_json(&line).unwrap(), request);
        assert_eq!(ApiRequest::from_json(&line).unwrap().to_json(), line);
    }

    #[test]
    fn trace_sweep_requests_round_trip_with_resolved_records() {
        let trace = taco_workload::TraceGen::generate(9, 30, 5, 8);
        let request = ApiRequest::Sweep {
            spec: SweepSpec {
                buses: vec![1, 3],
                replication: vec![1],
                kinds: vec![TableKind::Cam],
                entries: 8,
                workload: None,
                faults: None,
                trace: Some(std::sync::Arc::new(trace)),
                ..SweepSpec::default()
            },
            rate: LineRate::TEN_GBE,
            constraints: Constraints::default(),
        };
        let line = request.to_json();
        // Sweep traces always ship inline — the daemon needs the records,
        // not a path on the client's filesystem.
        assert!(line.contains("\"trace\":{\"inline\":\""), "{line}");
        assert_eq!(ApiRequest::from_json(&line).unwrap(), request);
        assert_eq!(ApiRequest::from_json(&line).unwrap().to_json(), line);
    }

    #[test]
    fn trace_refs_are_inline_only() {
        let parse = |json: &str| TraceRef::from_value(&Json::parse(json).unwrap());
        for bad in ["{}", "{\"inline\":1}", "{\"inline\":null}", "{\"other\":true}"] {
            let err = parse(bad).expect_err(bad);
            assert_eq!(err.code, ApiErrorCode::BadRequest, "{bad}");
        }
        // The daemon opens no file a client names: `path` is not a member.
        for bad in ["{\"path\":\"t.bin\"}", "{\"inline\":\"00\",\"path\":\"x\"}"] {
            let err = parse(bad).expect_err(bad);
            assert!(err.message.contains("unknown field \"path\""), "{bad}: {}", err.message);
        }
        assert_eq!(parse("{\"inline\":\"00ff\"}").unwrap(), TraceRef::Inline("00ff".into()));
    }

    #[test]
    fn trace_workload_mismatch_is_a_structured_bad_request() {
        let trace = taco_workload::TraceGen::generate(9, 30, 5, 8);
        let mut spec = cam_spec();
        spec.entries = 8;
        spec.trace = Some(TraceRef::inline(&trace));

        // A workload equal to the trace's descriptor is accepted...
        spec.workload = Some(trace.descriptor());
        assert!(spec.to_request().is_ok());

        // ...any other workload is rejected, not silently overridden.
        spec.workload = Some(Workload::burst_overload());
        let err = spec.to_request().expect_err("mismatched workload must be rejected");
        assert_eq!(err.code, ApiErrorCode::BadRequest);
        assert!(err.message.contains("descriptor"), "{}", err.message);
    }

    #[test]
    fn status_and_shutdown_round_trip() {
        for request in [ApiRequest::Status, ApiRequest::Shutdown] {
            let line = request.to_json();
            assert_eq!(ApiRequest::from_json(&line).unwrap(), request);
        }
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let sweep = ApiRequest::Sweep {
            spec: SweepSpec::default(),
            rate: LineRate::GIGE,
            constraints: Constraints::default(),
        };
        for (request, name, value) in [
            (ApiRequest::Status, "bogus", "1"),
            (ApiRequest::Eval(cam_spec()), "step_mode", "\"interpretive\""),
            (sweep, "shard", "{\"offset\":0,\"stride\":1}"),
        ] {
            let with_field =
                |line: String| format!("{},\"{name}\":{value}}}", line.strip_suffix('}').unwrap());
            let v1 = ApiRequest::from_json(&with_field(request.to_json())).unwrap_err();
            let wire = WireRequest { id: Some(7), request };
            let v2 = WireRequest::from_json(&with_field(wire.to_json())).unwrap_err();
            for err in [v1, v2] {
                assert_eq!(err.code, ApiErrorCode::BadRequest);
                assert!(err.message.contains(&format!("unknown field {name:?}")), "{err}");
            }
        }
        // The removed cache-exchange kinds are unknown in both dialects
        // (spelled in halves: verify.sh fails if the whole names reappear).
        for op in ["export", "import"] {
            let kind = format!("cache_{op}");
            let v1 = ApiRequest::Status.to_json().replace("status", &kind);
            let v2 = ApiRequest::Status.to_json_v2(7).replace("status", &kind);
            for err in [ApiRequest::from_json(&v1), WireRequest::from_json(&v2).map(|w| w.request)]
                .map(Result::unwrap_err)
            {
                assert_eq!(err.code, ApiErrorCode::BadRequest);
                assert!(err.message.contains(&format!("unknown request kind {kind:?}")), "{err}");
            }
        }
    }

    #[test]
    fn version_mismatch_is_structured() {
        let line = ApiRequest::Status.to_json().replace("\"v1\"", "\"v0\"");
        let err = ApiRequest::from_json(&line).unwrap_err();
        assert_eq!(err.code, ApiErrorCode::VersionMismatch);
        assert!(err.message.contains("v0"), "{err}");
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
            let mut spec = cam_spec();
            spec.entries = entries;
            assert_eq!(spec.to_request().is_ok(), ok, "{entries}");
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

        let line = ApiRequest::Eval(cam_spec()).to_json().replace("\"buses\":3", "\"buses\":0");
        let err = ApiRequest::from_json(&line).unwrap_err();
        assert_eq!(err.code, ApiErrorCode::BadRequest);
    }

    #[test]
    fn rate_validation_matches_line_rate_new() {
        assert!(validated_rate(10e9, 1040).is_ok());
        for bad in [0.0, -1.0, f64::INFINITY, f64::NAN, f64::MIN_POSITIVE / 2.0] {
            assert!(validated_rate(bad, 1040).is_err(), "{bad}");
        }
        assert!(validated_rate(10e9, 0).is_err());
    }

    #[test]
    fn config_spec_inverts_every_in_tree_shape() {
        let mut shapes = ArchConfig::table1_cells();
        shapes.push(ArchConfig::with_replication(TableKind::Trie, 4, 2));
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
    fn name_parsers_list_alternatives() {
        assert_eq!(parse_table_kind("tree"), Ok(TableKind::BalancedTree));
        assert_eq!(parse_table_kind("patricia"), Ok(TableKind::Patricia));
        assert_eq!(parse_table_kind("pat"), Ok(TableKind::Patricia));
        assert!(parse_table_kind("btree").unwrap_err().contains("balanced-tree"));
        assert!(parse_table_kind("btree").unwrap_err().contains("patricia"));
        // Every display name must round-trip through the parser — the wire
        // serialises kinds by `Display`, so a kind the parser rejects
        // could be emitted but never read back.
        for kind in TableKind::ALL_KINDS {
            assert_eq!(parse_table_kind(&kind.to_string()), Ok(kind));
        }
        assert!(parse_workload_name("nope").unwrap_err().contains("steady-forward"));
        assert!(parse_fault_plan_name("nope").unwrap_err().contains("storm"));
        assert_eq!(parse_workload_name("table-churn"), Ok(Workload::table_churn()));
        assert_eq!(parse_fault_plan_name("storm"), Ok(FaultPlan::storm()));
        // Every documented machine spelling parses to the shape it names,
        // and the error message lists all of them (generated from the
        // spelling table, so it cannot drift from the parser).
        for (spelling, expected) in [
            ("1x1", ArchConfig::one_bus_one_fu(TableKind::Cam)),
            ("1BUS/1FU", ArchConfig::one_bus_one_fu(TableKind::Cam)),
            ("3x1", ArchConfig::three_bus_one_fu(TableKind::Cam)),
            ("3BUS/1FU", ArchConfig::three_bus_one_fu(TableKind::Cam)),
            ("3x3", ArchConfig::three_bus_three_fu(TableKind::Cam)),
            ("3bus/3CNT,3CMP,3M", ArchConfig::three_bus_three_fu(TableKind::Cam)),
        ] {
            let spec = parse_machine_spec(TableKind::Cam, spelling)
                .unwrap_or_else(|e| panic!("{spelling}: {e}"));
            assert_eq!(spec.to_config().unwrap(), expected, "{spelling}");
        }
        let err = parse_machine_spec(TableKind::Cam, "9x9").unwrap_err();
        for &(names, _, _) in MACHINE_SPELLINGS {
            for name in names {
                assert!(err.contains(name), "{name} missing from {err}");
            }
        }
    }

    #[test]
    fn machine_spec_keeps_flat_bytes_for_default_systems() {
        let spec = MachineSpec::new(ConfigSpec::new(TableKind::Cam, 3, 1));
        assert_eq!(
            spec.to_json(),
            "{\"table\":\"cam\",\"buses\":3,\"replication\":1,\"memory_ports\":1}"
        );
        // The flat form parses back through the sniffing entry point.
        let parsed = MachineSpec::from_value(&Json::parse(&spec.to_json()).unwrap()).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn machine_spec_nested_form_round_trips() {
        let spec = MachineSpec::new(ConfigSpec::new(TableKind::Trie, 2, 2)).with_system(
            SystemConfig::with_cores(4)
                .topology(taco_isa::Topology::Mesh)
                .protocol(CoherenceProtocol::Msi)
                .cache(128, 8),
        );
        let line = spec.to_json();
        assert!(line.starts_with("{\"core\":{\"table\":\"trie\""), "{line}");
        assert!(line.contains("\"cores\":4"), "{line}");
        assert!(line.contains("\"topology\":\"mesh\""), "{line}");
        assert!(line.contains("\"coherence\":\"msi\""), "{line}");
        let parsed = MachineSpec::from_value(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.to_json(), line, "serialisation is a fixed point");
        // And the built ArchConfig carries the system through.
        assert_eq!(parsed.to_config().unwrap().system, spec.system);
    }

    #[test]
    fn machine_spec_nested_members_default_when_omitted() {
        let line = "{\"core\":{\"table\":\"cam\",\"buses\":3,\"replication\":1},\"cores\":2}";
        let spec = MachineSpec::from_value(&Json::parse(line).unwrap()).unwrap();
        assert_eq!(spec.system.cores, 2);
        assert_eq!(spec.system.cache, taco_isa::CacheConfig::default());
        assert_eq!(spec.system.interconnect, taco_isa::InterconnectConfig::default());
        assert_eq!(spec.system.protocol, CoherenceProtocol::Mesi);
    }

    #[test]
    fn machine_spec_rejections_name_the_field() {
        let parse = |json: &str| MachineSpec::from_value(&Json::parse(json).unwrap());
        let core = "\"core\":{\"table\":\"cam\",\"buses\":3,\"replication\":1}";
        for (bad, needle) in [
            (format!("{{{core},\"cores\":0}}"), "cores"),
            (format!("{{{core},\"cores\":9}}"), "cores"),
            (
                format!("{{{core},\"interconnect\":{{\"topology\":\"ring\",\"latency\":2}}}}"),
                "ring",
            ),
            (format!("{{{core},\"coherence\":\"moesi\"}}"), "moesi"),
            (format!("{{{core},\"cache\":{{\"lines\":0,\"line_words\":4}}}}"), "lines"),
            (
                format!("{{{core},\"interconnect\":{{\"topology\":\"mesh\",\"latency\":0}}}}"),
                "latency",
            ),
            (format!("{{{core},\"warp\":1}}"), "warp"),
        ] {
            let err = parse(&bad).expect_err(&bad);
            assert_eq!(err.code, ApiErrorCode::BadRequest, "{bad}");
            assert!(err.message.contains(needle), "{needle} missing from {err}");
        }
        // Unknown topologies and protocols list the accepted names.
        let err =
            parse(&format!("{{{core},\"interconnect\":{{\"topology\":\"ring\",\"latency\":2}}}}"))
                .unwrap_err();
        assert!(err.message.contains("shared-bus") && err.message.contains("mesh"), "{err}");
        let err = parse(&format!("{{{core},\"coherence\":\"moesi\"}}")).unwrap_err();
        assert!(err.message.contains("msi") && err.message.contains("mesi"), "{err}");
    }

    #[test]
    fn multicore_eval_requests_round_trip() {
        let mut spec = cam_spec();
        spec.config =
            spec.config.with_system(SystemConfig::with_cores(2).topology(taco_isa::Topology::Mesh));
        spec.entries = 8;
        let request = ApiRequest::Eval(spec);
        let line = request.to_json();
        assert!(line.contains("\"config\":{\"core\":{"), "{line}");
        assert_eq!(ApiRequest::from_json(&line).unwrap(), request);
        assert_eq!(ApiRequest::from_json(&line).unwrap().to_json(), line);
    }

    #[test]
    fn status_reports_the_supported_spec_features() {
        let response = ApiResponse::Status(StatusInfo {
            in_flight: 0,
            queued: 0,
            max_pending: 4,
            draining: false,
            cache_entries: 0,
            cache_hits: 0,
            cache_misses: 0,
        });
        let line = response.to_json();
        assert!(
            line.contains(
                "\"features\":{\"max_cores\":8,\"topologies\":[\"shared-bus\",\"mesh\"],\
                 \"protocols\":[\"msi\",\"mesi\"]}"
            ),
            "{line}"
        );
        assert_eq!(ApiResponse::from_json(&line).unwrap(), response);
        // Pre-multicore status lines (no features member) still parse.
        let old = line.replace(
            ",\"features\":{\"max_cores\":8,\"topologies\":[\"shared-bus\",\"mesh\"],\
             \"protocols\":[\"msi\",\"mesi\"]}",
            "",
        );
        assert_ne!(old, line);
        assert_eq!(ApiResponse::from_json(&old).unwrap(), response);
    }

    #[test]
    fn error_response_round_trips() {
        let response = ApiResponse::Error(ApiError::busy("queue full (4 in flight)"));
        let line = response.to_json();
        assert!(line.contains("\"code\":\"busy\""), "{line}");
        assert_eq!(ApiResponse::from_json(&line).unwrap(), response);
    }

    #[test]
    fn status_response_round_trips() {
        let response = ApiResponse::Status(StatusInfo {
            in_flight: 2,
            queued: 1,
            max_pending: 8,
            draining: false,
            cache_entries: 11,
            cache_hits: 40,
            cache_misses: 11,
        });
        let line = response.to_json();
        assert_eq!(ApiResponse::from_json(&line).unwrap(), response);
        assert_eq!(ApiResponse::from_json(&line).unwrap().to_json(), line);
    }

    #[test]
    fn shutdown_ack_round_trips_with_and_without_snapshot() {
        for persisted in [Some(9), None] {
            let line = ApiResponse::ShutdownAck { persisted }.to_json();
            assert_eq!(
                ApiResponse::from_json(&line).unwrap(),
                ApiResponse::ShutdownAck { persisted }
            );
        }
    }

    #[test]
    fn v2_envelope_round_trips_and_requires_an_id() {
        let wire = WireRequest { id: Some(7), request: ApiRequest::Status };
        let line = wire.to_json();
        assert!(line.starts_with("{\"api_version\":\"v2\",\"id\":7,"), "{line}");
        assert_eq!(WireRequest::from_json(&line).unwrap(), wire);
        assert_eq!(WireRequest::from_json(&line).unwrap().to_json(), line);

        // A v1 line sniffs as id-less through the same entry point.
        let v1 = WireRequest { id: None, request: ApiRequest::Status };
        assert_eq!(WireRequest::from_json(&v1.to_json()).unwrap(), v1);

        // v2 without an id, and v1 with one, are both structured errors.
        let err =
            WireRequest::from_json("{\"api_version\":\"v2\",\"kind\":\"status\"}").unwrap_err();
        assert_eq!(err.code, ApiErrorCode::BadRequest);
        let err = WireRequest::from_json("{\"api_version\":\"v1\",\"id\":1,\"kind\":\"status\"}")
            .unwrap_err();
        assert_eq!(err.code, ApiErrorCode::BadRequest);
        assert!(err.message.contains("v2"), "{err}");

        // Unknown versions stay a version mismatch naming both dialects.
        let err =
            WireRequest::from_json("{\"api_version\":\"v3\",\"kind\":\"status\"}").unwrap_err();
        assert_eq!(err.code, ApiErrorCode::VersionMismatch);
        assert!(err.message.contains("v1") && err.message.contains("v2"), "{err}");
    }

    #[test]
    fn v2_error_lines_carry_a_null_id_when_unsalvageable() {
        let response = ApiResponse::Error(ApiError::bad_request("unparseable frame"));
        let line = response.to_json_v2(None);
        assert!(line.starts_with("{\"api_version\":\"v2\",\"id\":null,"), "{line}");
        let wire = WireResponse::from_json(&line).unwrap();
        assert!(wire.v2 && wire.id.is_none());
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
