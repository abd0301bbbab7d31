//! What the seeded randomised suites in this directory share: the case
//! loop and the generators more than one suite draws from.
//!
//! A suite is `cases(SEED, CASES, |rng| …)` — `CASES` runs of the body,
//! case `n` over `SplitMix64::new(SEED ^ n)` — with both numbers constants
//! in its file.  There is no shrinking, no feature, no flag and no
//! environment variable: `cargo test` runs every case every time, offline,
//! and a failure prints the seed and case that reproduce it.

#![allow(dead_code)] // every suite uses its own subset

use std::sync::{Arc, OnceLock};

use taco::eval::api::{
    ApiError, ApiRequest, ApiResponse, CacheCounters, Envelope, EvalSpec, StatusInfo,
};
use taco::eval::{
    ArchConfig, Constraints, EvalRequest, FaultPlan, LineRate, RoutingTableKind, SweepSpec,
    TraceGen, Workload,
};
use taco::ipv6::ripng::{Command, RipngPacket, RouteEntry};
use taco::ipv6::{Ipv6Address, Ipv6Header, Ipv6Prefix, NextHeader};
use taco::isa::{FuKind, FuRef, Guard, MachineConfig, Move, MoveSeq, PortDir, PortRef, Source};
pub use taco::router::SplitMix64;

/// Names the failing case on the way out of a panicking body.
struct Case {
    seed: u64,
    case: u64,
}

impl Drop for Case {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "randomised case failed: seed {:#x}, case {} — re-run it alone with \
                 SplitMix64::new({:#x} ^ {})",
                self.seed, self.case, self.seed, self.case
            );
        }
    }
}

/// Runs `body` once per case, case `n` over `SplitMix64::new(seed ^ n)`.
pub fn cases(seed: u64, cases: u64, mut body: impl FnMut(&mut SplitMix64)) {
    for case in 0..cases {
        let _named_on_panic = Case { seed, case };
        body(&mut SplitMix64::new(seed ^ case));
    }
}

/// A uniform index into a non-empty collection of `len` items.
pub fn index(rng: &mut SplitMix64, len: usize) -> usize {
    rng.below(len as u64) as usize
}

/// A uniform element of `items`.
pub fn pick<T: Copy>(rng: &mut SplitMix64, items: &[T]) -> T {
    items[index(rng, items.len())]
}

/// `0..=max_len` uniformly random bytes.
pub fn bytes(rng: &mut SplitMix64, max_len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; index(rng, max_len + 1)];
    rng.fill_bytes(&mut buf);
    buf
}

/// Sixteen uniformly random octets.
fn octets(rng: &mut SplitMix64) -> [u8; 16] {
    let mut buf = [0u8; 16];
    rng.fill_bytes(&mut buf);
    buf
}

/// Any address at all.
pub fn addr(rng: &mut SplitMix64) -> Ipv6Address {
    Ipv6Address::new(octets(rng))
}

/// Any prefix at all: any network bits, any length `0..=128`.
pub fn prefix(rng: &mut SplitMix64) -> Ipv6Prefix {
    let len = rng.range_inclusive(0, 128) as u8;
    Ipv6Prefix::new(addr(rng), len).expect("length in range")
}

/// `0..=max_len` characters drawn from `alphabet`.
pub fn text(rng: &mut SplitMix64, alphabet: &[char], max_len: usize) -> String {
    (0..index(rng, max_len + 1)).map(|_| pick(rng, alphabet)).collect()
}

/// `0..=max_len` arbitrary `char`s: mostly ASCII and Latin-1, the rest from
/// anywhere in Unicode, so multi-byte boundaries land everywhere.
pub fn unicode(rng: &mut SplitMix64, max_len: usize) -> String {
    (0..index(rng, max_len + 1))
        .map(|_| {
            let limit = pick(rng, &[0x80, 0x80, 0x100, 0x11_0000]);
            // Surrogates are not `char`s; any other draw below the limit is.
            char::from_u32(rng.below(limit) as u32).unwrap_or('\u{fffd}')
        })
        .collect()
}

/// One random in-place corruption of `buf`: a bit flip, a byte overwrite, a
/// truncation (anywhere, or — where off-by-one length checks live — of the
/// last one to four bytes), an insertion or a duplicated tail.  Empty input
/// stays empty except under insertion.
pub fn corrupt(rng: &mut SplitMix64, buf: &mut Vec<u8>) {
    let at = index(rng, buf.len() + 1);
    match rng.below(6) {
        0 if at < buf.len() => buf[at] ^= 1 << rng.below(8),
        1 if at < buf.len() => buf[at] = pick(rng, &[0x00, 0x01, 0x7f, 0x80, 0xfe, 0xff]),
        2 => buf.truncate(at),
        3 => buf.truncate(buf.len().saturating_sub(rng.range_inclusive(1, 4) as usize)),
        4 => buf.insert(at, rng.next_u64() as u8),
        _ => buf.extend_from_within(at..),
    }
}

/// `buf` after one to three corruptions.
pub fn corrupted(rng: &mut SplitMix64, mut buf: Vec<u8>) -> Vec<u8> {
    for _ in 0..=rng.below(3) {
        corrupt(rng, &mut buf);
    }
    buf
}

/// A RIPng packet of up to 24 entries over arbitrary prefixes.
pub fn ripng_packet(rng: &mut SplitMix64) -> RipngPacket {
    let command = if rng.chance(0.5) { Command::Request } else { Command::Response };
    let entries = (0..rng.below(25))
        .map(|_| {
            let (tag, metric) = (rng.next_u64() as u16, rng.range_inclusive(1, 16) as u8);
            RouteEntry::new(prefix(rng), tag, metric)
        })
        .collect();
    RipngPacket { command, entries }
}

/// Option TLVs filling exactly `len` bytes (RFC 8200 §4.2): Pad1 runs,
/// PadN and options of any other type, in any order.
fn options(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let room = len - out.len();
        if room == 1 || rng.chance(0.3) {
            out.push(0); // Pad1
            continue;
        }
        let body = index(rng, room - 1);
        let kind = if rng.chance(0.3) { 1 } else { rng.range_inclusive(2, 255) as u8 };
        out.extend([kind, body as u8]);
        let at = out.len();
        out.resize(at + body, 0);
        if kind != 1 {
            rng.fill_bytes(&mut out[at..]);
        }
    }
    out
}

/// One extension header of type `kind` whose next-header byte is `next`:
/// an options header of one to four 8-byte units of TLVs, a routing header
/// of any type and segment count with up to four units of body, or a
/// fragment header with any offset, flags and identification.
fn extension(rng: &mut SplitMix64, kind: NextHeader, next: NextHeader) -> Vec<u8> {
    let units = match kind {
        NextHeader::Fragment => 0,
        NextHeader::Routing => 2 * rng.below(3) as u8,
        _ => rng.below(4) as u8,
    };
    let mut header = vec![next.into(), units];
    if matches!(kind, NextHeader::HopByHop | NextHeader::DestinationOptions) {
        header.extend(options(rng, 6 + 8 * usize::from(units)));
    } else {
        header.resize(8 + 8 * usize::from(units), 0);
        rng.fill_bytes(&mut header[2..]);
    }
    header
}

/// A well-formed datagram's wire frame: any addresses, class, flow label
/// and hop limit, up to three extension headers of any legal shape in any
/// order but a hop-by-hop one only first (RFC 8200 §4.1), up to 127 UDP
/// payload bytes.
pub fn datagram(rng: &mut SplitMix64) -> Vec<u8> {
    use NextHeader::{DestinationOptions, Fragment, HopByHop, Routing, Udp};
    let kinds: Vec<NextHeader> = (0..rng.below(4))
        .map(|at| match at {
            0 => pick(rng, &[HopByHop, DestinationOptions, Routing, Fragment]),
            _ => pick(rng, &[DestinationOptions, Routing, Fragment]),
        })
        .collect();
    let mut chain = Vec::new();
    for (at, &kind) in kinds.iter().enumerate() {
        chain.extend(extension(rng, kind, kinds.get(at + 1).copied().unwrap_or(Udp)));
    }
    let payload = bytes(rng, 127);
    let header = Ipv6Header {
        traffic_class: rng.next_u64() as u8,
        flow_label: rng.below(1 << 20) as u32,
        payload_len: (chain.len() + payload.len()) as u16,
        next_header: kinds.first().copied().unwrap_or(Udp),
        hop_limit: rng.next_u64() as u8,
        src: addr(rng),
        dst: addr(rng),
    };
    [&header.to_bytes()[..], &chain, &payload].concat()
}

/// Any machine the wire can spell.
fn config(rng: &mut SplitMix64) -> ArchConfig {
    let table = pick(rng, &RoutingTableKind::ALL_KINDS);
    let buses = rng.range_inclusive(1, 8) as u8;
    let config = ArchConfig::with_replication(table, buses, rng.range_inclusive(1, 4) as u8);
    match rng.range_inclusive(1, 4) as u8 {
        1 => config,
        ports => config.with_memory_ports(ports),
    }
}

/// Either dialect's envelope for a request: v1, or v2 under an id at a
/// boundary of its width.
pub fn envelope(rng: &mut SplitMix64) -> Envelope {
    if rng.chance(0.5) {
        Envelope::V2(Some(pick(rng, &[0, 7, u64::MAX])))
    } else {
        Envelope::V1
    }
}

/// `request` as one line under `envelope` (a v2 request line carries an id).
pub fn wire_line(envelope: Envelope, request: &ApiRequest) -> String {
    match envelope {
        Envelope::V1 => request.to_json(),
        Envelope::V2(id) => request.to_json_v2(id.expect("a v2 request carries an id")),
    }
}

/// A request line of either dialect, read and written again.
pub fn reread_request(line: &str) -> Result<String, ApiError> {
    ApiRequest::from_wire(line).map(|(envelope, request)| wire_line(envelope, &request))
}

/// The eval line around a machine: everything before its `config` member's
/// value, and everything after.
fn around_config() -> (String, String) {
    let cam = ArchConfig::three_bus_one_fu(RoutingTableKind::Cam);
    let line = ApiRequest::Eval(EvalSpec::new(cam)).to_json();
    let (head, rest) = line.split_once("\"config\":").expect("an eval line carries a config");
    let tail = &rest[rest.find(",\"rate\":").expect("and a rate after it")..];
    (format!("{head}\"config\":"), tail.to_owned())
}

/// `config` as the wire writes it: an eval line's `config` member.
pub fn machine_line(config: &ArchConfig) -> String {
    let line = ApiRequest::Eval(EvalSpec::new(config.clone())).to_json();
    let (head, tail) = around_config();
    line[head.len()..line.len() - tail.len()].to_owned()
}

/// A machine line read through `ArchConfig`'s codec, as an eval line's
/// `config` member.
pub fn read_machine(line: &str) -> Result<ArchConfig, ApiError> {
    let (head, tail) = around_config();
    match ApiRequest::from_json(&format!("{head}{line}{tail}"))? {
        ApiRequest::Eval(spec) => Ok(spec.config),
        other => panic!("an eval line read as {other:?}"),
    }
}

/// Positive normal floats and non-zero packet sizes: the domain
/// `validated_rate` admits.
fn rate(rng: &mut SplitMix64) -> LineRate {
    LineRate::new(1.0 + rng.next_f64() * 1e13, rng.range_inclusive(1, 65_535) as u32)
}

/// A reseeded builtin workload and fault plan, each half the time.
fn scenario(rng: &mut SplitMix64) -> (Option<Workload>, Option<FaultPlan>) {
    let workload = pick(rng, &Workload::builtin()).with_seed(rng.next_u64());
    let faults = FaultPlan { seed: rng.next_u64(), ..pick(rng, &FaultPlan::builtin()).1 };
    (rng.chance(0.5).then_some(workload), rng.chance(0.5).then_some(faults))
}

pub fn eval(rng: &mut SplitMix64) -> ApiRequest {
    let mut spec = EvalSpec::new(config(rng));
    spec.rate = rate(rng);
    spec.entries = rng.range_inclusive(1, 65_536) as usize;
    (spec.workload, spec.faults) = scenario(rng);
    if rng.below(4) == 0 {
        // An inline trace; its descriptor is the only workload it admits.
        let trace = TraceGen::generate(rng.next_u64(), 6, 3, 4);
        spec.workload = rng.chance(0.5).then(|| trace.descriptor());
        spec.trace = Some(Arc::new(trace));
    }
    ApiRequest::Eval(spec)
}

pub fn sweep(rng: &mut SplitMix64) -> ApiRequest {
    let some = |rng: &mut SplitMix64, hi: u64| -> Vec<u8> {
        (0..rng.range_inclusive(1, 3)).map(|_| rng.range_inclusive(1, hi) as u8).collect()
    };
    let (workload, faults) = scenario(rng);
    let spec = SweepSpec {
        buses: some(rng, 8),
        replication: some(rng, 4),
        kinds: (0..rng.range_inclusive(1, 4)).map(|_| config(rng).table).collect(),
        entries: rng.range_inclusive(1, 4096) as usize,
        workload,
        faults,
        ..SweepSpec::default()
    };
    // The retired `cores` axis's draw, kept so every later seeded line keeps its bytes.
    let _ = if rng.chance(0.5) { vec![1] } else { some(rng, 8) };
    let constraints = Constraints {
        max_power_w: (rng.next_f64() - 0.5) * 2e6,
        max_area_mm2: (rng.next_f64() - 0.5) * 2e6,
        max_scenario_drops: rng.chance(0.5).then(|| rng.next_u64()),
        max_unrecovered_faults: rng.chance(0.5).then(|| rng.next_u64()),
    };
    ApiRequest::Sweep { spec, rate: rate(rng), constraints }
}

/// Real response lines of every kind in both dialects: three simulated
/// reports (plain; with scenario and fault sections; one that could not be
/// simulated) and the small kinds built by hand.
pub fn response_lines() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| {
        let config = ArchConfig::three_bus_one_fu(RoutingTableKind::Cam);
        let cam = |entries| EvalRequest::new(config.clone()).entries(entries);
        let small = Workload::SteadyForward { seed: 3, ticks: 20, packets_per_tick: 4, entries: 8 };
        let plain = cam(8).run();
        let full = EvalRequest::new(config.clone())
            .entries(8)
            .workload(small)
            .faults(FaultPlan::storm())
            .run();
        let status = StatusInfo {
            in_flight: 1,
            queued: 0,
            max_pending: 4,
            draining: true,
            cache: CacheCounters { entries: 12, hits: u64::MAX, misses: 3 },
        };
        let label = full.config.label();
        let responses = [
            ApiResponse::EvalResult(Box::new(plain.clone())),
            ApiResponse::EvalResult(Box::new(full.clone())),
            ApiResponse::EvalResult(Box::new(cam(8193).run())),
            ApiResponse::SweepPoint { index: 1, total: 2, label, cache_hit: true, feasible: false },
            ApiResponse::SweepResult { admitted: vec![1, 0], reports: vec![plain, full] },
            ApiResponse::Status(status),
            ApiResponse::ShutdownAck { persisted: Some(12) },
            ApiResponse::ShutdownAck { persisted: None },
            ApiResponse::Error(ApiError::busy("4 of 4 job slots in use; \"retry\"\n")),
        ];
        let dialects = |r: &ApiResponse| [r.to_json(), r.to_json_v2(Some(9)), r.to_json_v2(None)];
        responses.iter().flat_map(dialects).collect()
    })
}

/// A machine of the shape the paper varies: 1–5 buses, 1–3 of each
/// replicable unit, 1–2 MMUs.
pub fn machine(rng: &mut SplitMix64) -> MachineConfig {
    let replication = rng.range_inclusive(1, 3) as u8;
    let mut m = MachineConfig::new(rng.range_inclusive(1, 5) as u8)
        .with_fu_count(FuKind::Mmu, rng.range_inclusive(1, 2) as u8);
    for kind in FuKind::REPLICABLE {
        m = m.with_fu_count(kind, replication);
    }
    m
}

/// A uniform port of some instance 0..=3 of `kind` whose direction passes
/// `dir`, named by its table index.
fn any_port(rng: &mut SplitMix64, kind: FuKind, dir: fn(PortDir) -> bool) -> PortRef {
    let ports: Vec<u8> =
        (0..kind.ports().len() as u8).filter(|&i| dir(kind.ports()[usize::from(i)].dir)).collect();
    PortRef { fu: FuRef::new(kind, rng.below(4) as u8), port: pick(rng, &ports) }
}

/// A move sequence drawn from the whole assembly grammar: any port of any
/// FU kind written, any readable port read, both by table index, on virtual
/// instances 0..=3; immediates small and wide; guards on any signal of
/// either polarity; labels defined between moves and at the end, referenced
/// by jumps and by ordinary moves, and sometimes never defined.
pub fn move_seq(rng: &mut SplitMix64) -> MoveSeq {
    let readable: Vec<FuKind> = FuKind::ALL
        .into_iter()
        .filter(|k| k.ports().iter().any(|p| matches!(p.dir, PortDir::Result | PortDir::Both)))
        .collect();
    let guarded: Vec<FuKind> = FuKind::ALL.into_iter().filter(|k| !k.guards().is_empty()).collect();
    let label = |rng: &mut SplitMix64| format!("l{}", rng.below(6));
    let mut seq = MoveSeq::new();
    for _ in 0..rng.range_inclusive(1, 40) {
        let name = label(rng);
        if rng.chance(0.15) && !seq.labels.contains_key(&name) {
            seq.define_label(name);
        }
        // Four registers shared by a quarter of the reads and writes keep
        // read-after-write, write-after-read and write-after-write pairs
        // common.
        let reg = |rng: &mut SplitMix64| PortRef {
            fu: FuRef::new(FuKind::Regs, 0),
            port: rng.below(4) as u8,
        };
        let dst = match rng.below(20) {
            0..=2 => PortRef::new(FuKind::Nc, 0, "pc"),
            3..=7 => reg(rng),
            _ => {
                let kind = pick(rng, &FuKind::ALL);
                any_port(rng, kind, |d| d != PortDir::Result)
            }
        };
        let src = match rng.below(5) {
            0 if rng.chance(0.5) => Source::Port(reg(rng)),
            0 | 1 => {
                let kind = pick(rng, &readable);
                Source::Port(any_port(rng, kind, |d| matches!(d, PortDir::Result | PortDir::Both)))
            }
            2 => Source::Imm(rng.below(16) as u32),
            3 => Source::Imm(rng.next_u32()),
            _ => Source::Label(label(rng)),
        };
        let mut mv = Move::new(src, dst);
        if rng.chance(0.3) {
            let kind = pick(rng, &guarded);
            mv.guard = Some(Guard {
                fu: FuRef::new(kind, rng.below(4) as u8),
                signal: rng.below(kind.guards().len() as u64) as u8,
                negate: rng.chance(0.5),
            });
        }
        seq.push(mv);
    }
    let name = label(rng);
    if rng.chance(0.3) && !seq.labels.contains_key(&name) {
        seq.define_label(name);
    }
    seq
}
