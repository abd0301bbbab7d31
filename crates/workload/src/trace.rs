//! Binary flow traces and the empirical trace generator.
//!
//! A [`FlowTrace`] is a compact, versioned, checksummed recording of the
//! datagrams a scenario replays: fixed-width little-endian records (tick
//! offset, linecard, flow id, payload length, source and destination
//! address) behind an ASCII header carrying the generation parameters and
//! an FNV-1a checksum — the same header discipline as the `EvalCache`
//! snapshot format.  The reader is strict: a truncated body, a flipped
//! bit, a version skew or an out-of-range record surfaces as a structured
//! [`TraceFormatError`], never a panic and never a silently shortened
//! trace.
//!
//! [`TraceGen`] produces empirically shaped traces entirely in integers
//! (in-tree SplitMix64): heavy-tailed flow lengths, trimodal packet sizes
//! and prefix-local destination popularity, the IPv6 traffic shape
//! measured by Raicu's 2002 empirical IPv6 analysis.  The same
//! `(seed, ticks, flows, entries)` quadruple always regenerates the same
//! trace byte for byte, which is what lets [`Workload::TraceReplay`]
//! stay a compact hashable descriptor while still naming a concrete
//! packet sequence.

use std::fmt;
use std::path::Path;

use taco_ipv6::Ipv6Address;
use taco_router::traffic::{fill_host_bits, TrafficGen};
use taco_router::SplitMix64;
use taco_routing::Route;

use crate::scenario::{Workload, PORTS};

/// Magic first line of the binary format.
pub(crate) const TRACE_MAGIC: &str = "taco-flowtrace";

/// Current format version.
pub(crate) const TRACE_VERSION: u32 = 1;

/// Encoded size of one [`TraceRecord`], in bytes.
pub(crate) const RECORD_BYTES: usize = 44;

/// Largest payload a record may carry (jumbo-frame bound); anything
/// larger is a corrupt record, not a datagram.
pub(crate) const MAX_PAYLOAD: u16 = 9216;

/// Salt mixed into the trace seed to derive the routing table the trace's
/// destinations were drawn against.  Part of the format: replaying a
/// trace seeds the router from `(seed, entries)` through this salt, so
/// the file alone fully determines the run.
const TABLE_SALT: u64 = 0x7AC0_F10D;

/// One replayed datagram: arrival tick, arrival linecard, flow identity,
/// payload size and the address pair.  Encodes to `RECORD_BYTES`
/// little-endian bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Tick offset from the start of the measured window.
    pub tick: u32,
    /// Arrival linecard (must be `< PORTS`).
    pub linecard: u8,
    /// Payload bytes of the datagram (≤ `MAX_PAYLOAD`).
    pub payload_len: u16,
    /// Flow this datagram belongs to.
    pub flow_id: u32,
    /// Source address octets.
    pub src: [u8; 16],
    /// Destination address octets.
    pub dst: [u8; 16],
}

impl TraceRecord {
    /// Encodes the record to its fixed-width little-endian form.
    pub(crate) fn to_bytes(self) -> [u8; RECORD_BYTES] {
        let mut b = [0u8; RECORD_BYTES];
        b[0..4].copy_from_slice(&self.tick.to_le_bytes());
        b[4] = self.linecard;
        b[5] = 0; // pad, must stay zero
        b[6..8].copy_from_slice(&self.payload_len.to_le_bytes());
        b[8..12].copy_from_slice(&self.flow_id.to_le_bytes());
        b[12..28].copy_from_slice(&self.src);
        b[28..44].copy_from_slice(&self.dst);
        b
    }

    /// Decodes one record; `index` names the record in errors.
    fn from_bytes(b: &[u8; RECORD_BYTES], index: usize, ticks: u32) -> TraceResult<TraceRecord> {
        let bad = |message: String| TraceFormatError::BadRecord { index, message };
        if b[5] != 0 {
            return Err(bad(format!("pad byte is {:#04x}, must be zero", b[5])));
        }
        let record = TraceRecord {
            tick: u32::from_le_bytes(b[0..4].try_into().expect("4 bytes")),
            linecard: b[4],
            payload_len: u16::from_le_bytes(b[6..8].try_into().expect("2 bytes")),
            flow_id: u32::from_le_bytes(b[8..12].try_into().expect("4 bytes")),
            src: b[12..28].try_into().expect("16 bytes"),
            dst: b[28..44].try_into().expect("16 bytes"),
        };
        if record.tick >= ticks {
            return Err(bad(format!("tick {} beyond the trace horizon {ticks}", record.tick)));
        }
        if u16::from(record.linecard) >= PORTS {
            return Err(bad(format!("linecard {} out of range 0..{PORTS}", record.linecard)));
        }
        if record.payload_len > MAX_PAYLOAD {
            return Err(bad(format!(
                "payload length {} exceeds the jumbo bound {MAX_PAYLOAD}",
                record.payload_len
            )));
        }
        Ok(record)
    }
}

/// What a strict trace read can reject.  Every variant names the problem
/// precisely enough to act on; none of them panic.
#[derive(Debug)]
pub enum TraceFormatError {
    /// The underlying file could not be read or written.
    Io(std::io::Error),
    /// The first line is not a `taco-flowtrace` header at all.
    MissingHeader,
    /// A `taco-flowtrace` header of a different version.
    VersionSkew {
        /// The version line actually found.
        found: String,
    },
    /// A malformed header parameter line.
    BadHeader {
        /// What was wrong.
        message: String,
    },
    /// The body checksum does not match the header's.
    ChecksumMismatch {
        /// Checksum declared in the header.
        expected: u64,
        /// Checksum computed over the body.
        found: u64,
    },
    /// The body is shorter or longer than `records` declares.
    Truncated {
        /// Body bytes the header promised.
        expected: usize,
        /// Body bytes actually present.
        found: usize,
    },
    /// A record decoded to an impossible value.
    BadRecord {
        /// Zero-based record index.
        index: usize,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for TraceFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFormatError::Io(e) => write!(f, "trace io error: {e}"),
            TraceFormatError::MissingHeader => {
                write!(f, "not a {TRACE_MAGIC} file (missing header)")
            }
            TraceFormatError::VersionSkew { found } => {
                write!(
                    f,
                    "trace version skew: found {found:?}, want \"{TRACE_MAGIC} v{TRACE_VERSION}\""
                )
            }
            TraceFormatError::BadHeader { message } => write!(f, "bad trace header: {message}"),
            TraceFormatError::ChecksumMismatch { expected, found } => write!(
                f,
                "trace checksum mismatch: header says {expected:016x}, body is {found:016x}"
            ),
            TraceFormatError::Truncated { expected, found } => {
                write!(f, "trace body truncated: expected {expected} bytes, found {found}")
            }
            TraceFormatError::BadRecord { index, message } => {
                write!(f, "bad trace record {index}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceFormatError {}

impl From<std::io::Error> for TraceFormatError {
    fn from(e: std::io::Error) -> Self {
        TraceFormatError::Io(e)
    }
}

/// Shorthand for trace operations.
pub(crate) type TraceResult<T> = Result<T, TraceFormatError>;

/// FNV-1a 64-bit over `bytes` — the checksum and digest function of the
/// trace format, and the `EvalCache` snapshot's checksum.
pub fn trace_fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// A complete flow trace: the generation parameters (which double as the
/// compact [`Workload::TraceReplay`] descriptor) and the record sequence,
/// sorted by tick.  The digest is FNV-1a over the encoded record bytes
/// and keys evaluation caches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowTrace {
    /// Seed the trace was generated from (and the routing-table seed).
    pub seed: u64,
    /// Tick horizon: every record's tick is `< ticks`.
    pub ticks: u32,
    /// Flow count the generator was asked for.
    pub flows: u32,
    /// Routing-table size the destinations were drawn against.
    pub entries: u32,
    records: Vec<TraceRecord>,
    digest: u64,
}

impl FlowTrace {
    /// The records, sorted by tick.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// FNV-1a digest over the encoded record bytes — the value cache keys
    /// carry.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The compact workload descriptor naming this trace's parameters.
    pub fn descriptor(&self) -> Workload {
        Workload::TraceReplay {
            seed: self.seed,
            ticks: self.ticks,
            flows: self.flows,
            entries: self.entries,
        }
    }

    /// The routing table this trace's destinations were drawn against —
    /// replay seeds the router with exactly this table.
    pub(crate) fn table(&self) -> Vec<Route> {
        trace_table(self.seed, self.entries)
    }

    /// Serialises header plus body to the versioned binary form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let body: Vec<u8> = self.records.iter().flat_map(|r| r.to_bytes()).collect();
        let mut out = format!(
            "{TRACE_MAGIC} v{TRACE_VERSION}\nseed {}\nticks {}\nflows {}\nentries {}\n\
             records {}\nchecksum {:016x}\n",
            self.seed,
            self.ticks,
            self.flows,
            self.entries,
            self.records.len(),
            trace_fnv1a64(&body),
        )
        .into_bytes();
        out.extend_from_slice(&body);
        out
    }

    /// Strictly parses the binary form: header, version, checksum, exact
    /// body length, then every record's ranges.  All-or-nothing.
    pub fn from_bytes(bytes: &[u8]) -> TraceResult<FlowTrace> {
        let mut offset = 0usize;
        let mut line = |what: &str| -> TraceResult<&str> {
            let rest = &bytes[offset.min(bytes.len())..];
            let end = rest.iter().position(|&b| b == b'\n').ok_or_else(|| {
                TraceFormatError::BadHeader {
                    message: format!("{what} line missing (header cut short)"),
                }
            })?;
            let s = std::str::from_utf8(&rest[..end]).map_err(|_| TraceFormatError::BadHeader {
                message: format!("{what} line is not UTF-8"),
            })?;
            offset += end + 1;
            Ok(s)
        };
        let magic = match line("magic") {
            Ok(s) => s.to_owned(),
            Err(_) => return Err(TraceFormatError::MissingHeader),
        };
        if magic != format!("{TRACE_MAGIC} v{TRACE_VERSION}") {
            if magic.starts_with(TRACE_MAGIC) {
                return Err(TraceFormatError::VersionSkew { found: magic });
            }
            return Err(TraceFormatError::MissingHeader);
        }
        let mut field = |key: &'static str| -> TraceResult<u64> {
            let l = line(key)?;
            let value = l.strip_prefix(key).and_then(|v| v.strip_prefix(' ')).ok_or_else(|| {
                TraceFormatError::BadHeader {
                    message: format!("expected \"{key} <n>\", got {l:?}"),
                }
            })?;
            value.parse().map_err(|_| TraceFormatError::BadHeader {
                message: format!("{key} value {value:?} is not an integer"),
            })
        };
        let seed = field("seed")?;
        let ticks = u32::try_from(field("ticks")?)
            .map_err(|_| TraceFormatError::BadHeader { message: "ticks overflows u32".into() })?;
        let flows = u32::try_from(field("flows")?)
            .map_err(|_| TraceFormatError::BadHeader { message: "flows overflows u32".into() })?;
        let entries = u32::try_from(field("entries")?)
            .map_err(|_| TraceFormatError::BadHeader { message: "entries overflows u32".into() })?;
        let count = usize::try_from(field("records")?).map_err(|_| {
            TraceFormatError::BadHeader { message: "records overflows usize".into() }
        })?;
        let checksum_line = line("checksum")?;
        let checksum_hex =
            checksum_line.strip_prefix("checksum ").ok_or_else(|| TraceFormatError::BadHeader {
                message: format!("expected \"checksum <hex>\", got {checksum_line:?}"),
            })?;
        let expected = u64::from_str_radix(checksum_hex, 16).map_err(|_| {
            TraceFormatError::BadHeader { message: format!("checksum {checksum_hex:?} is not hex") }
        })?;

        let body = &bytes[offset..];
        let want = count.checked_mul(RECORD_BYTES).ok_or(TraceFormatError::BadHeader {
            message: "record count overflows the body size".into(),
        })?;
        if body.len() != want {
            return Err(TraceFormatError::Truncated { expected: want, found: body.len() });
        }
        let found = trace_fnv1a64(body);
        if found != expected {
            return Err(TraceFormatError::ChecksumMismatch { expected, found });
        }
        let mut records = Vec::with_capacity(count);
        for (i, chunk) in body.chunks_exact(RECORD_BYTES).enumerate() {
            records.push(TraceRecord::from_bytes(
                chunk.try_into().expect("exact chunk"),
                i,
                ticks,
            )?);
        }
        records.sort_by_key(|r| r.tick);
        let sorted_body: Vec<u8> = records.iter().flat_map(|r| r.to_bytes()).collect();
        let digest = trace_fnv1a64(&sorted_body);
        Ok(FlowTrace { seed, ticks, flows, entries, records, digest })
    }

    /// Writes the binary form to `path`.
    pub fn write(&self, path: &Path) -> TraceResult<()> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads and strictly parses the binary form from `path`.
    pub fn read(path: &Path) -> TraceResult<FlowTrace> {
        FlowTrace::from_bytes(&std::fs::read(path)?)
    }
}

/// The routing table a trace's destinations were drawn against: derived
/// from `(seed, entries)` through [`TABLE_SALT`], so the trace file alone
/// (whose header carries both) fully determines the replay.
pub(crate) fn trace_table(seed: u64, entries: u32) -> Vec<Route> {
    TrafficGen::new(seed ^ TABLE_SALT, PORTS).table(entries as usize, false)
}

/// Seeded generator of empirically shaped flow traces (Raicu 2002 IPv6
/// measurement shapes, all-integer):
///
/// * **heavy-tailed flow lengths** — a discrete Pareto over octaves
///   (`P(length octave k) = 2^-(k+1)`), so a few elephant flows carry
///   most packets while mice dominate the flow count;
/// * **trimodal packet sizes** — ~55% small (ack-sized), ~25% medium
///   (576-byte legacy MTU), ~20% large (1280-byte IPv6 minimum MTU),
///   with small jitter inside each mode;
/// * **prefix-local destination popularity** — a Zipf-ish draw over the
///   derived routing table, so popular prefixes dominate while ~10% of
///   flows deliberately miss the table.
pub struct TraceGen {
    rng: SplitMix64,
}

/// Per-mille probability a flow's destination hits the routing table.
const HIT_MILLE: u64 = 900;

/// Octave cap for flow lengths (longest flow < `2^11` packets before the
/// horizon truncates it).
const FLOW_OCTAVES: u32 = 10;

/// The longest flow [`TraceGen`] draws, in packets, before the horizon
/// truncates it — what bounds the records a descriptor can ask for.
pub const MAX_FLOW_LEN: u32 = (2 << FLOW_OCTAVES) - 1;

impl TraceGen {
    /// A generator over `seed`'s stream.
    pub(crate) fn new(seed: u64) -> Self {
        TraceGen { rng: SplitMix64::new(seed) }
    }

    /// Generates the canonical trace for a descriptor quadruple; the same
    /// inputs always produce the identical trace (and digest).
    pub fn generate(seed: u64, ticks: u32, flows: u32, entries: u32) -> FlowTrace {
        let mut g = TraceGen::new(seed);
        let routes = trace_table(seed, entries);
        let mut records = Vec::new();
        for flow_id in 0..flows {
            let start = if ticks > 0 { g.rng.below(u64::from(ticks)) as u32 } else { 0 };
            let len = g.flow_len();
            let linecard = g.rng.below(u64::from(PORTS)) as u8;
            let src = g.src_addr();
            let dst = g.destination(&routes).octets();
            for i in 0..len {
                let tick = start.saturating_add(i);
                if tick >= ticks {
                    break; // the horizon truncates elephant flows
                }
                records.push(TraceRecord {
                    tick,
                    linecard,
                    payload_len: g.payload_len(),
                    flow_id,
                    src,
                    dst,
                });
            }
        }
        records.sort_by_key(|r| r.tick);
        let body: Vec<u8> = records.iter().flat_map(|r| r.to_bytes()).collect();
        let digest = trace_fnv1a64(&body);
        FlowTrace { seed, ticks, flows, entries, records, digest }
    }

    /// Heavy-tailed flow length: octave from the geometric trailing-zero
    /// draw, jittered uniformly within the octave.
    fn flow_len(&mut self) -> u32 {
        let octave = self.rng.next_u64().trailing_zeros().min(FLOW_OCTAVES);
        let base = 1u32 << octave;
        base + self.rng.below(u64::from(base)) as u32
    }

    /// Trimodal payload size in bytes.
    fn payload_len(&mut self) -> u16 {
        let roll = self.rng.below(1000);
        if roll < 550 {
            40 + self.rng.below(32) as u16 // ack-sized
        } else if roll < 800 {
            536 + self.rng.below(64) as u16 // 576-byte legacy mode
        } else {
            1232 + self.rng.below(48) as u16 // IPv6 minimum-MTU mode
        }
    }

    /// A stable per-flow source: random global unicast.
    fn src_addr(&mut self) -> [u8; 16] {
        let mut octets = [0u8; 16];
        self.rng.fill_bytes(&mut octets);
        octets[0] = 0x20 | (octets[0] & 0x0f);
        octets
    }

    /// A Zipf-ish popular destination: the candidate span halves per coin
    /// flip, so low-index prefixes dominate; ~10% of flows miss the table
    /// entirely (an unrouted `4000::/4` address).
    fn destination(&mut self, routes: &[Route]) -> Ipv6Address {
        if routes.is_empty() || self.rng.below(1000) >= HIT_MILLE {
            let mut octets = [0u8; 16];
            self.rng.fill_bytes(&mut octets);
            octets[0] = 0x40 | (octets[0] & 0x0f);
            return Ipv6Address::new(octets);
        }
        let mut span = routes.len();
        while span > 1 && self.rng.below(2) == 0 {
            span = span.div_ceil(2);
        }
        let prefix = routes[self.rng.below(span as u64) as usize].prefix();
        fill_host_bits(&mut self.rng, &prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> FlowTrace {
        TraceGen::generate(7, 120, 48, 40)
    }

    /// `TraceGen::destination` as it was before `fill_host_bits`: one
    /// `below(2) == 0` coin per host bit, written with `with_bit`.
    fn destination_reference(rng: &mut SplitMix64, routes: &[Route]) -> Ipv6Address {
        if routes.is_empty() || rng.below(1000) >= HIT_MILLE {
            let mut octets = [0u8; 16];
            rng.fill_bytes(&mut octets);
            octets[0] = 0x40 | (octets[0] & 0x0f);
            return Ipv6Address::new(octets);
        }
        let mut span = routes.len();
        while span > 1 && rng.below(2) == 0 {
            span = span.div_ceil(2);
        }
        let prefix = routes[rng.below(span as u64) as usize].prefix();
        let mut addr = prefix.addr();
        for bit in prefix.len()..128 {
            addr = addr.with_bit(bit, rng.below(2) == 0);
        }
        addr
    }

    #[test]
    fn destination_draws_the_per_bit_loops_stream() {
        // Every prefix length the host-bit draw can meet, /0 and /128
        // (no draw) included, so hits exercise each mask.
        let mut tables = vec![trace_table(5, 40)];
        tables.push(
            (0..=128u8)
                .map(|len| {
                    let addr = Ipv6Address::new([0xa5; 16]);
                    let prefix = taco_ipv6::Ipv6Prefix::new(addr, len).unwrap();
                    Route::new(prefix, Ipv6Address::LOOPBACK, taco_routing::PortId(0), 1)
                })
                .collect(),
        );
        for routes in &tables {
            for seed in 0..32u64 {
                let mut g = TraceGen::new(seed);
                let mut reference = g.rng.clone();
                for draw in 0..64 {
                    let want = destination_reference(&mut reference, routes);
                    assert_eq!(g.destination(routes), want, "seed {seed}, draw {draw}");
                    assert_eq!(g.rng, reference, "seed {seed}, draw {draw}: the stream moved");
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic_and_sorted() {
        let a = reference();
        let b = reference();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert!(!a.records().is_empty());
        assert!(a.records().windows(2).all(|w| w[0].tick <= w[1].tick));
        assert!(a.records().iter().all(|r| r.tick < a.ticks));
        let c = TraceGen::generate(8, 120, 48, 40);
        assert_ne!(a.digest(), c.digest(), "the seed drives the stream");
    }

    #[test]
    fn shapes_are_empirical() {
        let t = TraceGen::generate(3, 400, 256, 60);
        // Trimodal sizes: every mode is populated.
        let small = t.records().iter().filter(|r| r.payload_len < 128).count();
        let medium = t.records().iter().filter(|r| (128..=768).contains(&r.payload_len)).count();
        let large = t.records().iter().filter(|r| r.payload_len > 768).count();
        assert!(small > 0 && medium > 0 && large > 0, "{small}/{medium}/{large}");
        assert!(small > large, "small packets must dominate: {small} vs {large}");
        // Heavy tail: some flow is much longer than the median flow.
        let mut by_flow = std::collections::BTreeMap::new();
        for r in t.records() {
            *by_flow.entry(r.flow_id).or_insert(0u32) += 1;
        }
        let max = by_flow.values().copied().max().unwrap();
        let mut lens: Vec<u32> = by_flow.values().copied().collect();
        lens.sort_unstable();
        let median = lens[lens.len() / 2];
        assert!(max >= median * 8, "no elephants: max {max}, median {median}");
        // Prefix-local popularity: flows concentrate on the low-index
        // routes far beyond a uniform draw (~4 flows/route here).
        let routes = trace_table(3, 60);
        let mut flow_dst = std::collections::BTreeMap::new();
        for r in t.records() {
            flow_dst.entry(r.flow_id).or_insert(Ipv6Address::new(r.dst));
        }
        let mut per_route = vec![0u32; routes.len()];
        for dst in flow_dst.values() {
            if let Some(i) = routes.iter().position(|r| r.prefix().contains(dst)) {
                per_route[i] += 1;
            }
        }
        let top = per_route.iter().copied().max().unwrap();
        assert!(top >= 8, "no prefix popularity: top route saw only {top} flows");
    }

    #[test]
    fn binary_round_trip_preserves_everything() {
        let t = reference();
        let bytes = t.to_bytes();
        let back = FlowTrace::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, t);
        assert_eq!(back.digest(), t.digest());
        assert_eq!(back.descriptor(), t.descriptor());
    }

    #[test]
    fn file_round_trip() {
        let t = reference();
        let dir = std::env::temp_dir().join("taco-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.trace");
        t.write(&path).expect("write");
        let back = FlowTrace::read(&path).expect("read");
        std::fs::remove_file(&path).ok();
        assert_eq!(back, t);
    }

    #[test]
    fn truncated_body_is_rejected() {
        let bytes = reference().to_bytes();
        let cut = &bytes[..bytes.len() - 7];
        match FlowTrace::from_bytes(cut) {
            Err(TraceFormatError::Truncated { expected, found }) => {
                assert!(found < expected);
            }
            other => panic!("want Truncated, got {other:?}"),
        }
        // Trailing garbage is just as truncated (in the other direction).
        let mut long = bytes.clone();
        long.extend_from_slice(&[0u8; 3]);
        assert!(matches!(FlowTrace::from_bytes(&long), Err(TraceFormatError::Truncated { .. })));
    }

    #[test]
    fn corrupt_body_is_rejected() {
        let mut bytes = reference().to_bytes();
        let n = bytes.len();
        bytes[n - 1] ^= 0x40; // flip a bit deep in the body
        assert!(matches!(
            FlowTrace::from_bytes(&bytes),
            Err(TraceFormatError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn version_skew_and_missing_header_are_distinct() {
        let good = reference().to_bytes();
        let skew =
            String::from_utf8_lossy(&good).replacen("taco-flowtrace v1", "taco-flowtrace v9", 1);
        assert!(matches!(
            FlowTrace::from_bytes(skew.as_bytes()),
            Err(TraceFormatError::VersionSkew { .. })
        ));
        assert!(matches!(
            FlowTrace::from_bytes(b"not a trace at all\n"),
            Err(TraceFormatError::MissingHeader)
        ));
        assert!(matches!(FlowTrace::from_bytes(b""), Err(TraceFormatError::MissingHeader)));
    }

    #[test]
    fn bad_records_are_rejected_with_their_index() {
        let t = reference();
        // An out-of-range linecard.
        let mut records: Vec<TraceRecord> = t.records().to_vec();
        records[3].linecard = 200;
        match reparse(&t, records) {
            Err(TraceFormatError::BadRecord { message, .. }) => {
                assert!(message.contains("linecard"), "{message}");
            }
            other => panic!("want BadRecord, got {other:?}"),
        }
        // A tick beyond the horizon.
        let mut records: Vec<TraceRecord> = t.records().to_vec();
        records[0].tick = t.ticks + 5;
        assert!(matches!(reparse(&t, records), Err(TraceFormatError::BadRecord { .. })));
        // A corrupt pad byte in the raw bytes.
        let mut bytes = t.to_bytes();
        let body_start = bytes.len() - t.records().len() * RECORD_BYTES;
        bytes[body_start + 5] = 1; // record 0's pad
                                   // Fix the checksum so the pad check (not the checksum) fires.
        let sum = trace_fnv1a64(&bytes[body_start..]);
        let header = String::from_utf8_lossy(&bytes[..body_start]).into_owned();
        let fixed = regex_free_checksum_swap(&header, sum);
        let mut patched = fixed.into_bytes();
        patched.extend_from_slice(&bytes[body_start..]);
        match FlowTrace::from_bytes(&patched) {
            Err(TraceFormatError::BadRecord { index, message }) => {
                assert_eq!(index, 0);
                assert!(message.contains("pad"), "{message}");
            }
            other => panic!("want BadRecord, got {other:?}"),
        }
    }

    /// `t`'s header over `records`, through the binary writer and reader.
    fn reparse(t: &FlowTrace, records: Vec<TraceRecord>) -> TraceResult<FlowTrace> {
        FlowTrace::from_bytes(&FlowTrace { records, ..t.clone() }.to_bytes())
    }

    /// Replaces the checksum line's value without a regex dependency.
    fn regex_free_checksum_swap(header: &str, sum: u64) -> String {
        let mut out = String::new();
        for line in header.lines() {
            if line.starts_with("checksum ") {
                out.push_str(&format!("checksum {sum:016x}"));
            } else {
                out.push_str(line);
            }
            out.push('\n');
        }
        out
    }

    #[test]
    fn table_is_derived_from_the_header() {
        let t = reference();
        assert_eq!(t.table(), trace_table(t.seed, t.entries));
        assert_eq!(t.table().len(), t.entries as usize);
    }
}
