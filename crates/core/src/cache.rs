//! Memoisation of architecture evaluations.
//!
//! One [`EvalRequest::run`] call runs a cycle-accurate simulation, so
//! sweep throughput — not single-run accuracy — is what limits
//! design-space exploration at scale.  Every evaluation is a pure
//! function of its [`EvalRequest`]: the benchmark routes, the measurement
//! traffic, the simulator and the scenario engine are all deterministic.
//! That makes the result safely memoisable, and repeated points across
//! [`explore()`](crate::explorer::explore),
//! [`scaling_sweep()`](crate::explorer::scaling_sweep) and `taco-cli`'s
//! subcommands evaluate exactly once per process.
//!
//! The cache is a mutexed map, not a lock-free structure: the lock is held
//! only for lookups and inserts (microseconds), never across a simulation
//! (milliseconds to seconds), so contention is negligible next to the work
//! being saved.  Two threads racing on the *same* missing key may both
//! simulate it — the loser's insert simply overwrites with an identical
//! value, which is benign and keeps the hot path lock-free during compute.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use taco_workload::trace::trace_fnv1a64;
use taco_workload::{FaultPlan, Workload};

use crate::api::table::{record, Record};
use crate::api::EvalSpec;
use crate::arch::ArchConfig;
use crate::evaluate::{evaluate_request, EvalReport};
use crate::rate::LineRate;
use crate::request::EvalRequest;

/// Full evaluation key: the architecture instance, the routing-table size,
/// the line-rate target, the attached workload and the fault plan, if any.
/// The rate's `f64` component is keyed by bit pattern — line rates are
/// constructed from literals, not arithmetic, so bitwise equality is the
/// right notion here; workloads and fault plans are all-integer by design,
/// so they hash directly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct EvalKey {
    config: ArchConfig,
    entries: usize,
    rate_bits: u64,
    packet_bytes: u32,
    workload: Option<Workload>,
    faults: Option<FaultPlan>,
    /// Checksum of an attached flow trace's record body, `0` when the
    /// request carries none.  An explicit trace and the descriptor-driven
    /// regeneration of the *same* records hash differently here only if
    /// the bytes differ — which is exactly when the results may differ.
    trace_digest: u64,
}

impl EvalKey {
    fn new(request: &EvalRequest) -> Self {
        EvalKey {
            config: request.config.clone(),
            entries: request.entries,
            rate_bits: request.line_rate.bits_per_second.to_bits(),
            packet_bytes: request.line_rate.packet_bytes,
            workload: request.workload,
            faults: request.faults,
            trace_digest: request.flow_trace.as_ref().map_or(0, |t| t.digest()),
        }
    }

    /// Rebuilds the request this key was derived from (the key is a
    /// lossless projection of every field but the flow-trace records, kept
    /// only as their digest) — what snapshot persistence serialises.
    fn to_request(&self) -> EvalRequest {
        EvalRequest {
            config: self.config.clone(),
            line_rate: LineRate {
                bits_per_second: f64::from_bits(self.rate_bits),
                packet_bytes: self.packet_bytes,
            },
            entries: self.entries,
            workload: self.workload,
            faults: self.faults,
            flow_trace: None,
        }
    }
}

/// The snapshot format identifier (first header token).
const SNAPSHOT_MAGIC: &str = "taco-evalcache-snapshot";

/// The snapshot format version (second header token); bump on any change
/// to the entry schema so stale snapshots are discarded, not misread.
const SNAPSHOT_VERSION: &str = "v1";

/// One snapshot line: an evaluation's request beside its report.
struct SnapshotEntry {
    request: EvalSpec,
    report: EvalReport,
}

record!(SnapshotEntry as "snapshot entry" { request, report, });

/// Why a cache snapshot could not be written or read back.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file does not carry the snapshot header.
    MissingHeader,
    /// The snapshot was written by a different format version.
    VersionSkew {
        /// The version token the file carries.
        found: String,
    },
    /// The body does not match the recorded checksum (truncation,
    /// corruption, hand edit).
    ChecksumMismatch,
    /// One body entry failed to parse.
    Entry {
        /// 1-based line number in the snapshot file.
        line: usize,
        /// The parse failure.
        message: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::MissingHeader => {
                write!(f, "not a {SNAPSHOT_MAGIC} file (missing header)")
            }
            SnapshotError::VersionSkew { found } => {
                write!(f, "snapshot version {found:?} is not the supported {SNAPSHOT_VERSION:?}")
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot body fails its checksum"),
            SnapshotError::Entry { line, message } => {
                write!(f, "snapshot line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// What one [`EvalCache::save_snapshot`] call wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Report entries written to the file.
    pub persisted: u64,
    /// Cached reports with no wire form, skipped: reports carrying a
    /// [`sim_error`](EvalReport::sim_error) (one-way by design), machine
    /// configurations outside the wire-expressible family, and entries
    /// keyed to an explicit flow trace (the records are not persisted).
    pub skipped: u64,
}

/// A keyed memo of evaluation results, shareable across threads.
///
/// Most callers want [`EvalCache::global()`] — the process-wide instance
/// the sweep entry points use — but a fresh [`EvalCache::new()`] gives
/// tests and long-running services an isolated lifetime they control.
#[derive(Debug, Default)]
pub struct EvalCache {
    reports: Mutex<HashMap<EvalKey, EvalReport>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EvalCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        EvalCache::default()
    }

    /// The process-wide cache shared by [`explore()`](crate::explorer::explore),
    /// [`scaling_sweep()`](crate::explorer::scaling_sweep),
    /// [`table1()`](crate::table1::table1) and `taco-cli`'s subcommands.
    pub fn global() -> &'static EvalCache {
        static GLOBAL: OnceLock<EvalCache> = OnceLock::new();
        GLOBAL.get_or_init(EvalCache::new)
    }

    /// Memoised [`EvalRequest::run`]: returns the cached report for this
    /// exact request if one exists, otherwise evaluates (without holding
    /// the lock) and stores the result.
    pub fn evaluate(&self, request: &EvalRequest) -> EvalReport {
        self.evaluate_recorded(request).0
    }

    /// The cached report for this exact request, if present — the
    /// serving-layer fast path, answerable without occupying a worker.
    ///
    /// A hit increments the hit counter exactly as
    /// [`EvalCache::evaluate_recorded`] would; a miss counts nothing,
    /// because the caller is expected to follow up with
    /// `evaluate_recorded`, which records the miss when the simulation
    /// actually runs — so the counters add up identically whichever path
    /// answered.
    pub fn lookup_recorded(&self, request: &EvalRequest) -> Option<EvalReport> {
        let key = EvalKey::new(request);
        let report = self.reports.lock().expect("cache lock").get(&key).cloned()?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(report)
    }

    /// [`EvalCache::evaluate`], also reporting whether the result came from
    /// the cache (`true` = hit) — the flag sweep observers record.
    pub fn evaluate_recorded(&self, request: &EvalRequest) -> (EvalReport, bool) {
        let key = EvalKey::new(request);
        if let Some(report) = self.reports.lock().expect("cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (report.clone(), true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let report = evaluate_request(request);
        self.reports.lock().expect("cache lock").insert(key, report.clone());
        (report, false)
    }

    /// Lookups answered from the map since creation (or [`Self::reset_counters`]).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to simulate.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct points stored.
    pub fn len(&self) -> usize {
        self.reports.lock().expect("cache lock").len()
    }

    /// `true` if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every stored result (counters are kept; pair with
    /// [`Self::reset_counters`] for a full reset).
    pub fn clear(&self) {
        self.reports.lock().expect("cache lock").clear();
    }

    /// Zeroes the hit/miss counters.
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// Writes every cached report to `path` as a versioned, checksummed
    /// snapshot the daemon reloads on boot.
    ///
    /// Format: a `taco-evalcache-snapshot v1` header line, a
    /// `checksum <fnv1a64-hex>` line over the body (corruption detection —
    /// truncated writes, hand edits — not cryptographic integrity), then one
    /// `{"request":…,"report":…}` JSON line per entry (the wire codecs
    /// from [`crate::api`]), sorted so the file is byte-stable for a given
    /// cache content.  Reports with no wire form are skipped and counted
    /// (see [`SnapshotStats`]).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] if the file cannot be written.
    pub fn save_snapshot(&self, path: &Path) -> Result<SnapshotStats, SnapshotError> {
        let (content, stats) = self.to_snapshot_string();
        std::fs::write(path, content)?;
        Ok(stats)
    }

    /// The [`EvalCache::save_snapshot`] file content.  Byte-stable for a
    /// given cache content.
    fn to_snapshot_string(&self) -> (String, SnapshotStats) {
        let mut lines = Vec::new();
        let mut skipped = 0u64;
        {
            let reports = self.reports.lock().expect("cache lock");
            for (key, report) in reports.iter() {
                // Entries keyed to an explicit flow trace cannot be rebuilt
                // from the key alone (the records live outside the cache),
                // so they are process-local: skipped on export, recounted.
                let spec = if report.sim_error.is_none() && key.trace_digest == 0 {
                    EvalSpec::from_request(&key.to_request())
                } else {
                    None
                };
                match spec {
                    Some(request) => {
                        lines.push(SnapshotEntry { request, report: report.clone() }.encode())
                    }
                    None => skipped += 1,
                }
            }
        }
        lines.sort_unstable();
        let mut body = String::new();
        for line in &lines {
            body.push_str(line);
            body.push('\n');
        }
        let content = format!(
            "{SNAPSHOT_MAGIC} {SNAPSHOT_VERSION}\nchecksum {:016x}\n{body}",
            trace_fnv1a64(body.as_bytes())
        );
        (content, SnapshotStats { persisted: lines.len() as u64, skipped })
    }

    /// Loads a snapshot written by [`EvalCache::save_snapshot`], inserting
    /// its reports into this cache, and returns how many entries were
    /// loaded.
    ///
    /// Strict by design: a corrupt, truncated or version-skewed snapshot
    /// is rejected as a whole (the structured error says why) and the
    /// cache is left exactly as it was — callers warn and start cold, they
    /// never panic and never trust a half-read file.
    ///
    /// # Errors
    ///
    /// Every [`SnapshotError`] variant is reachable: IO failure, a foreign
    /// file, a version bump, a checksum mismatch, or an entry that fails
    /// the strict wire parse.
    pub fn load_snapshot(&self, path: &Path) -> Result<u64, SnapshotError> {
        let text = std::fs::read_to_string(path)?;
        self.load_snapshot_str(&text)
    }

    /// [`EvalCache::load_snapshot`] once the file is read: parses the whole
    /// text, then merges it.
    fn load_snapshot_str(&self, text: &str) -> Result<u64, SnapshotError> {
        let Some((header, rest)) = text.split_once('\n') else {
            return Err(SnapshotError::MissingHeader);
        };
        let Some((magic, version)) = header.split_once(' ') else {
            return Err(SnapshotError::MissingHeader);
        };
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::MissingHeader);
        }
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionSkew { found: version.to_owned() });
        }
        let Some((checksum_line, body)) = rest.split_once('\n') else {
            return Err(SnapshotError::MissingHeader);
        };
        let recorded = checksum_line
            .strip_prefix("checksum ")
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or(SnapshotError::MissingHeader)?;
        if trace_fnv1a64(body.as_bytes()) != recorded {
            return Err(SnapshotError::ChecksumMismatch);
        }
        // Parse the whole body before touching the cache: a bad entry must
        // not leave a half-loaded state behind.
        let mut entries = Vec::new();
        for (i, line) in body.lines().enumerate() {
            let file_line = i + 3;
            let entry = SnapshotEntry::decode(line)
                .and_then(|entry| Ok((EvalKey::new(&entry.request.to_request()?), entry.report)))
                .map_err(|e| SnapshotError::Entry { line: file_line, message: e.to_string() })?;
            entries.push(entry);
        }
        let count = entries.len() as u64;
        let mut reports = self.reports.lock().expect("cache lock");
        for (key, report) in entries {
            reports.insert(key, report);
        }
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::LineRate;
    use taco_routing::TableKind;

    fn request(config: ArchConfig, line_rate: LineRate, entries: usize) -> EvalRequest {
        EvalRequest::new(config).rate(line_rate).entries(entries)
    }

    #[test]
    fn hit_and_miss_counting() {
        let cache = EvalCache::new();
        let req = request(ArchConfig::three_bus_one_fu(TableKind::Cam), LineRate::TEN_GBE, 8);
        assert!(cache.is_empty());

        let (first, hit1) = cache.evaluate_recorded(&req);
        assert!(!hit1);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        let (second, hit2) = cache.evaluate_recorded(&req);
        assert!(hit2);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(first, second);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = EvalCache::new();
        let cam = ArchConfig::three_bus_one_fu(TableKind::Cam);
        let tree = ArchConfig::three_bus_one_fu(TableKind::BalancedTree);

        let a = cache.evaluate(&request(cam.clone(), LineRate::TEN_GBE, 8));
        let b = cache.evaluate(&request(tree, LineRate::TEN_GBE, 8));
        let c = cache.evaluate(&request(cam.clone(), LineRate::GIGE, 8));
        let d = cache.evaluate(&request(cam, LineRate::TEN_GBE, 16));
        assert_eq!(cache.misses(), 4, "four distinct points");
        assert_ne!(a.config, b.config);
        assert_ne!(a.line_rate, c.line_rate);
        assert_ne!(a.table_entries, d.table_entries);
    }

    #[test]
    fn workload_is_part_of_the_key() {
        use taco_workload::Workload;
        let cache = EvalCache::new();
        let base = request(ArchConfig::three_bus_one_fu(TableKind::Cam), LineRate::TEN_GBE, 8);
        let with_scenario = base.clone().workload(Workload::steady_forward());

        let plain = cache.evaluate(&base);
        let (scenario, hit) = cache.evaluate_recorded(&with_scenario);
        assert!(!hit, "a workload-carrying request is a distinct point");
        assert!(plain.scenario.is_none());
        assert!(scenario.scenario.is_some());
        assert_eq!(cache.misses(), 2);

        // Same workload again: now a hit.
        let (_, hit2) = cache.evaluate_recorded(&with_scenario);
        assert!(hit2);
    }

    #[test]
    fn fault_plan_is_part_of_the_key() {
        use taco_workload::{FaultPlan, Workload};
        let cache = EvalCache::new();
        let base = request(ArchConfig::three_bus_one_fu(TableKind::Cam), LineRate::TEN_GBE, 8)
            .workload(Workload::steady_forward());
        let faulted = base.clone().faults(FaultPlan::malformed());

        cache.evaluate(&base);
        let (report, hit) = cache.evaluate_recorded(&faulted);
        assert!(!hit, "a faulted request is a distinct point");
        assert!(report.scenario.and_then(|s| s.faults).is_some());
        assert_eq!(cache.misses(), 2);

        // A different seed is yet another point; the same plan hits.
        let reseeded = base.clone().faults(FaultPlan::malformed().with_seed(77));
        let (_, hit_reseeded) = cache.evaluate_recorded(&reseeded);
        assert!(!hit_reseeded);
        let (_, hit_same) = cache.evaluate_recorded(&faulted);
        assert!(hit_same);
    }

    #[test]
    fn trace_digest_is_part_of_the_key_and_snapshots_skip_it() {
        use std::sync::Arc;
        use taco_workload::TraceGen;
        let cache = EvalCache::new();
        let trace = Arc::new(TraceGen::generate(11, 20, 6, 8));
        let descriptor =
            request(ArchConfig::three_bus_one_fu(TableKind::Cam), LineRate::TEN_GBE, 8)
                .workload(trace.descriptor());
        let explicit = descriptor.clone().flow_trace(Arc::clone(&trace));

        // Same descriptor, but the explicit trace is keyed separately.
        cache.evaluate(&descriptor);
        let (_, hit) = cache.evaluate_recorded(&explicit);
        assert!(!hit, "an explicit trace is a distinct cache point");
        let (_, hit2) = cache.evaluate_recorded(&explicit);
        assert!(hit2, "the same trace digest hits");

        // Export skips the trace-keyed entry: its records cannot be rebuilt
        // from the key, so only the descriptor entry has a wire form.
        let (body, stats) = cache.to_snapshot_string();
        assert_eq!(stats, SnapshotStats { persisted: 1, skipped: 1 });
        let warm = EvalCache::new();
        assert_eq!(warm.load_snapshot_str(&body).expect("load"), 1);
        let (_, desc_hit) = warm.evaluate_recorded(&descriptor);
        assert!(desc_hit);
    }

    #[test]
    fn clear_and_reset() {
        let cache = EvalCache::new();
        let req = request(ArchConfig::three_bus_one_fu(TableKind::Cam), LineRate::TEN_GBE, 8);
        cache.evaluate(&req);
        cache.clear();
        assert!(cache.is_empty());
        cache.reset_counters();
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        // After clearing, the same point misses again.
        let (_, hit) = cache.evaluate_recorded(&req);
        assert!(!hit);
    }

    #[test]
    fn global_cache_is_one_instance() {
        let a = EvalCache::global() as *const EvalCache;
        let b = EvalCache::global() as *const EvalCache;
        assert_eq!(a, b);
    }

    #[test]
    fn lookup_counts_hits_but_never_misses() {
        let cache = EvalCache::new();
        let req = request(ArchConfig::three_bus_one_fu(TableKind::Cam), LineRate::TEN_GBE, 8);

        assert_eq!(cache.lookup_recorded(&req), None);
        assert_eq!((cache.hits(), cache.misses()), (0, 0), "a lookup miss counts nothing");

        let (stored, _) = cache.evaluate_recorded(&req);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        assert_eq!(cache.lookup_recorded(&req), Some(stored));
        assert_eq!((cache.hits(), cache.misses()), (1, 1), "a lookup hit counts as a hit");
    }

    #[test]
    fn snapshot_string_round_trips_without_the_filesystem() {
        let cache = EvalCache::new();
        let req = request(ArchConfig::three_bus_one_fu(TableKind::Cam), LineRate::TEN_GBE, 8);
        cache.evaluate(&req);

        let (body, stats) = cache.to_snapshot_string();
        assert_eq!(stats, SnapshotStats { persisted: 1, skipped: 0 });
        let warm = EvalCache::new();
        assert_eq!(warm.load_snapshot_str(&body).expect("load"), 1);
        let (_, hit) = warm.evaluate_recorded(&req);
        assert!(hit);

        // Merging is idempotent and additive.
        assert_eq!(warm.load_snapshot_str(&body).expect("reload"), 1);
        assert_eq!(warm.len(), 1);
        assert!(matches!(
            EvalCache::new().load_snapshot_str("junk"),
            Err(SnapshotError::MissingHeader)
        ));
    }

    fn temp_snapshot(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("taco-cache-test-{name}-{}.snap", std::process::id()))
    }

    #[test]
    fn snapshot_round_trips_and_is_byte_stable() {
        use taco_workload::Workload;
        let cache = EvalCache::new();
        let cam = request(ArchConfig::three_bus_one_fu(TableKind::Cam), LineRate::TEN_GBE, 8);
        let tree =
            request(ArchConfig::three_bus_one_fu(TableKind::BalancedTree), LineRate::GIGE, 8)
                .workload(Workload::steady_forward());
        cache.evaluate(&cam);
        cache.evaluate(&tree);

        let path = temp_snapshot("roundtrip");
        let stats = cache.save_snapshot(&path).expect("save");
        assert_eq!(stats, SnapshotStats { persisted: 2, skipped: 0 });
        let first = std::fs::read(&path).expect("read");
        cache.save_snapshot(&path).expect("save again");
        assert_eq!(first, std::fs::read(&path).expect("read"), "byte-stable");

        let warm = EvalCache::new();
        assert_eq!(warm.load_snapshot(&path).expect("load"), 2);
        let (report, hit) = warm.evaluate_recorded(&cam);
        assert!(hit, "loaded snapshot must answer the exact request");
        assert_eq!(report, cache.evaluate(&cam));
        let (_, hit) = warm.evaluate_recorded(&tree);
        assert!(hit);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_and_skewed_snapshots_are_structured_errors() {
        let cache = EvalCache::new();
        cache.evaluate(&request(
            ArchConfig::three_bus_one_fu(TableKind::Cam),
            LineRate::TEN_GBE,
            8,
        ));
        let path = temp_snapshot("corrupt");
        cache.save_snapshot(&path).expect("save");
        let good = std::fs::read_to_string(&path).expect("read");

        // Flip a body byte: checksum mismatch.
        std::fs::write(&path, good.replace("\"entries\":8", "\"entries\":9")).unwrap();
        assert!(matches!(
            EvalCache::new().load_snapshot(&path),
            Err(SnapshotError::ChecksumMismatch)
        ));

        // Bump the version: skew, reported with the found token.
        std::fs::write(&path, good.replace("snapshot v1", "snapshot v9")).unwrap();
        match EvalCache::new().load_snapshot(&path) {
            Err(SnapshotError::VersionSkew { found }) => assert_eq!(found, "v9"),
            other => panic!("expected version skew, got {other:?}"),
        }

        // A foreign file: missing header.
        std::fs::write(&path, "not a snapshot at all\n").unwrap();
        assert!(matches!(EvalCache::new().load_snapshot(&path), Err(SnapshotError::MissingHeader)));

        // A missing file: IO.
        let _ = std::fs::remove_file(&path);
        assert!(matches!(EvalCache::new().load_snapshot(&path), Err(SnapshotError::Io(_))));
    }

    #[test]
    fn bad_entries_reject_the_whole_snapshot() {
        let cache = EvalCache::new();
        cache.evaluate(&request(
            ArchConfig::three_bus_one_fu(TableKind::Cam),
            LineRate::TEN_GBE,
            8,
        ));
        let path = temp_snapshot("badentry");
        cache.save_snapshot(&path).expect("save");
        let good = std::fs::read_to_string(&path).expect("read");
        // Re-checksum a body whose entry is valid JSON but fails the strict
        // parse — an unknown field, or a machine in the retired nested
        // spelling, which has no table — and the load must fail atomically.
        let (header_and_sum, body) = good.split_once("\n").unwrap();
        let (_sum, body) = body.split_once('\n').unwrap();
        let flat = "{\"table\":\"cam\",\"buses\":3,\"replication\":1,\"memory_ports\":1}";
        let nested = format!("{{\"core\":{flat},\"cores\":2}}");
        for (bad_body, needle) in [
            (body.replacen("{\"request\":", "{\"zzz\":1,\"request\":", 1), "zzz"),
            (body.replace(flat, &nested), "missing field \"table\""),
        ] {
            assert_ne!(bad_body, body);
            let content = format!(
                "{header_and_sum}\nchecksum {:016x}\n{bad_body}",
                trace_fnv1a64(bad_body.as_bytes())
            );
            std::fs::write(&path, content).unwrap();
            let warm = EvalCache::new();
            match warm.load_snapshot(&path) {
                Err(SnapshotError::Entry { line, message }) => {
                    assert_eq!(line, 3);
                    assert!(message.contains(needle), "{message}");
                }
                other => panic!("expected entry error, got {other:?}"),
            }
            assert!(warm.is_empty(), "a rejected snapshot must not half-load");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn the_snapshot_entry_table_is_strict() {
        let cache = EvalCache::new();
        cache.evaluate(&request(
            ArchConfig::three_bus_one_fu(TableKind::Cam),
            LineRate::TEN_GBE,
            8,
        ));
        let (content, _) = cache.to_snapshot_string();
        let entry = content.lines().nth(2).expect("header, checksum, one entry");
        let members = crate::api::tests::table_grid(entry, |line| {
            SnapshotEntry::decode(line).map(|entry| entry.encode())
        });
        assert!(SnapshotEntry::MEMBERS.iter().all(|m| members.iter().any(|seen| seen == m)));
    }

    #[test]
    fn unrepresentable_reports_are_skipped_with_a_count() {
        use taco_isa::{FuKind, MachineConfig};
        let cache = EvalCache::new();
        cache.evaluate(&request(
            ArchConfig::three_bus_one_fu(TableKind::Cam),
            LineRate::TEN_GBE,
            8,
        ));
        // An asymmetric machine outside the wire-expressible family: its
        // report is skipped whether it simulated or died with a sim_error.
        let odd = ArchConfig::new(
            MachineConfig::three_bus_one_fu().with_fu_count(FuKind::Matcher, 2),
            TableKind::Cam,
        );
        cache.evaluate(&request(odd, LineRate::TEN_GBE, 8));

        let path = temp_snapshot("skips");
        let stats = cache.save_snapshot(&path).expect("save");
        assert_eq!(stats, SnapshotStats { persisted: 1, skipped: 1 });
        let warm = EvalCache::new();
        assert_eq!(warm.load_snapshot(&path).expect("load"), 1);
        let _ = std::fs::remove_file(&path);
    }
}
