//! What an evaluation's input costs to prepare, paid once per table size
//! instead of once per design point.
//!
//! Routes, measurement frames, the serialised table and its block profile
//! depend on the table size (and, for the table and its profile, the
//! organisation) — never on the machine shape, the line rate or the CAM
//! latency.  A 36-point sweep, the twelve Table 1 cells and every
//! [`EvalCache`](crate::EvalCache) miss at one size therefore share one
//! [`PreparedInput`], held in a small process-wide memo with the same
//! lifetime model as the compiled-program cache in `taco_router::cycle`.
//!
//! The measurement input is one datagram enqueued [`MEASURE_DATAGRAMS`]
//! times, to the entry the sequential scan reaches last through the
//! shortest verify: its screen pass stops in the last block, which verifies
//! one entry.  It is no kind's costliest path: at 100 entries a
//! destination that screen-matches the first entry and matches no route
//! costs 3.2–3.3× its sequential cycles, and sampled ones up to 1.2–1.4×
//! its tree and PATRICIA cycles.  A profile is recorded from an empty run
//! and a one-datagram run and extrapolated (the `price` module says why
//! that is exact).  For a sequential table the one-datagram run steps two
//! windows of the image: its words from the block where the screen pass
//! stops for the kept destination ([`TableImage::scan_stop`]) and from one
//! block earlier, counting every earlier block as the miss block the two
//! differ by.  Every evaluation prices its rounds from the profile, so
//! those short runs are the stepping an input's table pays: at 1 024
//! entries 1 + 58 + 74 cycles on the unfolded machine, where the whole
//! scan is 5 514.  A round the profile refuses, a fault plan that injects
//! stalls and a trace step all eight datagrams over the whole table again;
//! an input above the memo's size limit is not kept, so it records its
//! profiles again on every evaluation.
//!
//! A fresh size does each host-side step of its preparation once.  The
//! routes are drawn against a hash set, of which only `insert`'s answers
//! are read, so the routes do not depend on the hasher.  The measurement
//! datagram's target is picked from the routes by the sequential scan's
//! own key ([`SequentialTable::scanned_last`]) without building a table,
//! and the sequential image sorts the routes once, by that key.  A fresh
//! size compiles no microcode: every table of a kind runs its machine's one
//! template from the program cache in `taco_router::cycle`, a sequential
//! image with its two size immediates patched in, and the image keeps what
//! it was given per machine.  A patch copies no program: it rewrites the
//! two immediates in the decoded moves, which is all a priced evaluation
//! and a recording read.  What a fresh size still pays for is drawing the
//! routes, building and serialising the table, the recording's short runs
//! and copying the decoded moves of each program it patches (a sequential
//! window's too).
//!
//! Some tables cannot fit whatever the machine: a CAM table past the chip's
//! rows, a sequential image that leaves no room for the eight datagram
//! slots above it.  [`unfit`] works those out from the table size alone, so
//! such an evaluation is refused before an input is prepared for it.

use std::sync::{Arc, Mutex, OnceLock};

use taco_ipv6::{Datagram, Ipv6Address, Ipv6Header, NextHeader};
use taco_router::cycle::{check_fit, CycleRouter, TableImage};
use taco_router::layout::{datagram_to_words, SEQ_ENTRY_WORDS};
use taco_router::microcode::{padded_entries, MicrocodeOptions};
use taco_router::traffic::TrafficGen;
use taco_routing::cam::CamSpec;
use taco_routing::{Route, SequentialTable, TableKind};
use taco_sim::SimError;

use crate::arch::ArchConfig;
use crate::price::BlockProfile;

/// Number of measurement datagrams per evaluation (amortises the once-off
/// envelope of a batch run).
pub(crate) const MEASURE_DATAGRAMS: usize = 8;

/// UDP payload bytes of the measurement datagram.
const MEASURE_PAYLOAD_BYTES: usize = 32;

/// Words the measurement frame packs into, known before any input is
/// prepared: a fixed header and payload, whatever the destination.
const MEASURE_FRAME_WORDS: usize = (Ipv6Header::LEN + MEASURE_PAYLOAD_BYTES).div_ceil(4);

/// Prepared inputs the memo keeps, most recently used first.  A sweep or
/// Table 1 uses one size, the scaling ablations walk a handful in order, so
/// a few slots cover every caller; the constant bounds what the process
/// retains.
const MEMO_CAPACITY: usize = 4;

/// Largest table the memo retains.  Bigger inputs are prepared, used and
/// dropped, so a request for a huge table cannot pin its routes and images
/// in a long-lived daemon; no in-memory organisation fits 65 536 words of
/// data memory much past this anyway.
const MEMO_MAX_ENTRIES: usize = 2048;

/// Builds the deterministic benchmark routing table used by every
/// evaluation: `entries` prefixes of mixed length under a shared global
/// prefix (which is what makes the sequential screen pass earn its keep),
/// with no default route so misses are possible.
pub fn benchmark_routes(entries: usize) -> Vec<Route> {
    let mut gen = TrafficGen::new(0x7AC0, 4);
    gen.table(entries, false)
}

/// The measurement datagram, enqueued [`MEASURE_DATAGRAMS`] times: its
/// destination matches the entry the sequential scan reaches *last*,
/// through the shortest verify, so Table 1's "required speed" is this
/// datagram's, not each organisation's costliest path's (the module doc
/// gives the gap).  Eight copies of one datagram take eight times one
/// datagram's path, which is what lets a profile be recorded from one.
fn measurement_datagram(routes: &[Route]) -> Datagram {
    let mut gen = TrafficGen::new(0x0DA7A, 4);
    let deepest = SequentialTable::scanned_last(routes).expect("non-empty table");
    Datagram::builder("2001:db8:ffff::1".parse().expect("valid"), gen.addr_in(&deepest.prefix()))
        .hop_limit(64)
        .payload(NextHeader::Udp, vec![0u8; MEASURE_PAYLOAD_BYTES])
        .build()
}

/// The measurement datagram as the router's data memory holds it: its wire
/// bytes packed into big-endian words, and its wire length.
pub(crate) type Frame = (Vec<u32>, usize);

/// The error an evaluation of an `entries`-entry `kind` table ends in on
/// any machine, where the table size alone decides it: a CAM table past
/// the chip's rows ([`TableImage::new`]'s [`SimError::TableFull`]), or a
/// sequential image that, with the measurement slots above it, overruns
/// data memory ([`check_fit`]).  `None` where the table fits, and for the
/// tree and PATRICIA, whose image size depends on the routes' shape.
///
/// Exact because the benchmark routes are `entries` distinct prefixes, the
/// image is the first thing an evaluation builds and the generated
/// program compiles on every machine, so what fails first is the table.
pub(crate) fn unfit(kind: TableKind, entries: usize) -> Option<SimError> {
    match kind {
        TableKind::Cam => {
            let capacity = CamSpec::paper_default().capacity;
            (entries > capacity).then_some(SimError::TableFull { capacity })
        }
        TableKind::Sequential => {
            let padded = padded_entries(entries, MicrocodeOptions::default().unroll);
            let words = padded * SEQ_ENTRY_WORDS as usize;
            check_fit(words, MEASURE_DATAGRAMS, MEASURE_FRAME_WORDS).err()
        }
        TableKind::BalancedTree | TableKind::Patricia => None,
    }
}

/// Everything an evaluation at one table size needs before a machine shape
/// is chosen: the benchmark routes, the measurement datagram packed into a
/// frame, and — filled on first use per organisation — the serialised
/// table and its block profile.  Immutable.
#[derive(Debug)]
pub(crate) struct PreparedInput {
    entries: usize,
    /// The measurement datagram's destination, where a sequential scan's
    /// screen pass stops ([`TableImage::scan_stop`]).
    destination: Ipv6Address,
    frame: Frame,
    routes: Vec<Route>,
    images: [OnceLock<Result<TableImage, SimError>>; TableKind::ALL_KINDS.len()],
    profiles: [OnceLock<Option<BlockProfile>>; TableKind::ALL_KINDS.len()],
}

impl PreparedInput {
    fn new(entries: usize) -> Self {
        let routes = benchmark_routes(entries);
        let datagram = measurement_datagram(&routes);
        PreparedInput {
            entries,
            destination: datagram.header().dst,
            frame: (datagram_to_words(&datagram), datagram.wire_len()),
            routes,
            images: Default::default(),
            profiles: Default::default(),
        }
    }

    /// The shared input for `entries`-entry tables: the memoised copy when
    /// one exists, a fresh one (memoised if small enough) otherwise.
    /// Preparation runs outside the lock; racing threads may each prepare,
    /// and all end up holding whichever copy was stored first.
    pub(crate) fn shared(entries: usize) -> Arc<Self> {
        static MEMO: Mutex<Vec<Arc<PreparedInput>>> = Mutex::new(Vec::new());
        if entries > MEMO_MAX_ENTRIES {
            return Arc::new(Self::new(entries));
        }
        let find = |memo: &mut Vec<Arc<PreparedInput>>| {
            let at = memo.iter().position(|p| p.entries == entries)?;
            memo[..=at].rotate_right(1);
            Some(Arc::clone(&memo[0]))
        };
        if let Some(hit) = find(&mut MEMO.lock().expect("prepared-input memo poisoned")) {
            return hit;
        }
        let fresh = Arc::new(Self::new(entries));
        let mut memo = MEMO.lock().expect("prepared-input memo poisoned");
        find(&mut memo).unwrap_or_else(|| {
            memo.truncate(MEMO_CAPACITY - 1);
            memo.insert(0, Arc::clone(&fresh));
            fresh
        })
    }

    /// The measurement datagram's destination.
    pub(crate) fn destination(&self) -> Ipv6Address {
        self.destination
    }

    /// The measurement frame, enqueued [`MEASURE_DATAGRAMS`] times.
    pub(crate) fn frame(&self) -> &Frame {
        &self.frame
    }

    /// Builds the cycle router for `config` over this input's table, with
    /// `rtu_latency` for the CAM case.  A [`SimError`] means the generated
    /// microcode does not fit (or does not validate on) the configured
    /// machine, or the table does not fit data memory or the CAM — reported as
    /// structured infeasibility rather than a panic.
    pub(crate) fn router(
        &self,
        config: &ArchConfig,
        rtu_latency: u32,
    ) -> Result<CycleRouter, SimError> {
        CycleRouter::from_image(&config.machine, self.image(config.table)?, rtu_latency)
    }

    /// The serialised `kind` table over this input's routes, built on first
    /// use; [`SimError::TableFull`] when it does not fit the CAM.
    pub(crate) fn image(&self, kind: TableKind) -> Result<&TableImage, SimError> {
        self.images[slot(kind)]
            .get_or_init(|| TableImage::new(kind, &self.routes, &MicrocodeOptions::default()))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The `kind` table's block profile over this input, recorded on first
    /// use; `None` when the table does not step to the end on its unfolded
    /// machine.
    pub(crate) fn profile(&self, kind: TableKind) -> Option<&BlockProfile> {
        self.profiles[slot(kind)].get_or_init(|| BlockProfile::record(self, kind)).as_ref()
    }
}

/// Where `kind`'s image and profile sit in a [`PreparedInput`].
fn slot(kind: TableKind) -> usize {
    TableKind::ALL_KINDS.iter().position(|k| *k == kind).expect("every kind listed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_routes_deterministic_and_sized() {
        let a = benchmark_routes(50);
        let b = benchmark_routes(50);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
    }

    #[test]
    fn the_frame_is_the_measurement_datagram_packed() {
        use taco_routing::PortId;
        use taco_sim::NullTracer;

        let input = PreparedInput::new(40);
        let datagram = measurement_datagram(&input.routes);
        assert_eq!(input.frame(), &(datagram_to_words(&datagram), datagram.wire_len()));
        assert_eq!(input.frame().0.len(), MEASURE_FRAME_WORDS);
        // The microcode reads only header words, so a corrupt payload word
        // would move no cycle count: compare what the router forwards.
        for kind in TableKind::ALL_KINDS {
            let config = ArchConfig::three_bus_one_fu(kind);
            let mut framed = input.router(&config, 1).expect("builds");
            let (_, framed_stats) =
                crate::evaluate::measure(&mut framed, &input, None, &mut NullTracer).expect("runs");
            let mut batched = input.router(&config, 1).expect("builds");
            let batch = std::iter::repeat_n((PortId(0), &datagram), MEASURE_DATAGRAMS);
            batched.enqueue_batch(batch).expect("fits");
            assert_eq!(framed_stats, batched.run(50_000_000).expect("runs"), "{kind}");
            let bytes = |router: &CycleRouter| -> Vec<(PortId, Vec<u8>)> {
                router.forwarded().iter().map(|(port, d)| (*port, d.to_bytes())).collect()
            };
            assert_eq!(bytes(&framed).len(), MEASURE_DATAGRAMS, "{kind}");
            assert_eq!(bytes(&framed), bytes(&batched), "{kind}");
        }
    }

    #[test]
    fn the_measurement_datagram_targets_the_entry_the_scan_reaches_last() {
        let sizes =
            (1..=MEMO_MAX_ENTRIES + 1).step_by(23).chain([MEMO_MAX_ENTRIES, MEMO_MAX_ENTRIES + 1]);
        for entries in sizes {
            let routes = benchmark_routes(entries);
            // The reference: the table the scan walks, built whole.
            let table = SequentialTable::from_routes(routes.iter().copied());
            let last = *table.entries().last().expect("non-empty table");
            assert_eq!(SequentialTable::scanned_last(&routes), Some(last), "n={entries}");
            let dst = measurement_datagram(&routes).header().dst;
            assert!(last.prefix().contains(&dst), "n={entries}: {dst} outside {}", last.prefix());
        }
    }

    #[test]
    fn the_memo_shares_small_inputs_and_drops_large_ones() {
        let a = PreparedInput::shared(37);
        assert!(Arc::ptr_eq(&a, &PreparedInput::shared(37)));
        let big = PreparedInput::shared(MEMO_MAX_ENTRIES + 1);
        assert!(!Arc::ptr_eq(&big, &PreparedInput::shared(MEMO_MAX_ENTRIES + 1)));
        assert_eq!(big.routes.len(), MEMO_MAX_ENTRIES + 1);
    }
}
