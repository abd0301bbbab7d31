//! What an evaluation's input costs to prepare, paid once per table size
//! instead of once per design point.
//!
//! Routes, measurement frames and the serialised table depend on the
//! table size (and, for the table, the organisation) — never on the machine
//! shape, the line rate or the CAM latency.  A 36-point sweep, the twelve
//! Table 1 cells and every [`EvalCache`](crate::EvalCache) miss at one size
//! therefore share one [`PreparedInput`], held in a small process-wide
//! memo with the same lifetime model as the compiled-program cache in
//! `taco_router::cycle`.

use std::sync::{Arc, Mutex, OnceLock};

use taco_ipv6::{Datagram, NextHeader};
use taco_router::cycle::{CycleRouter, TableImage};
use taco_router::layout::datagram_to_words;
use taco_router::microcode::MicrocodeOptions;
use taco_router::traffic::TrafficGen;
use taco_routing::{Route, SequentialTable, TableKind};
use taco_sim::SimError;

use crate::arch::ArchConfig;

/// Number of measurement datagrams per evaluation (amortises the once-off
/// envelope of a batch run).
const MEASURE_DATAGRAMS: usize = 8;

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

/// The measurement workload: every datagram's destination matches the entry
/// the sequential scan reaches *last*, so each organisation is charged its
/// worst case — the "required speed" of Table 1 must *guarantee* line rate,
/// not merely sustain it on friendly traffic.
fn measurement_datagrams(routes: &[Route]) -> Vec<Datagram> {
    let mut gen = TrafficGen::new(0x0DA7A, 4);
    let table = SequentialTable::from_routes(routes.iter().copied());
    let deepest = *table.entries().last().expect("non-empty table");
    (0..MEASURE_DATAGRAMS)
        .map(|_| {
            let dst = gen.addr_in(&deepest.prefix());
            Datagram::builder("2001:db8:ffff::1".parse().expect("valid"), dst)
                .hop_limit(64)
                .payload(NextHeader::Udp, vec![0u8; 32])
                .build()
        })
        .collect()
}

/// One measurement datagram as the router's data memory holds it: its wire
/// bytes packed into big-endian words, and its wire length.
pub(crate) type Frame = (Vec<u32>, usize);

/// Everything an evaluation at one table size needs before a machine shape
/// is chosen: the benchmark routes, the measurement datagrams packed into
/// frames, and — filled on first use per organisation — the serialised
/// table.  Immutable.
#[derive(Debug)]
pub(crate) struct PreparedInput {
    entries: usize,
    frames: Vec<Frame>,
    routes: Vec<Route>,
    images: [OnceLock<Result<TableImage, SimError>>; TableKind::ALL_KINDS.len()],
}

impl PreparedInput {
    fn new(entries: usize) -> Self {
        let routes = benchmark_routes(entries);
        PreparedInput {
            entries,
            frames: measurement_datagrams(&routes)
                .iter()
                .map(|d| (datagram_to_words(d), d.wire_len()))
                .collect(),
            routes,
            images: Default::default(),
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

    /// The measurement frames, in enqueue order.
    pub(crate) fn frames(&self) -> &[Frame] {
        &self.frames
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
        let kind = config.table;
        let at = TableKind::ALL_KINDS.iter().position(|k| *k == kind).expect("every kind listed");
        let image = self.images[at]
            .get_or_init(|| TableImage::new(kind, &self.routes, &MicrocodeOptions::default()));
        CycleRouter::from_image(&config.machine, image.as_ref().map_err(Clone::clone)?, rtu_latency)
    }
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
    fn the_frames_are_the_measurement_datagrams_packed() {
        use taco_routing::PortId;
        use taco_sim::NullTracer;

        let input = PreparedInput::new(40);
        let datagrams = measurement_datagrams(&input.routes);
        assert_eq!(input.frames().len(), MEASURE_DATAGRAMS);
        for (frame, d) in input.frames().iter().zip(&datagrams) {
            assert_eq!(frame, &(datagram_to_words(d), d.wire_len()));
        }
        // The microcode reads only header words, so a corrupt payload word
        // would move no cycle count: compare what the router forwards.
        for kind in TableKind::ALL_KINDS {
            let config = ArchConfig::three_bus_one_fu(kind);
            let mut framed = input.router(&config, 1).expect("builds");
            let (_, framed_stats) =
                crate::evaluate::measure(&mut framed, &input, None, &mut NullTracer).expect("runs");
            let mut batched = input.router(&config, 1).expect("builds");
            batched.enqueue_batch(datagrams.iter().map(|d| (PortId(0), d))).expect("fits");
            assert_eq!(framed_stats, batched.run(50_000_000).expect("runs"), "{kind}");
            let bytes = |router: &CycleRouter| -> Vec<(PortId, Vec<u8>)> {
                router.forwarded().iter().map(|(port, d)| (*port, d.to_bytes())).collect()
            };
            assert_eq!(bytes(&framed).len(), MEASURE_DATAGRAMS, "{kind}");
            assert_eq!(bytes(&framed), bytes(&batched), "{kind}");
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
