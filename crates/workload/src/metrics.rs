//! Scenario measurement records.
//!
//! Every field is an integer so that a [`ScenarioMetrics`] serialises to
//! byte-identical JSON on every run with the same seed — the determinism
//! contract the parallel-equivalence tests pin down.  Rates that would
//! naturally be fractional are carried in thousandths (`*_milli`).

use std::fmt::Write as _;

use taco_routing::TableKind;
use taco_sim::CoherenceStats;

/// Number of latency buckets: bucket 0 holds zero-tick latencies, bucket
/// `i ≥ 1` holds latencies in `[2^(i-1), 2^i)` ticks, and the last bucket
/// saturates.
pub const LATENCY_BUCKETS: usize = 16;

/// A fixed power-of-two-bucket latency histogram (latencies in ticks).
///
/// # Examples
///
/// ```
/// use taco_workload::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// h.record(0);
/// h.record(3);
/// h.record(3);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.max(), 3);
/// assert_eq!(h.buckets()[0], 1); // the zero-latency sample
/// assert_eq!(h.buckets()[2], 2); // [2, 4)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
    total: u64,
    max: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reassembles a histogram from its serialised integer parts (the
    /// non-derived fields of the JSON record) — the wire layer's inverse
    /// of serialisation.  The count, percentiles and the mean are derived,
    /// so a reassembled histogram reproduces them exactly.
    pub fn from_parts(buckets: [u64; LATENCY_BUCKETS], total_ticks: u64, max: u64) -> Self {
        LatencyHistogram { buckets, total: total_ticks, max }
    }

    /// Folds another histogram into this one, as if every sample of
    /// `other` had been recorded here — how per-thread load-generator
    /// histograms combine into one fleet-wide distribution without
    /// cross-thread locking on the record path.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.total = self.total.saturating_add(other.total);
        self.max = self.max.max(other.max);
    }

    /// Records one sample of `ticks` latency.
    pub fn record(&mut self, ticks: u64) {
        let idx = match ticks {
            0 => 0,
            t => ((64 - t.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1),
        };
        self.buckets[idx] += 1;
        self.total = self.total.saturating_add(ticks);
        self.max = self.max.max(ticks);
    }

    /// Per-bucket counts.
    pub fn buckets(&self) -> &[u64; LATENCY_BUCKETS] {
        &self.buckets
    }

    /// Number of samples: the sum of the buckets, saturating.
    pub fn count(&self) -> u64 {
        self.buckets.iter().fold(0, |sum, b| sum.saturating_add(*b))
    }

    /// Largest sample seen.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean latency in milli-ticks (`total * 1000 / count`, 0 when empty).
    ///
    /// Computed in `u128` so a long fault-storm run whose tick total
    /// approaches `u64::MAX / 1000` cannot overflow (the old raw-`u64`
    /// multiply panicked in debug builds); a mean beyond `u64::MAX`
    /// saturates.
    pub fn mean_milli(&self) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let mean = u128::from(self.total) * 1000 / u128::from(count);
        u64::try_from(mean).unwrap_or(u64::MAX)
    }

    /// The `p`-th percentile as an all-integer upper bound: the smallest
    /// bucket boundary `B` such that at least `p`% of samples are ≤ `B`
    /// (capped at [`max`](Self::max), which the saturated last bucket and
    /// singleton buckets would otherwise overshoot).  Zero when empty.
    ///
    /// Bucket resolution is what a log2 histogram affords — the bound is
    /// exact to a factor of two, integer, and byte-stable, which is the
    /// trade the determinism contract wants.
    ///
    /// # Panics
    ///
    /// Panics if `p > 100`.
    pub(crate) fn percentile(&self, p: u64) -> u64 {
        assert!(p <= 100, "percentile {p} out of range");
        let count = self.count();
        if count == 0 {
            return 0;
        }
        // In `u128`: neither the rank nor the running sum can overflow,
        // whatever a decoded histogram's buckets hold.
        let need = (u128::from(count) * u128::from(p)).div_ceil(100);
        let mut cumulative = 0u128;
        for (i, b) in self.buckets.iter().enumerate() {
            cumulative += u128::from(*b);
            if cumulative >= need {
                let bound = match i {
                    0 => 0,
                    // The saturated last bucket has no finite upper bound.
                    _ if i == LATENCY_BUCKETS - 1 => self.max,
                    _ => (1u64 << i) - 1,
                };
                return bound.min(self.max);
            }
        }
        self.max
    }

    /// Median latency bound (`percentile` at 50).
    pub fn p50(&self) -> u64 {
        self.percentile(50)
    }

    /// 90th-percentile latency bound.
    pub fn p90(&self) -> u64 {
        self.percentile(90)
    }

    /// 99th-percentile latency bound.
    pub fn p99(&self) -> u64 {
        self.percentile(99)
    }

    pub(crate) fn to_json(self) -> String {
        let mut s = String::from("{\"buckets\":[");
        for (i, b) in self.buckets.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{b}");
        }
        let _ = write!(
            s,
            "],\"count\":{},\"total_ticks\":{},\"max\":{},\
             \"p50\":{},\"p90\":{},\"p99\":{},\"mean_milli\":{}}}",
            self.count(),
            self.total,
            self.max,
            self.p50(),
            self.p90(),
            self.p99(),
            self.mean_milli()
        );
        s
    }
}

/// The all-integer per-flow section a trace replay adds to its metrics:
/// how many flows the trace carried, how its packets split across the
/// trimodal size classes, and how large the biggest flow was.  Absent
/// (`None` in [`ScenarioMetrics::flows`]) for every non-trace workload,
/// so their JSON stays byte-identical to what it was before traces
/// existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowStats {
    /// Distinct flow ids replayed.
    pub flows: u64,
    /// Packets of the largest single flow.
    pub max_flow_len: u64,
    /// Packets with payload < 128 bytes (ack-sized mode).
    pub small: u64,
    /// Packets with payload in 128..=768 bytes (576-byte legacy mode).
    pub medium: u64,
    /// Packets with payload > 768 bytes (minimum-MTU mode).
    pub large: u64,
}

impl FlowStats {
    /// Trace records replayed (offered datagrams from the trace): every
    /// one falls in exactly one size class, so this is their sum,
    /// saturating.
    pub fn packets(&self) -> u64 {
        self.small.saturating_add(self.medium).saturating_add(self.large)
    }

    /// Stable JSON (integers only, fixed key order).
    pub(crate) fn to_json(self) -> String {
        let FlowStats { flows, max_flow_len, small, medium, large } = self;
        let packets = self.packets();
        format!(
            "{{\"flows\":{flows},\"packets\":{packets},\"max_flow_len\":{max_flow_len},\
             \"small\":{small},\"medium\":{medium},\"large\":{large}}}"
        )
    }
}

/// Everything one scenario run measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioMetrics {
    /// Scenario name (`steady-forward`, `burst-overload`, ...).
    pub scenario: &'static str,
    /// Routing-table organisation the router ran with.
    pub kind: TableKind,
    /// The seed that reproduces this run exactly.
    pub seed: u64,
    /// Measured ticks (warmup excluded).
    pub ticks: u64,
    /// Data datagrams generated at the line cards.
    pub offered: u64,
    /// Datagrams forwarded between line cards.
    pub forwarded: u64,
    /// Datagrams delivered to the control plane.
    pub delivered: u64,
    /// Datagrams dropped by the forwarding core (no route, hop limit, ...).
    pub dropped_no_route: u64,
    /// Arrivals tail-dropped at full line-card input buffers.
    pub dropped_overflow: u64,
    /// Deepest any single input buffer got, measured after each tick.
    pub max_queue_depth: u64,
    /// Datagrams still queued when the scenario ended.
    pub final_backlog: u64,
    /// Per-datagram service latency (arrival tick to service tick).
    pub latency: LatencyHistogram,
    /// Service latency of the RIPng table-carrying packets injected and
    /// serviced ([`table_updates`](Self::table_updates) counts them).
    pub update_latency: LatencyHistogram,
    /// RIPng packets the router itself transmitted.
    pub ripng_sent: u64,
    /// Peak routing-table image footprint over the run, in 32-bit words
    /// ([`LpmTable::memory_words`](taco_routing::LpmTable::memory_words)
    /// sampled after every tick).  All-integer, so churny runs stay
    /// byte-deterministic; under insert/remove cycles this is the arena
    /// high-water mark, which the bounded-churn tests pin.
    pub table_memory_words: u64,
    /// Per-flow record — `None` unless the run replayed a flow trace, so
    /// non-trace JSON stays byte identical to what it was before traces
    /// existed.
    pub flows: Option<FlowStats>,
    /// Fault-injection record — `None` unless the run carried a
    /// [`FaultPlan`](crate::FaultPlan), so fault-free JSON stays byte
    /// identical to what it was before faults existed.
    pub faults: Option<crate::fault::FaultMetrics>,
    /// Cache-coherence record — `None` unless the run modelled a
    /// multi-core system (two or more cores), so single-core JSON stays
    /// byte identical to what it was before multicore existed.
    pub coherence: Option<CoherenceStats>,
}

/// Serialises a [`CoherenceStats`] record with a fixed key order (the
/// `coherence` section of the scenario JSON).
pub(crate) fn coherence_to_json(c: &CoherenceStats) -> String {
    format!(
        "{{\"reads\":{},\"writes\":{},\"hits\":{},\"misses\":{},\
         \"invalidations\":{},\"upgrade_stalls\":{},\"writebacks\":{},\
         \"stall_cycles\":{},\"transactions\":{},\"busy_cycles\":{}}}",
        c.reads,
        c.writes,
        c.hits,
        c.misses,
        c.invalidations,
        c.upgrade_stalls,
        c.writebacks,
        c.stall_cycles,
        c.transactions,
        c.busy_cycles,
    )
}

impl ScenarioMetrics {
    /// The record of a run that has measured nothing yet: the four
    /// identifying members as given, every counter zero, every optional
    /// section absent.
    pub(crate) fn new(scenario: &'static str, kind: TableKind, seed: u64, ticks: u64) -> Self {
        ScenarioMetrics {
            scenario,
            kind,
            seed,
            ticks,
            offered: 0,
            forwarded: 0,
            delivered: 0,
            dropped_no_route: 0,
            dropped_overflow: 0,
            max_queue_depth: 0,
            final_backlog: 0,
            latency: LatencyHistogram::new(),
            update_latency: LatencyHistogram::new(),
            ripng_sent: 0,
            table_memory_words: 0,
            flows: None,
            faults: None,
            coherence: None,
        }
    }

    /// Serialises to a single-line JSON object with a fixed key order —
    /// byte-stable across runs, threads and platforms.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"scenario\":\"{}\",\"kind\":\"{}\",\"seed\":{},\"ticks\":{},\
             \"offered\":{},\"forwarded\":{},\"delivered\":{},\
             \"dropped_no_route\":{},\"dropped_overflow\":{},\
             \"max_queue_depth\":{},\"final_backlog\":{},\
             \"latency\":{},\"table_updates\":{},\"update_latency\":{},\
             \"ripng_sent\":{},\"throughput_milli\":{},\
             \"table_memory_words\":{}",
            self.scenario,
            self.kind,
            self.seed,
            self.ticks,
            self.offered,
            self.forwarded,
            self.delivered,
            self.dropped_no_route,
            self.dropped_overflow,
            self.max_queue_depth,
            self.final_backlog,
            self.latency.to_json(),
            self.table_updates(),
            self.update_latency.to_json(),
            self.ripng_sent,
            self.throughput_milli(),
            self.table_memory_words,
        );
        if let Some(fl) = &self.flows {
            let _ = write!(s, ",\"flows\":{}", fl.to_json());
        }
        if let Some(f) = &self.faults {
            let _ = write!(s, ",\"faults\":{}", f.to_json());
        }
        if let Some(c) = &self.coherence {
            let _ = write!(s, ",\"coherence\":{}", coherence_to_json(c));
        }
        s.push('}');
        s
    }

    /// RIPng table-carrying packets injected and serviced: one update
    /// latency sample each.
    pub fn table_updates(&self) -> u64 {
        self.update_latency.count()
    }

    /// Forwarded datagrams per tick, in thousandths (0 over no ticks).
    /// Computed in `u128`; a rate beyond `u64::MAX` saturates.
    pub fn throughput_milli(&self) -> u64 {
        let milli = (u128::from(self.forwarded) * 1000).checked_div(u128::from(self.ticks));
        milli.map_or(0, |m| u64::try_from(m).unwrap_or(u64::MAX))
    }

    /// Total drops from all causes.
    pub fn dropped(&self) -> u64 {
        self.dropped_no_route + self.dropped_overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries() {
        let mut h = LatencyHistogram::new();
        for t in [0u64, 1, 2, 3, 4, 7, 8, 1 << 40] {
            h.record(t);
        }
        assert_eq!(h.buckets()[0], 1); // 0
        assert_eq!(h.buckets()[1], 1); // 1
        assert_eq!(h.buckets()[2], 2); // 2, 3
        assert_eq!(h.buckets()[3], 2); // 4, 7
        assert_eq!(h.buckets()[4], 1); // 8
        assert_eq!(h.buckets()[LATENCY_BUCKETS - 1], 1); // saturated
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 1 << 40);
    }

    #[test]
    fn percentiles_are_integer_bucket_bounds() {
        let mut h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..9 {
            h.record(10); // bucket 4: [8, 16)
        }
        h.record(100); // bucket 7: [64, 128)
        assert_eq!(h.p50(), 1);
        assert_eq!(h.p90(), 1);
        assert_eq!(h.percentile(91), 15);
        assert_eq!(h.p99(), 15);
        assert_eq!(h.percentile(100), 100); // capped at max, not 127
        assert_eq!(h.max(), 100);
    }

    #[test]
    fn percentiles_of_empty_and_singleton() {
        assert_eq!(LatencyHistogram::new().p50(), 0);
        assert_eq!(LatencyHistogram::new().p99(), 0);
        let mut h = LatencyHistogram::new();
        h.record(5); // bucket 3: [4, 8), bound 7 capped at max 5
        assert_eq!(h.p50(), 5);
        assert_eq!(h.p99(), 5);
        let mut zeros = LatencyHistogram::new();
        zeros.record(0);
        assert_eq!(zeros.p50(), 0);
    }

    #[test]
    fn saturated_bucket_percentile_reports_max() {
        let mut h = LatencyHistogram::new();
        h.record(1 << 40);
        h.record(1 << 41);
        assert_eq!(h.p99(), 1 << 41);
    }

    #[test]
    fn merge_is_equivalent_to_recording_everything_in_one_histogram() {
        let samples_a = [0u64, 1, 5, 100, 1 << 40];
        let samples_b = [3u64, 8, 8, 1 << 41];
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut combined = LatencyHistogram::new();
        for t in samples_a {
            a.record(t);
            combined.record(t);
        }
        for t in samples_b {
            b.record(t);
            combined.record(t);
        }
        a.merge(&b);
        assert_eq!(a, combined);
        assert_eq!(a.p99(), combined.p99());

        // Merging an empty histogram is the identity, both ways.
        let mut empty = LatencyHistogram::new();
        empty.merge(&combined);
        assert_eq!(empty, combined);
        combined.merge(&LatencyHistogram::new());
        assert_eq!(empty, combined);
    }

    #[test]
    fn from_parts_inverts_the_serialised_fields() {
        let mut h = LatencyHistogram::new();
        for t in [0, 1, 5, 100, 1 << 40] {
            h.record(t);
        }
        let rebuilt = LatencyHistogram::from_parts(*h.buckets(), h.total, h.max());
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.p99(), h.p99());
        assert_eq!(rebuilt.mean_milli(), h.mean_milli());
    }

    #[test]
    fn histogram_mean() {
        let mut h = LatencyHistogram::new();
        h.record(1);
        h.record(2);
        assert_eq!(h.mean_milli(), 1500);
        assert_eq!(LatencyHistogram::new().mean_milli(), 0);
    }

    #[test]
    fn histogram_mean_survives_huge_totals() {
        // A long fault-storm run can push the tick total past
        // u64::MAX / 1000; the mean must not overflow (regression for the
        // raw-u64 multiply that panicked in debug builds).
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX / 1000 + 1);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean_milli(), u64::MAX); // saturates, does not panic
                                              // An exact large mean still computes precisely.
        let mut exact = LatencyHistogram::new();
        exact.record(1 << 40);
        assert_eq!(exact.mean_milli(), 1000 << 40);
        // And the total itself saturates rather than wrapping.
        let mut sat = LatencyHistogram::new();
        sat.record(u64::MAX);
        sat.record(u64::MAX);
        assert_eq!(sat.total, u64::MAX);
        assert_eq!(sat.mean_milli(), u64::MAX);
    }

    /// A run of ten ticks: 90 of 100 offered datagrams forwarded, one
    /// table update serviced.
    fn sample(scenario: &'static str) -> ScenarioMetrics {
        let mut update_latency = LatencyHistogram::new();
        update_latency.record(3);
        ScenarioMetrics {
            offered: 100,
            forwarded: 90,
            delivered: 2,
            dropped_no_route: 8,
            max_queue_depth: 5,
            update_latency,
            ripng_sent: 4,
            table_memory_words: 1040,
            ..ScenarioMetrics::new(scenario, TableKind::Cam, 7, 10)
        }
    }

    #[test]
    fn json_is_single_line_and_stable() {
        let mut m = sample("steady-forward");
        m.latency.record(2);
        m.latency.record(2);
        let j = m.to_json();
        assert!(!j.contains('\n'));
        assert!(j.starts_with("{\"scenario\":\"steady-forward\",\"kind\":\"cam\","));
        assert!(j.contains("\"p50\":2,\"p90\":2,\"p99\":2"), "{j}");
        assert_eq!(j, m.clone().to_json());
        // The derived members are computed from the counters they summarise.
        assert!(j.contains("\"table_updates\":1,\"update_latency\":{"), "{j}");
        assert_eq!((m.table_updates(), m.throughput_milli()), (1, 9000));

        // Fault-free runs serialise without a faults key at all (byte
        // compatibility with pre-fault JSON); faulted runs append one.
        assert!(j.ends_with("\"throughput_milli\":9000,\"table_memory_words\":1040}"), "{j}");
        assert!(!j.contains("\"faults\""));
        let faulted = ScenarioMetrics {
            faults: Some(crate::fault::FaultMetrics {
                injected_malformed: 2,
                ..Default::default()
            }),
            ..m
        };
        let fj = faulted.to_json();
        assert!(fj.contains(",\"faults\":{\"injected_malformed\":2,"), "{fj}");
        assert!(fj.ends_with("}}"), "{fj}");
    }

    #[test]
    fn flows_section_appears_between_memory_and_faults() {
        let m = ScenarioMetrics {
            flows: Some(FlowStats {
                flows: 12,
                max_flow_len: 40,
                small: 60,
                medium: 25,
                large: 15,
            }),
            faults: Some(crate::fault::FaultMetrics::default()),
            ..sample("trace-replay")
        };
        let j = m.to_json();
        assert!(
            j.contains(
                "\"table_memory_words\":1040,\"flows\":{\"flows\":12,\"packets\":100,\
                 \"max_flow_len\":40,\"small\":60,\"medium\":25,\"large\":15},\"faults\":{"
            ),
            "{j}"
        );
        assert!(!j.contains('.'), "integers only: {j}");
    }

    #[test]
    fn coherence_section_appears_last_and_is_all_integer() {
        let m = ScenarioMetrics {
            coherence: Some(CoherenceStats {
                reads: 90,
                writes: 10,
                hits: 80,
                misses: 20,
                invalidations: 6,
                upgrade_stalls: 2,
                writebacks: 1,
                stall_cycles: 44,
                transactions: 22,
                busy_cycles: 44,
            }),
            ..sample("table-churn")
        };
        let j = m.to_json();
        assert!(
            j.ends_with(
                ",\"coherence\":{\"reads\":90,\"writes\":10,\"hits\":80,\"misses\":20,\
                 \"invalidations\":6,\"upgrade_stalls\":2,\"writebacks\":1,\
                 \"stall_cycles\":44,\"transactions\":22,\"busy_cycles\":44}}"
            ),
            "{j}"
        );
        assert!(!j.contains('.'), "integers only: {j}");
    }
}
