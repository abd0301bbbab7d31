//! Deterministic fault-injection plans and their measurement records.
//!
//! A [`FaultPlan`] is an all-integer, hashable description of the faults to
//! inject into a scenario replay and/or a cycle-accurate measurement:
//! malformed or truncated datagrams, hop-limit-zero storms, routing-table
//! entry corruption with a bounded repair latency, per-linecard link flaps,
//! and transient bus/FU stalls inside the simulator.  Plans are seeded (the
//! same in-tree SplitMix64 discipline as [`crate::Workload`]) so a replay
//! under faults is reproducible bit for bit, composes with any workload,
//! and can key evaluation caches.
//!
//! What the plan *injects* is recorded in [`FaultMetrics`], alongside what
//! the router *detected* (RFC-correct drops) and how recovery went
//! (re-convergence latency histogram, unrecovered count).  All fields are
//! integers, preserving the byte-stable JSON contract of
//! [`crate::ScenarioMetrics`].

use crate::metrics::LatencyHistogram;

/// Default seed for fault plans (distinct from the workload default so a
/// plan never accidentally mirrors the traffic stream).
pub const DEFAULT_FAULT_SEED: u64 = 0xFA17_2003;

/// A deterministic fault-injection plan.
///
/// All rates are integers: per-tick injection rates are expressed in
/// *thousandths of a frame per tick* (`1500` ⇒ one frame every tick plus a
/// 50% chance of a second), periodic faults as a tick/cycle interval where
/// `0` disables that fault class entirely.  The zero value ([`FaultPlan::none`])
/// injects nothing and must leave every metric byte identical to a run
/// without a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Seed for the plan's private SplitMix64 stream (independent of the
    /// workload's traffic stream).
    pub seed: u64,
    /// Malformed/truncated frames injected per tick, in thousandths.
    pub malformed_per_tick_milli: u64,
    /// Hop-limit-zero/one datagrams injected per tick, in thousandths.
    pub hop_limit_zero_per_tick_milli: u64,
    /// Corrupt one installed routing-table entry every this many ticks
    /// (`0` = never).  The router detects and invalidates the entry, then
    /// re-resolves it after [`FaultPlan::repair_ticks`].
    pub corrupt_every: u32,
    /// Ticks between detecting a corrupted entry and issuing its repair
    /// re-advertisement (the bounded re-resolve latency).
    pub repair_ticks: u32,
    /// Retries granted to a repair whose advertisement is lost (tail drop
    /// or link down); each retry backs off by another `repair_ticks`.
    pub repair_retries: u32,
    /// A linecard link flap fires every this many ticks (`0` = never).
    pub flap_every: u32,
    /// Ticks a flapped link stays down before carrier returns.
    pub flap_down_ticks: u32,
    /// Inject a transient bus/FU stall every this many simulator cycles
    /// during cycle-accurate measurement (`0` = never).
    pub stall_every_cycles: u32,
    /// Length of each injected stall, in cycles.
    pub stall_cycles: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The empty plan: injects nothing, perturbs nothing.
    pub const fn none() -> Self {
        FaultPlan {
            seed: DEFAULT_FAULT_SEED,
            malformed_per_tick_milli: 0,
            hop_limit_zero_per_tick_milli: 0,
            corrupt_every: 0,
            repair_ticks: 0,
            repair_retries: 0,
            flap_every: 0,
            flap_down_ticks: 0,
            stall_every_cycles: 0,
            stall_cycles: 0,
        }
    }

    /// Everything at once: the fixed storm used by EXPERIMENTS.md.
    pub const fn storm() -> Self {
        FaultPlan {
            seed: DEFAULT_FAULT_SEED,
            malformed_per_tick_milli: 2000,
            hop_limit_zero_per_tick_milli: 1000,
            corrupt_every: 20,
            repair_ticks: 5,
            repair_retries: 3,
            flap_every: 60,
            flap_down_ticks: 10,
            stall_every_cycles: 64,
            stall_cycles: 4,
        }
    }

    /// Header-anomaly traffic only: malformed frames and expiring hop
    /// limits, no control-plane disturbance.
    pub const fn malformed() -> Self {
        FaultPlan {
            malformed_per_tick_milli: 4000,
            hop_limit_zero_per_tick_milli: 2000,
            ..Self::none()
        }
    }

    /// Routing-table entry corruption with repair latency only.
    pub(crate) const fn corruption() -> Self {
        FaultPlan { corrupt_every: 10, repair_ticks: 5, repair_retries: 3, ..Self::none() }
    }

    /// Periodic per-linecard link flaps only.
    pub const fn flaps() -> Self {
        FaultPlan { flap_every: 40, flap_down_ticks: 8, ..Self::none() }
    }

    /// Transient simulator bus/FU stalls only.
    pub const fn stalls() -> Self {
        FaultPlan { stall_every_cycles: 32, stall_cycles: 4, ..Self::none() }
    }

    /// The named builtin plans, in presentation order (`dse --faults NAME`).
    pub fn builtin() -> Vec<(&'static str, FaultPlan)> {
        vec![
            ("storm", Self::storm()),
            ("malformed", Self::malformed()),
            ("corruption", Self::corruption()),
            ("flaps", Self::flaps()),
            ("stalls", Self::stalls()),
        ]
    }

    /// Looks up a builtin plan by name.
    pub fn by_name(name: &str) -> Option<FaultPlan> {
        Self::builtin().into_iter().find(|(n, _)| *n == name).map(|(_, p)| p)
    }

    /// The builtin name of this plan (seed aside), or `"custom"`.
    pub fn name(&self) -> &'static str {
        Self::builtin()
            .into_iter()
            .find(|(_, p)| p.with_seed(self.seed) == *self)
            .map(|(n, _)| n)
            .unwrap_or("custom")
    }

    /// The same plan under a different seed.
    pub fn with_seed(self, seed: u64) -> Self {
        FaultPlan { seed, ..self }
    }
}

/// What a faulted replay injected, what the router detected, and how
/// recovery went.  All-integer, so `FaultMetrics::to_json` is byte-stable
/// across platforms and thread counts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultMetrics {
    /// Malformed/truncated frames injected at the linecards.
    pub injected_malformed: u64,
    /// Hop-limit-zero/one datagrams injected.
    pub injected_hop_limit: u64,
    /// Routing-table entries corrupted (then invalidated for repair).
    pub injected_corruptions: u64,
    /// Linecard link flaps injected.
    pub injected_flaps: u64,
    /// Malformed frames the forwarding core detected and dropped
    /// (RFC 2460 parse failures — no ICMP error is generated).
    pub detected_malformed: u64,
    /// Expiring datagrams the core dropped with an ICMPv6 time-exceeded.
    pub detected_hop_limit: u64,
    /// Frames refused by a linecard while its link was down.
    pub dropped_link_down: u64,
    /// Faults whose repair (re-advertisement serviced, link back up and
    /// re-converged) completed within the scenario.
    pub recovered: u64,
    /// Faults still outstanding when the scenario ended, or whose repair
    /// exhausted its retries.
    pub unrecovered: u64,
    /// Recovery latency in ticks, from fault injection to the repair
    /// advertisement being serviced by the routing core.
    pub recovery: LatencyHistogram,
}

impl FaultMetrics {
    /// Total faults injected across every class.
    pub fn injected(&self) -> u64 {
        self.injected_malformed
            + self.injected_hop_limit
            + self.injected_corruptions
            + self.injected_flaps
    }

    /// Stable JSON (integers only, fixed key order).
    pub(crate) fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"injected_malformed\":{},\"injected_hop_limit\":{},",
                "\"injected_corruptions\":{},\"injected_flaps\":{},",
                "\"detected_malformed\":{},\"detected_hop_limit\":{},",
                "\"dropped_link_down\":{},\"recovered\":{},\"unrecovered\":{},",
                "\"recovery\":{}}}"
            ),
            self.injected_malformed,
            self.injected_hop_limit,
            self.injected_corruptions,
            self.injected_flaps,
            self.detected_malformed,
            self.detected_hop_limit,
            self.dropped_link_down,
            self.recovered,
            self.unrecovered,
            self.recovery.to_json(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_plans_resolve_by_name() {
        for (name, plan) in FaultPlan::builtin() {
            assert_eq!(FaultPlan::by_name(name), Some(plan));
            assert_ne!(plan.with_seed(0), FaultPlan::none().with_seed(0), "{name} injects nothing");
        }
        assert_eq!(FaultPlan::by_name("no-such-plan"), None);
    }

    #[test]
    fn reseeding_preserves_the_rates() {
        let p = FaultPlan::storm().with_seed(42);
        assert_eq!(p.seed, 42);
        assert_eq!(p.malformed_per_tick_milli, FaultPlan::storm().malformed_per_tick_milli);
    }

    #[test]
    fn metrics_json_is_stable_and_integer() {
        let mut m = FaultMetrics { injected_malformed: 3, recovered: 1, ..Default::default() };
        m.recovery.record(7);
        let json = m.to_json();
        assert!(json.starts_with("{\"injected_malformed\":3,"));
        assert!(json.contains("\"recovered\":1"));
        assert!(json.contains("\"recovery\":{"));
        assert!(!json.contains('.'), "integers only: {json}");
    }
}
