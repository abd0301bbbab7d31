//! Execution statistics.
//!
//! "From the high level simulations we obtain performance data such as
//! clock cycle requirements and module utilization."  [`SimStats`] is that
//! performance data: total cycles, per-instance trigger counts and dynamic
//! bus utilisation (a Table 1 column).  Only counters are stored; every
//! figure derived from them (utilisation, per-kind triggers) is computed
//! where it is read.

use std::collections::BTreeMap;
use std::fmt;

use taco_isa::{FuKind, FuRef};

/// Counters collected over one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total elapsed cycles, including stalls.
    pub cycles: u64,
    /// Cycles spent stalled waiting for the Routing Table Unit.
    pub stall_cycles: u64,
    /// Cycles stolen by an injected transient fault (zero unless the run
    /// was given a [`PeriodicStall`](crate::PeriodicStall)).
    pub injected_stall_cycles: u64,
    /// Moves whose guard passed (or that had no guard).
    pub moves_executed: u64,
    /// Moves whose guard failed (they still occupied their bus).
    pub moves_squashed: u64,
    /// FU triggers fired, per instance — the paper's "module utilization"
    /// data.
    pub fu_instance_triggers: BTreeMap<FuRef, u64>,
    /// Number of buses in the simulated configuration.
    pub buses: u8,
}

impl SimStats {
    /// Occupied bus slots: every move occupies its bus whether or not its
    /// guard passed.
    pub(crate) fn bus_slots_occupied(&self) -> u64 {
        self.moves_executed.saturating_add(self.moves_squashed)
    }

    /// Dynamic bus utilisation in `0.0..=1.0`: occupied slots over total
    /// slot capacity (`cycles × buses`).  Stall cycles count as idle.
    pub fn bus_utilization(&self) -> f64 {
        let capacity = self.cycles.saturating_mul(u64::from(self.buses));
        if capacity == 0 {
            return 0.0;
        }
        self.bus_slots_occupied() as f64 / capacity as f64
    }

    /// Triggers fired by instances of `kind`: the sum of their
    /// [`fu_instance_triggers`](Self::fu_instance_triggers), saturating.
    pub fn triggers(&self, kind: FuKind) -> u64 {
        self.fu_instance_triggers
            .iter()
            .filter(|(fu, _)| fu.kind == kind)
            .fold(0, |sum, (_, n)| sum.saturating_add(*n))
    }

    /// Fraction of cycles in which the given FU instance fired (0..=1) —
    /// the per-module utilization the paper's simulations report.
    pub fn module_utilization(&self, fu: FuRef) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.fu_instance_triggers.get(&fu).copied().unwrap_or(0) as f64 / self.cycles as f64
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles ({} stalled), {} moves ({} squashed), bus util {:.1}%",
            self.cycles,
            self.stall_cycles,
            self.moves_executed,
            self.moves_squashed,
            self.bus_utilization() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_math() {
        let s = SimStats {
            cycles: 10,
            stall_cycles: 2,
            moves_executed: 12,
            moves_squashed: 3,
            buses: 3,
            ..SimStats::default()
        };
        assert_eq!(s.bus_slots_occupied(), 15);
        assert!((s.bus_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_zero_utilization() {
        assert_eq!(SimStats::default().bus_utilization(), 0.0);
    }

    #[test]
    fn trigger_lookup_defaults_to_zero() {
        let mut s = SimStats::default();
        assert_eq!(s.triggers(FuKind::Matcher), 0);
        s.fu_instance_triggers.insert(FuRef::new(FuKind::Matcher, 0), 5);
        s.fu_instance_triggers.insert(FuRef::new(FuKind::Matcher, 1), u64::MAX);
        let sums = (s.triggers(FuKind::Matcher), s.triggers(FuKind::Counter));
        assert_eq!(sums, (u64::MAX, 0), "the sum over instances saturates");
    }

    #[test]
    fn module_utilization_per_instance() {
        let mut s = SimStats { cycles: 10, ..SimStats::default() };
        let m0 = FuRef::new(FuKind::Matcher, 0);
        let m1 = FuRef::new(FuKind::Matcher, 1);
        s.fu_instance_triggers.insert(m0, 5);
        assert!((s.module_utilization(m0) - 0.5).abs() < 1e-12);
        assert_eq!(s.module_utilization(m1), 0.0);
        assert_eq!(SimStats::default().module_utilization(m0), 0.0);
    }

    #[test]
    fn display_mentions_cycles() {
        let s = SimStats { cycles: 7, buses: 1, ..SimStats::default() };
        assert!(s.to_string().contains("7 cycles"));
    }
}
