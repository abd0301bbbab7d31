//! Execution statistics.
//!
//! "From the high level simulations we obtain performance data such as
//! clock cycle requirements and module utilization."  [`SimStats`] is that
//! performance data: total cycles, per-instance trigger counts
//! ([`TriggerCounts`]) and dynamic bus utilisation (a Table 1 column).
//! Only counters are stored; every figure derived from them (utilisation,
//! per-kind triggers) is computed where it is read.

use std::fmt;

use taco_isa::{FuKind, FuRef};

/// Counters collected over one simulation run: *simulated* when the run
/// was stepped, *priced* when an evaluation summed them from a block
/// profile (held equal to stepping by `parallel_equivalence`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// *Simulated or priced*: total elapsed cycles, including stalls.
    pub cycles: u64,
    /// *Simulated or priced*: cycles stalled on the Routing Table Unit.
    pub stall_cycles: u64,
    /// *Simulated*: cycles stolen by an injected transient fault (zero
    /// unless the run was given a [`PeriodicStall`](crate::PeriodicStall)).
    pub injected_stall_cycles: u64,
    /// *Simulated or priced*: moves whose guard passed (or had none).
    pub moves_executed: u64,
    /// *Simulated or priced*: moves whose guard failed (still on a bus).
    pub moves_squashed: u64,
    /// *Simulated or priced*: FU triggers fired per instance — the paper's
    /// "module utilization" data — in [`FuRef`] order; a unit that never
    /// fired is absent.
    pub fu_instance_triggers: TriggerCounts,
    /// Number of buses in the simulated configuration (the machine's).
    pub buses: u8,
}

impl SimStats {
    /// Dynamic bus utilisation in `0.0..=1.0`: occupied slots (every move
    /// occupies its bus whether or not its guard passed) over total slot
    /// capacity (`cycles × buses`).  Stall cycles count as idle.
    pub fn bus_utilization(&self) -> f64 {
        let capacity = self.cycles.saturating_mul(u64::from(self.buses));
        if capacity == 0 {
            return 0.0;
        }
        self.moves_executed.saturating_add(self.moves_squashed) as f64 / capacity as f64
    }

    /// Fraction of cycles in which the given FU instance fired (0..=1) —
    /// the per-module utilization the paper's simulations report.
    pub fn module_utilization(&self, fu: FuRef) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.fu_instance_triggers.get(fu) as f64 / self.cycles as f64
    }
}

/// Triggers fired per FU instance, one `(unit, count)` entry each in [`FuRef`]
/// order: a run records the units that fired; a zero read off the wire stays.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TriggerCounts(Vec<(FuRef, u64)>);

impl TriggerCounts {
    /// Triggers fired by `fu` (0 for a unit the record lacks).
    pub fn get(&self, fu: FuRef) -> u64 {
        self.0.binary_search_by_key(&fu, |&(unit, _)| unit).map_or(0, |at| self.0[at].1)
    }

    /// Triggers fired by instances of `kind`, summed saturating.
    pub fn of_kind(&self, kind: FuKind) -> u64 {
        self.iter().filter(|(fu, _)| fu.kind == kind).fold(0, |sum, (_, n)| sum.saturating_add(n))
    }

    /// Every `(unit, count)` entry, in [`FuRef`] order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (FuRef, u64)> + '_ {
        self.0.iter().copied()
    }

    /// Counts `n` more triggers of `fu`, giving it an entry if it has none;
    /// searched from the end, as records are built in or near key order.
    pub fn add(&mut self, fu: FuRef, n: u64) {
        match self.0.iter().rposition(|&(unit, _)| unit <= fu) {
            Some(at) if self.0[at].0 == fu => self.0[at].1 += n,
            at => self.0.insert(at.map_or(0, |at| at + 1), (fu, n)),
        }
    }
}

/// Adds up `(unit, count)` pairs, in one allocation where their number is bounded.
impl FromIterator<(FuRef, u64)> for TriggerCounts {
    fn from_iter<I: IntoIterator<Item = (FuRef, u64)>>(counts: I) -> Self {
        let counts = counts.into_iter();
        let mut record = TriggerCounts(Vec::with_capacity(counts.size_hint().1.unwrap_or(0)));
        counts.for_each(|(fu, n)| record.add(fu, n));
        record
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
    use taco_isa::MachineConfig;

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
        assert!((s.bus_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_zero_utilization() {
        assert_eq!(SimStats::default().bus_utilization(), 0.0);
    }

    #[test]
    fn trigger_lookup_defaults_to_zero() {
        let mut t = TriggerCounts::default();
        assert_eq!((t.get(FuRef::new(FuKind::Matcher, 0)), t.of_kind(FuKind::Matcher)), (0, 0));
        t.add(FuRef::new(FuKind::Matcher, 0), 5);
        t.add(FuRef::new(FuKind::Matcher, 1), u64::MAX);
        let sums = (t.of_kind(FuKind::Matcher), t.of_kind(FuKind::Counter));
        assert_eq!(sums, (u64::MAX, 0), "the sum over instances saturates");
    }

    #[test]
    fn a_record_keeps_unit_order_on_a_three_bus_machine() {
        // 2 CNT, 3 CMP, 2 M: every unit added, latest first, some twice.
        let machine = MachineConfig::new(3)
            .with_fu_count(FuKind::Counter, 2)
            .with_fu_count(FuKind::Comparator, 3)
            .with_fu_count(FuKind::Matcher, 2);
        let units: Vec<FuRef> = machine.units().collect();
        assert_eq!(units.len(), 2 + 3 + 2 + 10);
        let mut t = TriggerCounts::default();
        for (n, &fu) in units.iter().enumerate().rev() {
            t.add(fu, n as u64 + 1);
        }
        t.add(FuRef::new(FuKind::Comparator, 2), 10);
        let keys: Vec<FuRef> = t.iter().map(|(fu, _)| fu).collect();
        assert_eq!(keys, units, "entries in FuRef order, which is the machine's own unit order");
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(t.get(FuRef::new(FuKind::Comparator, 2)), 5 + 10);
        assert_eq!(t.of_kind(FuKind::Comparator), 3 + 4 + 5 + 10);
    }

    #[test]
    fn an_explicit_zero_survives() {
        let (m0, m1) = (FuRef::new(FuKind::Matcher, 0), FuRef::new(FuKind::Matcher, 1));
        let mut t = TriggerCounts::default();
        t.add(m1, 0);
        t.add(m0, 3);
        t.add(m1, 0);
        assert_eq!(t.iter().collect::<Vec<_>>(), [(m0, 3), (m1, 0)]);
        assert_ne!(t, TriggerCounts(vec![(m0, 3)]), "a zero entry is not an absent one");
        assert_eq!((t.get(m1), t.of_kind(FuKind::Matcher)), (0, 3));
    }

    #[test]
    fn module_utilization_per_instance() {
        let mut s = SimStats { cycles: 10, ..SimStats::default() };
        let m0 = FuRef::new(FuKind::Matcher, 0);
        let m1 = FuRef::new(FuKind::Matcher, 1);
        s.fu_instance_triggers.add(m0, 5);
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
