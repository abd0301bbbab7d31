//! Architecture instances: how many buses, how many FUs of each type.
//!
//! "Architecture instances are constructed by varying the number of modules
//! of the same type in the processor as well as varying the internal data
//! transport capacity of the instances."  A [`MachineConfig`] is exactly
//! that: a bus count plus an instance count per FU kind.

use std::fmt;

use crate::fu::FuKind;

/// One TACO architecture instance.
///
/// Singleton units (RTU, LIU, iPPU, oPPU, the register file and the
/// network controller) always have exactly one instance; the simple
/// datapath units (Matcher, Comparator, Counter, Checksum, Shifter, Masker)
/// can be replicated, matching the configurations the paper explores, and
/// replicating the MMU models a multi-ported data memory (an ablation
/// beyond the paper).
///
/// # Examples
///
/// ```
/// use taco_isa::{FuKind, MachineConfig};
///
/// let m = MachineConfig::new(3).with_fu_count(FuKind::Matcher, 3);
/// assert_eq!(m.buses(), 3);
/// assert_eq!(m.fu_count(FuKind::Matcher), 3);
/// assert_eq!(m.fu_count(FuKind::Mmu), 1);
/// ```
///
/// Two configurations are equal exactly when they have the same bus count
/// and the same [`MachineConfig::fu_count`] for every kind: the counts are
/// stored densely, one per kind, so an explicit count of 1 is the default.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MachineConfig {
    buses: u8,
    /// Instances per kind, indexed in [`FuKind::ALL`] order.
    fu_counts: [u8; FuKind::ALL.len()],
}

impl MachineConfig {
    /// Creates a configuration with `buses` data buses and one FU of each
    /// kind.
    ///
    /// # Panics
    ///
    /// Panics if `buses` is zero.
    pub fn new(buses: u8) -> Self {
        assert!(buses > 0, "a tta needs at least one bus");
        MachineConfig { buses, fu_counts: [1; FuKind::ALL.len()] }
    }

    /// The paper's baseline: one bus, one FU of each type.
    pub fn one_bus_one_fu() -> Self {
        Self::new(1)
    }

    /// The paper's second configuration: three buses, one FU of each type.
    pub fn three_bus_one_fu() -> Self {
        Self::new(3)
    }

    /// The paper's third configuration: three buses with 3 Counters,
    /// 3 Comparers and 3 Matchers.
    pub fn three_bus_three_fu() -> Self {
        Self::new(3)
            .with_fu_count(FuKind::Counter, 3)
            .with_fu_count(FuKind::Comparator, 3)
            .with_fu_count(FuKind::Matcher, 3)
    }

    /// Returns a copy with `count` instances of `kind`.
    ///
    /// Replicating the MMU models a **multi-ported data memory**: every
    /// instance is an independent port into the same memory array (the
    /// what-if behind the paper's FU-scaling results — see the
    /// `memory_ports` ablation).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero, or if `kind` is a singleton unit and
    /// `count > 1`.
    pub fn with_fu_count(mut self, kind: FuKind, count: u8) -> Self {
        assert!(count > 0, "fu count must be positive");
        assert!(
            count == 1 || FuKind::REPLICABLE.contains(&kind) || Self::is_scalable_datapath(kind),
            "{kind} cannot be replicated"
        );
        self.fu_counts[kind as usize] = count;
        self
    }

    fn is_scalable_datapath(kind: FuKind) -> bool {
        matches!(kind, FuKind::Checksum | FuKind::Shifter | FuKind::Masker | FuKind::Mmu)
    }

    /// Number of data buses (the maximum number of moves per cycle).
    pub fn buses(&self) -> u8 {
        self.buses
    }

    /// Number of instances of `kind` in this configuration.
    pub fn fu_count(&self, kind: FuKind) -> u8 {
        self.fu_counts[kind as usize]
    }

    /// Iterates over `(kind, count)` for every FU kind.
    pub fn fu_counts(&self) -> impl Iterator<Item = (FuKind, u8)> + '_ {
        FuKind::ALL.into_iter().map(|k| (k, self.fu_count(k)))
    }

    /// Total number of FU instances (excluding the network controller,
    /// which is the interconnect itself).
    pub fn total_fus(&self) -> u32 {
        FuKind::ALL
            .into_iter()
            .filter(|k| *k != FuKind::Nc)
            .map(|k| u32::from(self.fu_count(k)))
            .sum()
    }

    /// Total number of sockets: one per FU port instance, the quantity the
    /// physical estimation model charges interconnect area for.
    pub fn total_sockets(&self) -> u32 {
        FuKind::ALL.into_iter().map(|k| u32::from(self.fu_count(k)) * k.ports().len() as u32).sum()
    }

    /// A short identifier such as `3bus/3CNT,3CMP,3M` in the style of the
    /// paper's Table 1 row labels.
    pub fn label(&self) -> String {
        let mut replicated: Vec<(FuKind, u8)> = self.fu_counts().filter(|&(_, c)| c > 1).collect();
        // Table 1 lists counters, comparers, matchers in that order.
        let rank = |k: FuKind| match k {
            FuKind::Counter => 0,
            FuKind::Comparator => 1,
            FuKind::Matcher => 2,
            _ => 3,
        };
        replicated.sort_by_key(|&(k, _)| rank(k));
        let extras: Vec<String> = replicated
            .into_iter()
            .map(|(k, c)| {
                let tag = match k {
                    FuKind::Counter => "CNT",
                    FuKind::Comparator => "CMP",
                    FuKind::Matcher => "M",
                    other => other.asm_prefix(),
                };
                format!("{c}{tag}")
            })
            .collect();
        if extras.is_empty() {
            format!("{}BUS/1FU", self.buses)
        } else {
            format!("{}bus/{}", self.buses, extras.join(","))
        }
    }
}

impl Default for MachineConfig {
    /// The paper's three-bus, one-FU-each configuration.
    fn default() -> Self {
        Self::three_bus_one_fu()
    }
}

impl fmt::Display for MachineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configurations() {
        let a = MachineConfig::one_bus_one_fu();
        assert_eq!((a.buses(), a.fu_count(FuKind::Matcher)), (1, 1));
        assert_eq!(a.label(), "1BUS/1FU");

        let b = MachineConfig::three_bus_one_fu();
        assert_eq!(b.label(), "3BUS/1FU");

        let c = MachineConfig::three_bus_three_fu();
        assert_eq!(c.fu_count(FuKind::Counter), 3);
        assert_eq!(c.fu_count(FuKind::Comparator), 3);
        assert_eq!(c.fu_count(FuKind::Matcher), 3);
        assert_eq!(c.fu_count(FuKind::Checksum), 1);
        assert_eq!(c.label(), "3bus/3CNT,3CMP,3M");
    }

    #[test]
    #[should_panic(expected = "at least one bus")]
    fn zero_buses_rejected() {
        let _ = MachineConfig::new(0);
    }

    #[test]
    #[should_panic(expected = "cannot be replicated")]
    fn singleton_units_cannot_replicate() {
        let _ = MachineConfig::new(1).with_fu_count(FuKind::Rtu, 2);
    }

    #[test]
    fn mmu_replication_models_memory_ports() {
        let m = MachineConfig::new(3).with_fu_count(FuKind::Mmu, 2);
        assert_eq!(m.fu_count(FuKind::Mmu), 2);
        assert_eq!(m.label(), "3bus/2mmu");
    }

    #[test]
    fn totals() {
        let one = MachineConfig::one_bus_one_fu();
        assert_eq!(one.total_fus(), 12); // 13 kinds minus the NC
        let three = MachineConfig::three_bus_three_fu();
        assert_eq!(three.total_fus(), 18); // +2 each of CNT, CMP, M
        assert!(three.total_sockets() > one.total_sockets());
    }

    #[test]
    fn fu_counts_iterates_all_kinds() {
        let m = MachineConfig::default();
        assert_eq!(m.fu_counts().count(), FuKind::ALL.len());
    }

    #[test]
    fn an_explicit_count_of_one_is_the_default_machine() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |m: &MachineConfig| {
            let mut h = DefaultHasher::new();
            m.hash(&mut h);
            h.finish()
        };
        let plain = MachineConfig::new(3);
        let explicit = MachineConfig::new(3).with_fu_count(FuKind::Mmu, 1);
        assert_eq!(explicit, plain);
        assert_eq!(hash(&explicit), hash(&plain));
        // Set and reset: the last count wins, as `fu_count` reports it.
        let reset = MachineConfig::three_bus_three_fu()
            .with_fu_count(FuKind::Counter, 1)
            .with_fu_count(FuKind::Comparator, 1)
            .with_fu_count(FuKind::Matcher, 1);
        assert_eq!(reset, plain);
        assert_eq!(hash(&reset), hash(&plain));
        assert_ne!(MachineConfig::new(3).with_fu_count(FuKind::Mmu, 2), plain);
    }

    #[test]
    fn display_matches_label() {
        let m = MachineConfig::three_bus_three_fu();
        assert_eq!(m.to_string(), m.label());
    }
}
