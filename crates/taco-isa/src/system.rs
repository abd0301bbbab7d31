//! System-level configuration: how many cores, and what holds them
//! together.
//!
//! A [`MachineConfig`](crate::MachineConfig) describes one TACO core; a
//! [`SystemConfig`] describes the *system* built from N such cores sharing
//! the routing table through private per-core caches kept consistent by a
//! snooping MESI protocol over an on-chip interconnect.  The cache shape and
//! the interconnect's speed are the coherence model's constants; what a
//! caller picks is the core count and the topology.  Every field is a small
//! integer or a closed enum so a system configuration hashes, compares, and
//! serialises byte-stably — the same contract `MachineConfig` honours.
//!
//! The default system is a single core with no sharing at all.  Only the
//! behavioural scenario harness builds any other: an evaluation is one
//! processor.
//!
//! # Examples
//!
//! ```
//! use taco_isa::{SystemConfig, Topology};
//!
//! assert_eq!(SystemConfig::default().cores, 1);
//!
//! let quad = SystemConfig::with_cores(4).topology(Topology::Mesh);
//! assert_eq!(quad.cores, 4);
//! ```

/// Most cores any system configuration may carry.
pub(crate) const MAX_CORES: u8 = 8;

/// On-chip interconnect topology connecting the cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Topology {
    /// One shared snooping bus: every coherence transaction arbitrates for
    /// the single bus and stalls while it is busy.
    SharedBus,
    /// A switched 2D mesh NoC: transactions pay Manhattan hop latency but
    /// do not serialise against each other.
    Mesh,
}

impl Topology {
    /// The name (`shared-bus`, `mesh`).
    pub fn name(&self) -> &'static str {
        match self {
            Topology::SharedBus => "shared-bus",
            Topology::Mesh => "mesh",
        }
    }
}

/// A multi-core TACO system: N identical cores, each with a private cache
/// over the shared routing table, kept coherent over `topology`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SystemConfig {
    /// Core count (1..=`MAX_CORES`).
    pub cores: u8,
    /// How the cores are wired together.
    pub topology: Topology,
}

impl SystemConfig {
    /// A `cores`-core system on a shared bus.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or above `MAX_CORES`.
    pub fn with_cores(cores: u8) -> Self {
        assert!((1..=MAX_CORES).contains(&cores), "cores must be 1..={MAX_CORES}");
        SystemConfig { cores, topology: Topology::SharedBus }
    }

    /// Returns a copy with `topology`.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }
}

/// The single-core system: no sharing, no coherence traffic.
impl Default for SystemConfig {
    fn default() -> Self {
        Self::with_cores(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_single_core() {
        assert_eq!(SystemConfig::default(), SystemConfig::with_cores(1));
        assert_eq!(SystemConfig::default().cores, 1);
    }

    #[test]
    fn builders_compose() {
        let sys = SystemConfig::with_cores(4).topology(Topology::Mesh);
        assert_eq!(sys.cores, 4);
        assert_eq!(sys.topology, Topology::Mesh);
    }

    #[test]
    #[should_panic(expected = "cores must be")]
    fn zero_cores_rejected() {
        let _ = SystemConfig::with_cores(0);
    }

    #[test]
    #[should_panic(expected = "cores must be")]
    fn too_many_cores_rejected() {
        let _ = SystemConfig::with_cores(MAX_CORES + 1);
    }
}
