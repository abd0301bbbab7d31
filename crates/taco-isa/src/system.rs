//! System-level configuration: how many cores, and what holds them
//! together.
//!
//! A [`MachineConfig`](crate::MachineConfig) describes one TACO core; a
//! [`SystemConfig`] describes the *system* built from N such cores sharing
//! the routing table through private per-core caches kept consistent by a
//! snooping coherence protocol over an on-chip interconnect.  Every field
//! is a small integer or a closed enum so a system configuration hashes,
//! compares, and serialises byte-stably — the same contract
//! `MachineConfig` honours.
//!
//! The default system is a single core with no sharing at all.  Only the
//! behavioural scenario harness builds any other: an evaluation is one
//! processor.
//!
//! # Examples
//!
//! ```
//! use taco_isa::{CoherenceProtocol, SystemConfig, Topology};
//!
//! assert_eq!(SystemConfig::default().cores, 1);
//!
//! let quad = SystemConfig::with_cores(4)
//!     .topology(Topology::Mesh)
//!     .protocol(CoherenceProtocol::Mesi);
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

/// Cache-coherence protocol run by the private table caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CoherenceProtocol {
    /// Modified/Shared/Invalid: every read miss fills Shared, so the first
    /// write to any line always pays an upgrade transaction.
    Msi,
    /// MSI plus an Exclusive state: a read miss nobody else holds fills
    /// Exclusive, and the first write upgrades silently.
    Mesi,
}

/// Shape of each core's private table-line cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Direct-mapped line slots per core.
    pub lines: u16,
    /// Table words per cache line.
    pub line_words: u8,
}

impl CacheConfig {
    /// The default cache: 64 lines of 4 words each.
    pub(crate) fn new() -> Self {
        CacheConfig { lines: 64, line_words: 4 }
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Interconnect shape and speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InterconnectConfig {
    /// How the cores are wired together.
    pub topology: Topology,
    /// Cycles per bus transaction ([`Topology::SharedBus`]) or per mesh
    /// hop ([`Topology::Mesh`]).
    pub latency: u8,
}

impl InterconnectConfig {
    /// The default interconnect: a shared bus, 2 cycles per transaction.
    pub(crate) fn new() -> Self {
        InterconnectConfig { topology: Topology::SharedBus, latency: 2 }
    }
}

impl Default for InterconnectConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// A multi-core TACO system: N identical cores, each with a private
/// [`CacheConfig`] cache over the shared routing table, kept coherent by
/// `protocol` over `interconnect`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SystemConfig {
    /// Core count (1..=`MAX_CORES`).
    pub cores: u8,
    /// Private per-core table cache shape.
    pub cache: CacheConfig,
    /// On-chip interconnect.
    pub interconnect: InterconnectConfig,
    /// Coherence protocol.
    pub protocol: CoherenceProtocol,
}

impl SystemConfig {
    /// The single-core system: no sharing, no coherence traffic.  This is
    /// `Default`.
    pub(crate) fn single_core() -> Self {
        SystemConfig {
            cores: 1,
            cache: CacheConfig::default(),
            interconnect: InterconnectConfig::default(),
            protocol: CoherenceProtocol::Mesi,
        }
    }

    /// A `cores`-core system with the default cache, interconnect and
    /// protocol.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or above `MAX_CORES`.
    pub fn with_cores(cores: u8) -> Self {
        assert!((1..=MAX_CORES).contains(&cores), "cores must be 1..={MAX_CORES}");
        SystemConfig { cores, ..Self::single_core() }
    }

    /// Returns a copy with `topology` (keeping the latency).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.interconnect.topology = topology;
        self
    }

    /// Returns a copy with `protocol`.
    pub fn protocol(mut self, protocol: CoherenceProtocol) -> Self {
        self.protocol = protocol;
        self
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::single_core()
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
        let sys =
            SystemConfig::with_cores(4).topology(Topology::Mesh).protocol(CoherenceProtocol::Msi);
        assert_eq!(sys.cores, 4);
        assert_eq!(sys.interconnect.topology, Topology::Mesh);
        assert_eq!(sys.protocol, CoherenceProtocol::Msi);
        assert_eq!(sys.cache, CacheConfig::default());
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
