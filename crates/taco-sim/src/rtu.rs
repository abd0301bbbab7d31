//! The Routing Table Unit's pluggable lookup backend.
//!
//! The paper makes the routing table "a dedicated functional unit" whose
//! implementation (sequential cache, balanced tree, CAM + SRAM) is the
//! design variable of the whole study.  The simulator therefore treats the
//! RTU as a shell: key operands, one trigger, and a [`RtuBackend`] that
//! answers lookups plus a latency in cycles.  The CAM case uses a backend
//! over `taco-routing`'s [`CamTable`] (adapter in the `taco-router` crate)
//! with the 40 ns search time converted to cycles at the target clock; the
//! sequential and tree cases do their lookups *in microcode* instead and
//! leave the RTU idle.
//!
//! [`CamTable`]: https://docs.rs/taco-routing

use std::collections::BTreeMap;
use std::fmt;

/// A successful RTU lookup: the output interface and an opaque handle
/// (e.g. the index of the matched route, for the slow path to inspect).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtuResult {
    /// Output interface identifier.
    pub iface: u32,
    /// Backend-defined handle for the matched entry.
    pub handle: u32,
}

/// A longest-prefix-match answering machine behind the RTU.
pub trait RtuBackend: fmt::Debug {
    /// Looks up a 128-bit key given as four big-endian 32-bit words.
    fn lookup(&self, key: [u32; 4]) -> Option<RtuResult>;
}

/// A backend that always misses — the power-on default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct NullRtu;

impl RtuBackend for NullRtu {
    fn lookup(&self, _key: [u32; 4]) -> Option<RtuResult> {
        None
    }
}

/// An exact-match map backend for unit tests.
#[derive(Debug, Clone, Default)]
pub struct MapRtu {
    entries: BTreeMap<[u32; 4], RtuResult>,
}

impl MapRtu {
    /// Creates an empty map backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an exact-match entry.
    pub fn insert(&mut self, key: [u32; 4], result: RtuResult) {
        self.entries.insert(key, result);
    }
}

impl RtuBackend for MapRtu {
    fn lookup(&self, key: [u32; 4]) -> Option<RtuResult> {
        self.entries.get(&key).copied()
    }
}

/// The RTU's configuration: a backend plus its search latency in processor
/// cycles.
#[derive(Debug)]
pub struct RtuConfig {
    /// Search latency in cycles (≥ 1).  For the paper's CAM this is
    /// `ceil(40 ns × f_clk)`; reads of RTU results before the latency has
    /// elapsed stall the processor.
    pub latency: u32,
    /// The lookup engine.
    pub backend: Box<dyn RtuBackend>,
}

impl RtuConfig {
    /// A single-cycle RTU over `backend`.
    pub fn new(backend: Box<dyn RtuBackend>) -> Self {
        RtuConfig { latency: 1, backend }
    }

    /// Returns a copy of `self` with the given latency.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero.
    pub fn with_latency(mut self, latency: u32) -> Self {
        assert!(latency >= 1, "rtu latency must be at least one cycle");
        self.latency = latency;
        self
    }
}

impl Default for RtuConfig {
    fn default() -> Self {
        Self::new(Box::new(NullRtu))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_backend_always_misses() {
        assert_eq!(NullRtu.lookup([1, 2, 3, 4]), None);
    }

    #[test]
    fn map_backend_exact_match() {
        let mut m = MapRtu::new();
        m.insert([1, 2, 3, 4], RtuResult { iface: 7, handle: 42 });
        assert_eq!(m.lookup([1, 2, 3, 4]), Some(RtuResult { iface: 7, handle: 42 }));
        assert_eq!(m.lookup([1, 2, 3, 5]), None);
    }

    #[test]
    fn config_latency() {
        let c = RtuConfig::default().with_latency(40);
        assert_eq!(c.latency, 40);
        assert_eq!(RtuConfig::default().latency, 1);
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_latency_rejected() {
        let _ = RtuConfig::default().with_latency(0);
    }
}
