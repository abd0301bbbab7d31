//! Cache-coherence protocol machinery: line states, the MESI/MSI
//! transition function, and the all-integer statistics record.
//!
//! The protocol is a *snooping* one: every miss and every upgrade becomes
//! a transaction on the system interconnect, observed by every other
//! core's cache.  The transition function here is pure — it computes the
//! next state of the requesting line and says which remote copies must be
//! invalidated or downgraded — while the interconnect cost model lives in
//! [`multicore`](crate::multicore).
//!
//! Everything is integer arithmetic over closed enums, so a replay of the
//! same access stream produces the same statistics byte for byte on any
//! platform.

use taco_isa::CoherenceProtocol;

/// State of one cached table line, per core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) enum LineState {
    /// Not present (or invalidated by a remote write).
    #[default]
    Invalid,
    /// Clean, possibly held by other cores too.
    Shared,
    /// Clean and provably the only copy (MESI only): the next local write
    /// upgrades silently, with no bus transaction.
    Exclusive,
    /// Dirty sole copy.
    Modified,
}

impl LineState {
    /// Whether a local read hits in this state.
    pub(crate) fn readable(&self) -> bool {
        !matches!(self, LineState::Invalid)
    }

    /// Whether a local write hits in this state without an upgrade
    /// transaction.
    pub(crate) fn writable(&self) -> bool {
        matches!(self, LineState::Modified | LineState::Exclusive)
    }
}

/// The state a read miss fills into, given whether any other core holds
/// the line: MESI grants Exclusive on a sole copy, MSI never does.
pub(crate) fn read_fill_state(protocol: CoherenceProtocol, shared_elsewhere: bool) -> LineState {
    match (protocol, shared_elsewhere) {
        (_, true) => LineState::Shared,
        (CoherenceProtocol::Mesi, false) => LineState::Exclusive,
        (CoherenceProtocol::Msi, false) => LineState::Shared,
    }
}

/// All-integer coherence and interconnect counters.
///
/// Serialised into the `coherence` section of a scenario record; every
/// field is a plain `u64` so the JSON form is byte-stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CoherenceStats {
    /// Table-line reads issued by the cores.
    pub reads: u64,
    /// Table-line writes issued by the cores.
    pub writes: u64,
    /// Accesses served from the local cache with no transaction.
    pub hits: u64,
    /// Accesses that missed and filled over the interconnect.
    pub misses: u64,
    /// Remote copies invalidated by writes.
    pub invalidations: u64,
    /// Shared→Modified upgrades that required an interconnect transaction
    /// (the write-hit-on-Shared case MESI's Exclusive state avoids).
    pub upgrade_stalls: u64,
    /// Dirty remote copies written back before a fill or invalidate.
    pub writebacks: u64,
    /// Total cycles the cores spent stalled on coherence (arbitration
    /// waits plus transfer latency).
    pub stall_cycles: u64,
    /// Transactions placed on the interconnect.
    pub transactions: u64,
    /// Cycles the interconnect was occupied carrying those transactions.
    pub busy_cycles: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_states_follow_the_protocol() {
        assert_eq!(read_fill_state(CoherenceProtocol::Mesi, false), LineState::Exclusive);
        assert_eq!(read_fill_state(CoherenceProtocol::Mesi, true), LineState::Shared);
        assert_eq!(read_fill_state(CoherenceProtocol::Msi, false), LineState::Shared);
        assert_eq!(read_fill_state(CoherenceProtocol::Msi, true), LineState::Shared);
    }

    #[test]
    fn state_predicates() {
        assert!(!LineState::Invalid.readable());
        assert!(LineState::Shared.readable());
        assert!(!LineState::Shared.writable());
        assert!(LineState::Exclusive.writable());
        assert!(LineState::Modified.writable());
    }
}
