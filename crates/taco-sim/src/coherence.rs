//! Cache-coherence protocol machinery: MESI line states and the
//! all-integer statistics record.
//!
//! The protocol is a *snooping* one: every miss and every upgrade becomes
//! a transaction on the system interconnect, observed by every other
//! core's cache.  The transitions and the interconnect cost model live in
//! [`multicore`](crate::multicore).
//!
//! Everything is integer arithmetic over closed enums, so a replay of the
//! same access stream produces the same statistics byte for byte on any
//! platform.

/// State of one cached table line, per core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) enum LineState {
    /// Not present (or invalidated by a remote write).
    #[default]
    Invalid,
    /// Clean, possibly held by other cores too.
    Shared,
    /// Clean and provably the only copy: the next local write
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
    fn state_predicates() {
        assert!(!LineState::Invalid.readable());
        assert!(LineState::Shared.readable());
        assert!(!LineState::Shared.writable());
        assert!(LineState::Exclusive.writable());
        assert!(LineState::Modified.writable());
    }
}
