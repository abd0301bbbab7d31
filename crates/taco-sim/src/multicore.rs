//! N-core system simulation: private per-core table caches kept coherent
//! over a modelled interconnect.
//!
//! [`MulticoreSim`] replays a stream of per-core table-line accesses
//! (reads from forwarding lookups, writes from routing-table updates)
//! through N direct-mapped private caches of `CACHE_LINES` lines of
//! `LINE_WORDS` words, kept coherent by MESI.  Every miss, upgrade and
//! invalidation becomes a transaction on the configured interconnect:
//!
//! * [`Topology::SharedBus`] — one snooping bus.  A transaction occupies
//!   the bus for `LATENCY` cycles, and a core whose transaction finds the
//!   bus busy stalls until it frees (arbitration is in request order,
//!   which is the replay order — deterministic by construction).
//! * [`Topology::Mesh`] — a switched 2D mesh laid out on a near-square
//!   grid.  A transaction pays `LATENCY` per Manhattan-distance hop to its
//!   supplier (another core's cache, or the memory controller at node 0)
//!   and never serialises against other traffic.
//!
//! The model is all-integer: the same access stream produces the same
//! [`CoherenceStats`] byte for byte on every platform and thread count.
//!
//! # Examples
//!
//! ```
//! use taco_isa::SystemConfig;
//! use taco_sim::MulticoreSim;
//!
//! let mut sim = MulticoreSim::new(SystemConfig::with_cores(2));
//! sim.read(0, 100); // core 0 fills the line
//! sim.read(1, 100); // core 1 fills it Shared
//! let stall = sim.write(0, 100); // invalidates core 1's copy
//! assert!(stall > 0);
//! assert_eq!(sim.stats().invalidations, 1);
//! ```

use taco_isa::{SystemConfig, Topology};

use crate::coherence::{CoherenceStats, LineState};

/// Direct-mapped line slots in each core's private table cache.
const CACHE_LINES: usize = 64;

/// Table words per cache line.
const LINE_WORDS: u64 = 4;

/// Cycles per bus transaction ([`Topology::SharedBus`]) or per mesh hop
/// ([`Topology::Mesh`]).
const LATENCY: u64 = 2;

/// One direct-mapped cache slot: which line it holds, in which state.
#[derive(Debug, Clone, Copy, Default)]
struct CacheEntry {
    tag: u64,
    state: LineState,
}

/// Where a fill was supplied from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Supplier {
    /// The shared table memory (attached at mesh node 0).
    Memory,
    /// Another core's cache.
    Core(usize),
}

/// The N-core coherence simulator.
#[derive(Debug, Clone)]
pub struct MulticoreSim {
    topology: Topology,
    /// `caches[core][set]`.
    caches: Vec<Vec<CacheEntry>>,
    /// Logical clock: advances one cycle per access, so bus occupancy
    /// windows overlap when transactions arrive back to back.
    now: u64,
    /// First cycle the shared bus is free again.
    bus_free_at: u64,
    /// Mesh grid width (near-square layout).
    mesh_cols: u64,
    stats: CoherenceStats,
}

impl MulticoreSim {
    /// Builds the system: every cache starts cold (all lines Invalid).
    pub fn new(system: SystemConfig) -> Self {
        let cores = usize::from(system.cores.max(1));
        let mut cols = 1u64;
        while cols * cols < cores as u64 {
            cols += 1;
        }
        MulticoreSim {
            topology: system.topology,
            caches: vec![vec![CacheEntry::default(); CACHE_LINES]; cores],
            now: 0,
            bus_free_at: 0,
            mesh_cols: cols,
            stats: CoherenceStats::default(),
        }
    }

    /// Core count.
    pub fn cores(&self) -> usize {
        self.caches.len()
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> &CoherenceStats {
        &self.stats
    }

    /// Zeroes the statistics without touching the cache contents (used to
    /// exclude warm-up traffic from a measured window).
    pub fn reset_stats(&mut self) {
        self.stats = CoherenceStats::default();
    }

    fn line_of(&self, word_addr: u64) -> u64 {
        word_addr / LINE_WORDS
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.caches[0].len() as u64) as usize
    }

    /// Manhattan distance between two mesh nodes (node = core index;
    /// memory sits at node 0).
    fn hops(&self, a: u64, b: u64) -> u64 {
        let (ax, ay) = (a % self.mesh_cols, a / self.mesh_cols);
        let (bx, by) = (b % self.mesh_cols, b / self.mesh_cols);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// Places one transaction on the interconnect and returns the cycles
    /// the requesting core stalls for it.  `reach` is the farthest party
    /// the transaction must touch (supplier or invalidation target).
    fn transact(&mut self, core: usize, reach: Supplier) -> u64 {
        self.stats.transactions += 1;
        match self.topology {
            Topology::SharedBus => {
                let wait = self.bus_free_at.saturating_sub(self.now);
                self.bus_free_at = self.bus_free_at.max(self.now) + LATENCY;
                self.stats.busy_cycles += LATENCY;
                wait + LATENCY
            }
            Topology::Mesh => {
                let dest = match reach {
                    Supplier::Memory => 0,
                    Supplier::Core(c) => c as u64,
                };
                // +1: entering the network costs one hop even to an
                // adjacent node (or the local memory port at node 0).
                let cost = LATENCY * (self.hops(core as u64, dest) + 1);
                self.stats.busy_cycles += cost;
                cost
            }
        }
    }

    /// Remote cores currently holding `line`, with their states.
    fn holders(&self, core: usize, line: u64) -> Vec<(usize, LineState)> {
        let set = self.set_of(line);
        self.caches
            .iter()
            .enumerate()
            .filter(|(c, _)| *c != core)
            .filter_map(|(c, cache)| {
                let e = cache[set];
                (e.state.readable() && e.tag == line).then_some((c, e.state))
            })
            .collect()
    }

    /// The farthest party among `holders` (mesh broadcast completes when
    /// the farthest acknowledgement returns); memory when none hold it.
    fn farthest(&self, core: usize, holders: &[(usize, LineState)]) -> Supplier {
        holders
            .iter()
            .max_by_key(|(c, _)| self.hops(core as u64, *c as u64))
            .map(|(c, _)| Supplier::Core(*c))
            .unwrap_or(Supplier::Memory)
    }

    /// A table-line read by `core` at word address `addr`.  Returns the
    /// stall cycles the access cost (0 on a hit).
    pub fn read(&mut self, core: usize, addr: u64) -> u64 {
        self.now += 1;
        self.stats.reads += 1;
        let line = self.line_of(addr);
        let set = self.set_of(line);
        let entry = self.caches[core][set];
        if entry.state.readable() && entry.tag == line {
            self.stats.hits += 1;
            return 0;
        }
        self.stats.misses += 1;
        let holders = self.holders(core, line);
        // A dirty remote copy writes back, then every holder downgrades
        // to Shared.
        let mut extra = 0;
        for &(c, state) in &holders {
            if state == LineState::Modified {
                self.stats.writebacks += 1;
                extra += self.transact(c, Supplier::Memory);
            }
            self.caches[c][set].state = LineState::Shared;
        }
        let supplier = self.farthest(core, &holders);
        let stall = extra + self.transact(core, supplier);
        // MESI grants Exclusive on a sole copy.
        let fill = if holders.is_empty() { LineState::Exclusive } else { LineState::Shared };
        self.caches[core][set] = CacheEntry { tag: line, state: fill };
        self.stats.stall_cycles += stall;
        stall
    }

    /// A table-line write by `core` at word address `addr` (a routing
    /// update landing in the shared table).  Returns the stall cycles.
    pub fn write(&mut self, core: usize, addr: u64) -> u64 {
        self.now += 1;
        self.stats.writes += 1;
        let line = self.line_of(addr);
        let set = self.set_of(line);
        let entry = self.caches[core][set];
        let local_hit = entry.state.readable() && entry.tag == line;
        if local_hit && entry.state.writable() {
            // Modified stays Modified; Exclusive upgrades silently (the
            // MESI payoff).
            self.stats.hits += 1;
            self.caches[core][set].state = LineState::Modified;
            return 0;
        }
        let holders = self.holders(core, line);
        let mut extra = 0;
        for &(c, state) in &holders {
            if state == LineState::Modified {
                self.stats.writebacks += 1;
                extra += self.transact(c, Supplier::Memory);
            }
            self.caches[c][set].state = LineState::Invalid;
            self.stats.invalidations += 1;
        }
        let reach = self.farthest(core, &holders);
        let stall = if local_hit {
            // Shared → Modified: data is present, but the upgrade must
            // still broadcast an invalidate.
            self.stats.hits += 1;
            self.stats.upgrade_stalls += 1;
            extra + self.transact(core, reach)
        } else {
            self.stats.misses += 1;
            extra + self.transact(core, reach)
        };
        self.caches[core][set] = CacheEntry { tag: line, state: LineState::Modified };
        self.stats.stall_cycles += stall;
        stall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(cores: u8) -> SystemConfig {
        SystemConfig::with_cores(cores)
    }

    #[test]
    fn cold_read_misses_then_hits() {
        let mut sim = MulticoreSim::new(sys(2));
        assert!(sim.read(0, 8) > 0, "cold miss stalls");
        assert_eq!(sim.read(0, 9), 0, "same line hits");
        let s = sim.stats();
        assert_eq!((s.reads, s.hits, s.misses), (2, 1, 1));
    }

    #[test]
    fn hits_plus_misses_equals_accesses() {
        let mut sim = MulticoreSim::new(sys(4));
        for i in 0..200u64 {
            let core = (i % 4) as usize;
            if i % 7 == 0 {
                sim.write(core, i * 3 % 64);
            } else {
                sim.read(core, i * 5 % 64);
            }
        }
        let s = sim.stats();
        assert_eq!(s.hits + s.misses, s.reads + s.writes);
    }

    #[test]
    fn mesi_grants_exclusive_and_upgrades_silently() {
        let mut sim = MulticoreSim::new(sys(2));
        sim.read(0, 4); // sole copy → Exclusive
        assert_eq!(sim.write(0, 4), 0, "E→M is silent");
        assert_eq!(sim.stats().upgrade_stalls, 0);
    }

    #[test]
    fn writes_invalidate_remote_copies() {
        let mut sim = MulticoreSim::new(sys(4));
        for c in 0..4 {
            sim.read(c, 16);
        }
        sim.write(0, 16);
        assert_eq!(sim.stats().invalidations, 3);
        // The invalidated cores must miss again.
        assert!(sim.read(1, 16) > 0);
    }

    #[test]
    fn dirty_lines_write_back_before_remote_reads() {
        let mut sim = MulticoreSim::new(sys(2));
        sim.read(0, 4);
        sim.write(0, 4); // Modified on core 0
        sim.read(1, 4); // forces writeback + downgrade
        assert_eq!(sim.stats().writebacks, 1);
        // Core 0 still hits (Shared now).
        assert_eq!(sim.read(0, 4), 0);
    }

    #[test]
    fn shared_bus_arbitration_queues_back_to_back_misses() {
        let mut sim = MulticoreSim::new(sys(4)); // bus latency 2, clock +1/access
        let a = sim.read(0, 0);
        let b = sim.read(1, 64); // different line, still queues on the bus
        assert!(b > a, "second transaction waits for the bus: {a} vs {b}");
    }

    #[test]
    fn mesh_does_not_serialise_independent_misses() {
        let mesh = sys(4).topology(Topology::Mesh);
        let mut sim = MulticoreSim::new(mesh);
        let a = sim.read(0, 0);
        let b = sim.read(0, 64);
        assert_eq!(a, b, "independent mesh fills cost the same");
    }

    #[test]
    fn mesh_cost_grows_with_distance() {
        let mesh = sys(4).topology(Topology::Mesh);
        let mut sim = MulticoreSim::new(mesh);
        // Memory sits at node 0: node 3 (diagonal on the 2x2 grid) pays
        // more hops than node 1.
        let near = sim.read(1, 0);
        let far = sim.read(2, 128);
        let _ = (near, far);
        let diag = sim.read(3, 256);
        assert!(diag > near, "{diag} vs {near}");
    }

    #[test]
    fn replay_is_deterministic() {
        let run = || {
            let mut sim = MulticoreSim::new(sys(4).topology(Topology::Mesh));
            for i in 0..500u64 {
                let core = (i % 4) as usize;
                if i % 11 == 0 {
                    sim.write(core, i % 97);
                } else {
                    sim.read(core, (i * 13) % 97);
                }
            }
            *sim.stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reset_stats_keeps_the_warm_cache() {
        let mut sim = MulticoreSim::new(sys(2));
        sim.read(0, 4);
        sim.reset_stats();
        assert_eq!(sim.stats().reads + sim.stats().writes, 0);
        assert_eq!(sim.read(0, 4), 0, "cache stayed warm across the reset");
    }
}
