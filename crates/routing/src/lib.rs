#![warn(missing_docs)]

//! Routing-table substrate for the TACO IPv6 router.
//!
//! The paper's central design question is *how to implement the routing
//! table*, because "the Routing Table implementation is the most important
//! aspect of a router's performance".  Three organisations are evaluated:
//!
//! * [`SequentialTable`] — entries organised sequentially in a cache memory;
//!   linear search time (the paper's first case);
//! * [`BalancedTreeTable`] — a balanced search tree over prefix ranges;
//!   logarithmic search time at the price of "much more complex" insertion
//!   and deletion (the paper's second case);
//! * [`CamTable`] — a 136-bit-wide content-addressable memory paired with an
//!   SRAM, searching in a fixed ~40 ns regardless of table size (the paper's
//!   third case);
//!
//! plus the path-compressed [`PatriciaTable`] radix tree that scales
//! longest-prefix match to internet-size (BGP, ~200k-prefix) tables.  Every
//! engine must produce identical longest-prefix-match answers; PATRICIA
//! keeps its nodes in the [`arena::Arena`] free-list store so route churn
//! keeps its memory bounded.
//!
//! All engines implement [`LpmTable`] and report the number of elementary
//! probes each lookup performed ([`Lookup::steps`]); the cycle-accurate
//! router charges processor cycles per probe, which is where Table 1's
//! frequency requirements come from.
//!
//! The crate also contains the [`ripng`] routing engine (RFC 2080): timers,
//! split horizon with poisoned reverse, triggered updates — the control
//! plane that populates the tables.
//!
//! # Examples
//!
//! ```
//! use taco_routing::{LpmTable, PortId, Route, SequentialTable};
//!
//! # fn main() -> Result<(), taco_ipv6::ParseError> {
//! let mut table = SequentialTable::new();
//! table.insert(Route::new("2001:db8::/32".parse()?, "fe80::1".parse()?, PortId(1), 1));
//! table.insert(Route::new("2001:db8:aa::/48".parse()?, "fe80::2".parse()?, PortId(2), 1));
//!
//! let hit = table.lookup(&"2001:db8:aa::77".parse()?);
//! assert_eq!(hit.route().unwrap().interface(), PortId(2)); // longest match wins
//! # Ok(())
//! # }
//! ```

pub mod arena;
pub mod cam;
pub mod clock;
pub mod patricia;
pub mod ripng;
pub mod route;
pub mod sequential;
pub mod table;
pub mod tree;

pub use arena::Arena;
pub use cam::{CamSpec, CamTable};
pub use clock::SimTime;
pub use patricia::PatriciaTable;
pub use route::{PortId, Route};
pub use sequential::SequentialTable;
pub use table::{Lookup, LpmTable, TableKind};
pub use tree::BalancedTreeTable;

/// The seeded draws of this crate's randomised tests.
#[cfg(test)]
mod test_rng {
    /// SplitMix64, as `taco_router::SplitMix64` steps it (that crate sits
    /// above this one).
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }
    }
}
