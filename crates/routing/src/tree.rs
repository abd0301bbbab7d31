//! The balanced-tree routing table: the paper's second case.
//!
//! "In order to get a faster search time we implemented a balanced tree
//! structure, that offers logarithmic complexity of searching time.
//! However, the insertion and deletion operations become much more complex."
//!
//! The classic way to get a *balanced binary search tree* to answer
//! longest-prefix-match queries is to search over **prefix ranges**
//! (Lampson/Srinivasan/Varghese): every prefix covers a contiguous interval
//! of the 128-bit address space, CIDR intervals nest perfectly, so cutting
//! the space at every interval boundary yields segments with a unique most
//! specific prefix each.  A balanced tree over the segment start points
//! answers a lookup in one root-to-leaf descent.
//!
//! The price is exactly the one the paper calls out: inserting or deleting a
//! prefix changes the segment structure, so mutations rebuild the search
//! tree.  The paper argues this is acceptable because "routing table updates
//! appear once in 2 minutes" once a topology stabilises.

use std::collections::BTreeMap;

use taco_ipv6::{Ipv6Address, Ipv6Prefix};

use crate::route::Route;
use crate::table::{Lookup, LpmTable, TableKind};

fn addr_to_u128(a: &Ipv6Address) -> u128 {
    u128::from_be_bytes(a.octets())
}

fn prefix_interval(p: &Ipv6Prefix) -> (u128, u128) {
    let lo = addr_to_u128(&p.addr());
    let host_bits = 128 - u32::from(p.len());
    let hi = if host_bits == 128 { u128::MAX } else { lo | ((1u128 << host_bits) - 1) };
    (lo, hi)
}

/// One segment of the address space with a homogeneous longest match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    start: u128,
    route: Option<Route>,
}

/// A balanced-search-tree longest-prefix-match table.
///
/// Lookups descend a perfectly balanced binary tree over address-space
/// segments; [`Lookup::steps`] counts the tree levels visited, which is the
/// quantity the router microcode turns into memory probes and compares.
/// For the paper's 100-entry table the depth is ⌈log₂(2·100+1)⌉ = 8.
///
/// # Examples
///
/// ```
/// use taco_routing::{BalancedTreeTable, LpmTable, PortId, Route};
///
/// # fn main() -> Result<(), taco_ipv6::ParseError> {
/// let mut t = BalancedTreeTable::new();
/// for i in 0..100u16 {
///     let p = format!("2001:db8:{i:x}::/48").parse()?;
///     t.insert(Route::new(p, "fe80::1".parse()?, PortId(i), 1));
/// }
/// let l = t.lookup(&"2001:db8:63::1".parse()?);
/// assert_eq!(l.route().unwrap().interface(), PortId(0x63));
/// assert!(l.steps() <= 8); // logarithmic, not linear
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct BalancedTreeTable {
    /// Authoritative route set, keyed by prefix.
    routes: BTreeMap<Ipv6Prefix, Route>,
    /// Segments sorted by start address; an implicit perfectly balanced BST.
    segments: Vec<Segment>,
}

impl BalancedTreeTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a table from an iterator of routes.
    pub fn from_routes<I: IntoIterator<Item = Route>>(routes: I) -> Self {
        let mut t = Self::new();
        for r in routes {
            t.routes.insert(r.prefix(), r);
        }
        t.rebuild();
        t
    }

    /// Number of segments in the search structure (`2n+1` worst case for
    /// `n` prefixes).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Depth of the balanced search tree — the worst-case number of probes
    /// per lookup.
    pub fn depth(&self) -> u32 {
        (usize::BITS - self.segments.len().leading_zeros()).max(1)
    }

    /// The segments as `(start, route)` pairs in address order — the layout
    /// the router serialises into data memory for the microcoded tree walk.
    pub fn segments(&self) -> impl Iterator<Item = (Ipv6Address, Option<&Route>)> {
        self.segments.iter().map(|s| (Ipv6Address::new(s.start.to_be_bytes()), s.route.as_ref()))
    }

    /// Recomputes the segment structure from the authoritative route set.
    ///
    /// This is the "much more complex" mutation cost of the paper.  Prefix
    /// intervals form a laminar family (two prefixes either nest or are
    /// disjoint), so a single sweep with a nesting stack yields every
    /// segment's longest covering prefix in O(n log n).  Every single
    /// [`insert`](LpmTable::insert)/[`remove`](LpmTable::remove) pays it in
    /// full, so whoever replaces the whole route set goes through
    /// [`reload`](LpmTable::reload) — one rebuild, not one per route.
    ///
    /// An empty route set has no segments at all, however it was reached.
    fn rebuild(&mut self) {
        if self.routes.is_empty() {
            self.segments.clear();
            return;
        }
        let mut points: Vec<u128> = vec![0];
        for p in self.routes.keys() {
            let (lo, hi) = prefix_interval(p);
            points.push(lo);
            if hi != u128::MAX {
                points.push(hi + 1);
            }
        }
        points.sort_unstable();
        points.dedup();

        // Intervals ordered by start, outer (larger) before the inner ones
        // sharing it: sweeping in this order keeps the innermost active
        // prefix — the longest match — on top of the stack.
        let mut ordered: Vec<(u128, u128, Route)> = self
            .routes
            .iter()
            .map(|(p, r)| {
                let (lo, hi) = prefix_interval(p);
                (lo, hi, *r)
            })
            .collect();
        ordered.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));

        let mut active: Vec<(u128, Route)> = Vec::new(); // (end, route), innermost last
        let mut next = 0usize;
        self.segments = points
            .into_iter()
            .map(|start| {
                while active.last().is_some_and(|&(end, _)| end < start) {
                    active.pop();
                }
                while next < ordered.len() && ordered[next].0 <= start {
                    let (_, end, route) = ordered[next];
                    next += 1;
                    if end >= start {
                        active.push((end, route));
                    }
                }
                Segment { start, route: active.last().map(|&(_, r)| r) }
            })
            .collect();
    }
}

impl LpmTable for BalancedTreeTable {
    fn kind(&self) -> TableKind {
        TableKind::BalancedTree
    }

    fn insert(&mut self, route: Route) -> Option<Route> {
        let old = self.routes.insert(route.prefix(), route);
        self.rebuild();
        old
    }

    fn remove(&mut self, prefix: &Ipv6Prefix) -> Option<Route> {
        let old = self.routes.remove(prefix);
        if old.is_some() {
            self.rebuild();
        }
        old
    }

    fn lookup(&self, addr: &Ipv6Address) -> Lookup {
        if self.segments.is_empty() {
            return Lookup::miss(0);
        }
        let key = addr_to_u128(addr);
        // Descend the implicit balanced BST: classic binary search for the
        // rightmost segment start <= key, counting visited nodes.
        let mut lo = 0usize;
        let mut hi = self.segments.len();
        let mut steps = 0u32;
        let mut best = 0usize; // segments[0].start == 0 <= key always
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            steps += 1;
            if self.segments[mid].start <= key {
                best = mid;
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        match self.segments[best].route {
            Some(r) => Lookup::hit(r, steps),
            None => Lookup::miss(steps),
        }
    }

    fn get(&self, prefix: &Ipv6Prefix) -> Option<Route> {
        self.routes.get(prefix).copied()
    }

    fn len(&self) -> usize {
        self.routes.len()
    }

    fn routes(&self) -> Vec<Route> {
        self.routes.values().copied().collect()
    }

    fn clear(&mut self) {
        self.routes.clear();
        self.segments.clear();
    }

    fn reload(&mut self, routes: &[Route]) {
        self.routes = routes.iter().map(|r| (r.prefix(), *r)).collect();
        self.rebuild();
    }

    fn memory_words(&self) -> usize {
        // 8 words per serialised tree node (`TREE_NODE_WORDS`), one node
        // per range segment (up to `2n + 1` segments for `n` routes).
        8 * self.segment_count()
    }
}

impl FromIterator<Route> for BalancedTreeTable {
    fn from_iter<I: IntoIterator<Item = Route>>(iter: I) -> Self {
        Self::from_routes(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::PortId;

    fn r(p: &str, port: u16) -> Route {
        Route::new(p.parse().unwrap(), "fe80::1".parse().unwrap(), PortId(port), 1)
    }

    fn a(s: &str) -> Ipv6Address {
        s.parse().unwrap()
    }

    #[test]
    fn empty_misses() {
        let t = BalancedTreeTable::new();
        assert!(!t.lookup(&a("::1")).is_hit());
    }

    #[test]
    fn nested_prefixes_resolve_to_longest() {
        let t = BalancedTreeTable::from_routes([
            r("::/0", 0),
            r("2001:db8::/32", 1),
            r("2001:db8:1::/48", 2),
            r("2001:db8:1:1::/64", 3),
        ]);
        assert_eq!(t.lookup(&a("2001:db8:1:1::5")).route().unwrap().interface(), PortId(3));
        assert_eq!(t.lookup(&a("2001:db8:1:2::5")).route().unwrap().interface(), PortId(2));
        assert_eq!(t.lookup(&a("2001:db8:9::5")).route().unwrap().interface(), PortId(1));
        assert_eq!(t.lookup(&a("9::")).route().unwrap().interface(), PortId(0));
    }

    #[test]
    fn address_after_interval_end_misses() {
        let t = BalancedTreeTable::from_routes([r("2001:db8::/32", 1)]);
        assert!(!t.lookup(&a("2001:db9::1")).is_hit());
        assert!(!t.lookup(&a("::1")).is_hit());
        assert!(!t.lookup(&a("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff")).is_hit());
    }

    #[test]
    fn full_space_prefix_interval() {
        // ::/0 covers the whole space including the last address.
        let t = BalancedTreeTable::from_routes([r("::/0", 7)]);
        assert!(t.lookup(&a("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff")).is_hit());
        assert!(t.lookup(&a("::")).is_hit());
    }

    #[test]
    fn steps_are_logarithmic() {
        let t = BalancedTreeTable::from_routes(
            (0..100u16).map(|i| r(&format!("2001:db8:{i:x}::/48"), i)),
        );
        let l = t.lookup(&a("2001:db8:40::1"));
        assert!(l.is_hit());
        assert!(l.steps() <= t.depth());
        assert!(t.depth() <= 8, "depth {} for 100 entries", t.depth());
    }

    #[test]
    fn segment_count_bound() {
        let t = BalancedTreeTable::from_routes(
            (0..50u16).map(|i| r(&format!("2001:db8:{i:x}::/48"), i)),
        );
        assert!(t.segment_count() <= 2 * 50 + 1);
        assert!(t.segment_count() > 50);
    }

    #[test]
    fn mutation_rebuilds() {
        let mut t = BalancedTreeTable::new();
        t.insert(r("2001:db8::/32", 1));
        assert_eq!(t.lookup(&a("2001:db8::1")).route().unwrap().interface(), PortId(1));
        t.insert(r("2001:db8::/48", 2));
        assert_eq!(t.lookup(&a("2001:db8::1")).route().unwrap().interface(), PortId(2));
        t.remove(&"2001:db8::/48".parse().unwrap());
        assert_eq!(t.lookup(&a("2001:db8::1")).route().unwrap().interface(), PortId(1));
        t.remove(&"2001:db8::/32".parse().unwrap());
        assert!(!t.lookup(&a("2001:db8::1")).is_hit());
    }

    #[test]
    fn every_way_of_being_empty_agrees() {
        let only = r("2001:db8::/32", 1);
        let mut removed = BalancedTreeTable::from_routes([only]);
        removed.remove(&only.prefix());
        let mut cleared = BalancedTreeTable::from_routes([only]);
        cleared.clear();
        let mut reloaded = BalancedTreeTable::from_routes([only]);
        reloaded.reload(&[]);
        let built = BalancedTreeTable::from_routes([]);
        for (how, t) in [
            ("new", BalancedTreeTable::new()),
            ("from_routes([])", built),
            ("last route removed", removed),
            ("cleared", cleared),
            ("reload(&[])", reloaded),
        ] {
            assert_eq!((t.len(), t.segment_count(), t.memory_words()), (0, 0, 0), "{how}");
            assert_eq!(t.lookup(&a("2001:db8::1")), Lookup::miss(0), "{how}");
        }
    }

    #[test]
    fn insert_replaces() {
        let mut t = BalancedTreeTable::new();
        assert!(t.insert(r("2001:db8::/32", 1)).is_none());
        assert_eq!(t.insert(r("2001:db8::/32", 9)).unwrap().interface(), PortId(1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn host_route() {
        let t = BalancedTreeTable::from_routes([r("2001:db8::7/128", 5), r("::/0", 0)]);
        assert_eq!(t.lookup(&a("2001:db8::7")).route().unwrap().interface(), PortId(5));
        assert_eq!(t.lookup(&a("2001:db8::8")).route().unwrap().interface(), PortId(0));
    }

    #[test]
    fn segments_iterate_in_order() {
        let t = BalancedTreeTable::from_routes([r("8000::/1", 1)]);
        let starts: Vec<_> = t.segments().map(|(s, _)| s).collect();
        assert_eq!(starts, vec![a("::"), a("8000::")]);
    }
}
