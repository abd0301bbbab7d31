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
//! appear once in 2 minutes" once a topology stabilises.  The routes are
//! kept in [`Ipv6Prefix`] order, which is interval order (start, then the
//! outer interval first), so a bulk load is one sort and every rebuild is
//! one linear sweep.

use taco_ipv6::{Ipv6Address, Ipv6Prefix};

use crate::route::Route;
use crate::table::{sort_keeping_last, Lookup, LpmTable, TableKind};

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
    /// Authoritative route set, one per prefix, in [`Ipv6Prefix`] order.
    routes: Vec<Route>,
    /// Segments sorted by start address; an implicit perfectly balanced BST.
    segments: Vec<Segment>,
}

impl BalancedTreeTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a table from an iterator of routes (later duplicates replace
    /// earlier ones, as with repeated [`LpmTable::insert`] calls).
    pub fn from_routes<I: IntoIterator<Item = Route>>(routes: I) -> Self {
        let mut t = Self::new();
        t.load(routes);
        t
    }

    /// Number of segments in the search structure (`2n+1` worst case for
    /// `n` prefixes).
    pub(crate) fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The segments as `(start, route)` pairs in address order — the layout
    /// the router serialises into data memory for the microcoded tree walk.
    pub fn segments(&self) -> impl Iterator<Item = (Ipv6Address, Option<&Route>)> {
        self.segments.iter().map(|s| (Ipv6Address::new(s.start.to_be_bytes()), s.route.as_ref()))
    }

    fn position(&self, prefix: &Ipv6Prefix) -> Result<usize, usize> {
        self.routes.binary_search_by_key(prefix, |r| r.prefix())
    }

    /// Adds `routes` as one `insert` each would, with one sort and one
    /// rebuild.
    fn load(&mut self, routes: impl IntoIterator<Item = Route>) {
        self.routes.extend(routes);
        sort_keeping_last(&mut self.routes, |p| *p);
        self.rebuild();
    }

    /// Recomputes the segment structure from the authoritative route set.
    ///
    /// This is the "much more complex" mutation cost of the paper.  Prefix
    /// intervals form a laminar family (two prefixes either nest or are
    /// disjoint), and the routes are held in interval order, so one linear
    /// sweep with a nesting stack cuts every segment in address order: a
    /// prefix's start opens one labelled with it, and the address after an
    /// enclosed prefix ends opens one labelled with the prefix around it.
    /// A cut at an address a segment already starts at relabels that
    /// segment, so the innermost prefix there wins.  Every single
    /// [`insert`](LpmTable::insert)/[`remove`](LpmTable::remove) pays it in
    /// full, so whoever replaces the whole route set goes through
    /// [`reload`](LpmTable::reload) — one sort and one rebuild, not one
    /// rebuild per route.
    ///
    /// An empty route set has no segments at all, however it was reached.
    fn rebuild(&mut self) {
        fn cut(segments: &mut Vec<Segment>, start: u128, route: Option<Route>) {
            match segments.last_mut() {
                Some(last) if last.start == start => last.route = route,
                _ => segments.push(Segment { start, route }),
            }
        }
        self.segments.clear();
        if self.routes.is_empty() {
            return;
        }
        self.segments.push(Segment { start: 0, route: None });
        // (end, route) of every prefix holding the sweep's address,
        // innermost last.
        let mut open: Vec<(u128, Route)> = Vec::new();
        for route in &self.routes {
            let (start, end) = prefix_interval(&route.prefix());
            while let Some(&(closed, _)) = open.last().filter(|&&(e, _)| e < start) {
                open.pop();
                cut(&mut self.segments, closed + 1, open.last().map(|&(_, r)| r));
            }
            cut(&mut self.segments, start, Some(*route));
            open.push((end, *route));
        }
        while let Some((closed, _)) = open.pop() {
            if closed != u128::MAX {
                cut(&mut self.segments, closed + 1, open.last().map(|&(_, r)| r));
            }
        }
    }
}

impl LpmTable for BalancedTreeTable {
    fn kind(&self) -> TableKind {
        TableKind::BalancedTree
    }

    fn insert(&mut self, route: Route) -> Option<Route> {
        let old = match self.position(&route.prefix()) {
            Ok(i) => Some(std::mem::replace(&mut self.routes[i], route)),
            Err(i) => {
                self.routes.insert(i, route);
                None
            }
        };
        self.rebuild();
        old
    }

    fn remove(&mut self, prefix: &Ipv6Prefix) -> Option<Route> {
        let old = self.routes.remove(self.position(prefix).ok()?);
        self.rebuild();
        Some(old)
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
        self.position(prefix).ok().map(|i| self.routes[i])
    }

    fn len(&self) -> usize {
        self.routes.len()
    }

    fn routes(&self) -> Vec<Route> {
        self.routes.clone()
    }

    fn clear(&mut self) {
        self.routes.clear();
        self.segments.clear();
    }

    fn reload(&mut self, routes: &[Route]) {
        self.routes.clear();
        self.load(routes.iter().copied());
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
    use std::collections::BTreeMap;

    use super::*;
    use crate::route::PortId;
    use crate::test_rng::Rng;

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
        // The implicit balanced BST over at most 201 segments is 8 deep.
        let depth = usize::BITS - t.segment_count().leading_zeros();
        assert!(l.steps() <= depth && depth <= 8, "{} steps, depth {depth}", l.steps());
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

    /// The segments as the two-sort build cut them before the one sweep,
    /// from `routes` in any order, one per prefix: every boundary collected,
    /// sorted and deduplicated, then the intervals sorted by start, outer
    /// first, and swept against the boundaries.
    fn two_sort_segments(routes: &[Route]) -> Vec<Segment> {
        if routes.is_empty() {
            return Vec::new();
        }
        let mut points: Vec<u128> = vec![0];
        for r in routes {
            let (lo, hi) = prefix_interval(&r.prefix());
            points.push(lo);
            if hi != u128::MAX {
                points.push(hi + 1);
            }
        }
        points.sort_unstable();
        points.dedup();
        let mut ordered: Vec<(u128, u128, Route)> = routes
            .iter()
            .map(|r| {
                let (lo, hi) = prefix_interval(&r.prefix());
                (lo, hi, *r)
            })
            .collect();
        ordered.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut active: Vec<(u128, Route)> = Vec::new();
        let mut next = 0usize;
        points
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
            .collect()
    }

    /// Seed of the two properties below; case `n` runs over `Rng(SEED ^ n)`
    /// and a failure names it.
    const SEED: u64 = 0x7EE5_0052;

    /// A route around one of `anchors`: its bits past a random point
    /// scrambled, under a length drawn mostly from the lengths where
    /// intervals nest, share a start or end where the next starts; /0 and
    /// /128 on purpose, and the anchors include the first and last address.
    fn nested_route(rng: &mut Rng, anchors: &[u128]) -> Route {
        const LENS: [u8; 12] = [0, 1, 2, 3, 16, 32, 47, 48, 64, 126, 127, 128];
        let wide = u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
        let flip = wide.checked_shr(rng.below(129) as u32).unwrap_or(0);
        let anchor = anchors[rng.below(anchors.len() as u64) as usize];
        let len = match rng.below(3) {
            0 => rng.below(129) as u8,
            _ => LENS[rng.below(LENS.len() as u64) as usize],
        };
        let prefix = Ipv6Prefix::new(Ipv6Address::new((anchor ^ flip).to_be_bytes()), len).unwrap();
        Route::new(prefix, "fe80::1".parse().unwrap(), PortId(rng.below(64) as u16), 1)
    }

    fn anchors(rng: &mut Rng) -> Vec<u128> {
        let wide = |rng: &mut Rng| u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
        vec![0, u128::MAX, wide(rng), wide(rng), wide(rng)]
    }

    #[test]
    fn the_sweep_cuts_the_segments_the_two_sort_build_cut() {
        // Cases holding ::/0, a /128, two prefixes with one start, and an
        // end whose successor is another prefix's start.
        let mut seen = [0u32; 4];
        for case in 0..3_000u64 {
            let mut rng = Rng(SEED ^ case);
            let anchors = anchors(&mut rng);
            let mut routes: Vec<Route> =
                (0..rng.below(40)).map(|_| nested_route(&mut rng, &anchors)).collect();
            // Repeat some prefixes under another port: the last one holds.
            for _ in 0..rng.below(4) {
                if let Some(&again) = routes.get(rng.below(40) as usize) {
                    routes.push(Route::new(again.prefix(), again.next_hop(), PortId(99), 2));
                }
            }
            let model: BTreeMap<Ipv6Prefix, Route> =
                routes.iter().map(|r| (r.prefix(), *r)).collect();
            let held: Vec<Route> = model.values().copied().collect();
            let t = BalancedTreeTable::from_routes(routes.iter().copied());
            assert_eq!(t.routes(), held, "case {case}: routes");
            assert_eq!(t.segments, two_sort_segments(&held), "case {case}: segments");

            let intervals: Vec<(u128, u128)> =
                held.iter().map(|r| prefix_interval(&r.prefix())).collect();
            let lens = || held.iter().map(|r| r.prefix().len());
            let shared_start = intervals.windows(2).any(|w| w[0].0 == w[1].0);
            let touching = intervals
                .iter()
                .any(|&(_, hi)| intervals.iter().any(|&(lo, _)| hi.checked_add(1) == Some(lo)));
            for (count, case_has) in seen.iter_mut().zip([
                lens().any(|l| l == 0),
                lens().any(|l| l == 128),
                shared_start,
                touching,
            ]) {
                *count += u32::from(case_has);
            }
        }
        assert!(
            seen.iter().all(|&n| n > 1_000),
            "cases with /0, /128, one start, touching: {seen:?}"
        );
    }

    #[test]
    fn every_history_keeps_the_model_and_its_segments() {
        for case in 0..256u64 {
            let mut rng = Rng(SEED ^ case);
            let anchors = anchors(&mut rng);
            let mut t = BalancedTreeTable::new();
            // What one `insert` per route leaves, per prefix.
            let mut model = BTreeMap::new();
            for step in 0..60 {
                let at = format!("seed {SEED:#x}, case {case}, step {step}");
                let probe = match rng.below(10) {
                    0..=5 => {
                        let r = nested_route(&mut rng, &anchors);
                        assert_eq!(t.insert(r), model.insert(r.prefix(), r), "{at}: insert");
                        r.prefix()
                    }
                    6 | 7 => {
                        // Half the removals name a held prefix.
                        let prefix = match t.routes.len() {
                            n if n > 0 && rng.below(2) == 0 => {
                                t.routes[rng.below(n as u64) as usize].prefix()
                            }
                            _ => nested_route(&mut rng, &anchors).prefix(),
                        };
                        assert_eq!(t.remove(&prefix), model.remove(&prefix), "{at}: remove");
                        prefix
                    }
                    _ => {
                        let mut routes: Vec<Route> =
                            (0..rng.below(24)).map(|_| nested_route(&mut rng, &anchors)).collect();
                        for _ in 0..rng.below(4) {
                            if let Some(&again) = routes.get(rng.below(24) as usize) {
                                routes.push(again.with_metric(2));
                            }
                        }
                        t.reload(&routes);
                        model = routes.iter().map(|r| (r.prefix(), *r)).collect();
                        nested_route(&mut rng, &anchors).prefix()
                    }
                };
                assert_eq!(t.get(&probe), model.get(&probe).copied(), "{at}: get");
                assert_eq!(t.len(), model.len(), "{at}: len");
                let held: Vec<Route> = model.values().copied().collect();
                assert_eq!(t.routes(), held, "{at}: routes");
                assert_eq!(t.segments, two_sort_segments(&held), "{at}: segments");
            }
        }
    }
}
