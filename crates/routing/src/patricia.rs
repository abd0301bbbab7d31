//! A path-compressed (PATRICIA) binary radix trie — internet-scale LPM.
//!
//! A bitwise radix trie spends one node per prefix *bit*; at BGP size
//! (~200k prefixes, most of them /32–/64) that is tens of nodes per route
//! and a pointer chase per bit on every lookup.  The
//! PATRICIA organisation — per Click's `BSDIP6Lookup` exemplar, "fast
//! database updates, O(W) lookups" — collapses every non-branching chain
//! into a single node carrying the full prefix, so the node count is
//! bounded by `2n − 1` for `n` routes and a lookup probes at most one node
//! per *branching* bit.
//!
//! Each node stores a covering prefix, an optional route (internal nodes
//! may carry routes: aliased and nested prefixes land on the same spine),
//! and two children keyed by the address bit just past the node's prefix
//! length.  Descent tests one bit per node but must verify the *whole*
//! node prefix against the address — the skipped bits are not implied by
//! the path — and the deepest verified route wins.  Nodes live in the
//! shared [`Arena`]: removal prunes empty leaves and splices out
//! routeless one-child interior nodes, returning slots to the free list
//! so churn keeps the arena bounded.

use taco_ipv6::{Ipv6Address, Ipv6Prefix};

use crate::arena::Arena;
use crate::route::Route;
use crate::table::{Lookup, LpmTable, TableKind};

#[derive(Debug, Clone, Default)]
struct Node {
    /// The full covering prefix — `len()` is the branch bit.
    prefix: Ipv6Prefix,
    route: Option<Route>,
    children: [Option<usize>; 2],
}

/// A path-compressed binary radix trie over IPv6 prefixes.
///
/// # Examples
///
/// ```
/// use taco_routing::{LpmTable, PatriciaTable, PortId, Route};
///
/// # fn main() -> Result<(), taco_ipv6::ParseError> {
/// let mut t = PatriciaTable::new();
/// t.insert(Route::new("2001:db8::/32".parse()?, "fe80::1".parse()?, PortId(1), 1));
/// let l = t.lookup(&"2001:db8::42".parse()?);
/// assert!(l.is_hit());
/// assert_eq!(l.steps(), 2); // root + one path-compressed node for all 32 bits
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PatriciaTable {
    /// Slot 0 is the `::/0` root, present even when empty.
    nodes: Arena<Node>,
    len: usize,
}

impl Default for PatriciaTable {
    fn default() -> Self {
        PatriciaTable { nodes: Arena::with_root(Node::default()), len: 0 }
    }
}

impl PatriciaTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a table from an iterator of routes.
    pub fn from_routes<I: IntoIterator<Item = Route>>(routes: I) -> Self {
        let mut t = Self::new();
        for r in routes {
            t.insert(r);
        }
        t
    }

    /// Total number of arena slots, including free-listed ones.  Bounded
    /// by `2n − 1` live nodes for `n` routes (plus the root), and bounded
    /// under churn because pruned slots are reused.
    pub fn node_count(&self) -> usize {
        self.nodes.slot_count()
    }

    /// Arena slots currently sitting on the free list, awaiting reuse.
    pub fn free_count(&self) -> usize {
        self.nodes.free_count()
    }

    /// Flattened view of the node arena for serialisation into processor
    /// memory: `(prefix, route, left child, right child)` per slot,
    /// indexed by arena position (the root is node 0; free-listed slots
    /// read as empty `::/0` nodes with no children).
    pub fn flat_nodes(
        &self,
    ) -> impl Iterator<Item = (Ipv6Prefix, Option<&Route>, Option<usize>, Option<usize>)> {
        self.nodes.iter().map(|n| (n.prefix, n.route.as_ref(), n.children[0], n.children[1]))
    }

    /// Descends to the node holding exactly `prefix`, if present.
    fn find_exact(&self, prefix: &Ipv6Prefix) -> Option<usize> {
        let mut idx = 0usize;
        while self.nodes[idx].prefix.len() < prefix.len() {
            let b = prefix.addr().bit(self.nodes[idx].prefix.len()) as usize;
            let c = self.nodes[idx].children[b]?;
            if !self.nodes[c].prefix.covers(prefix) {
                return None;
            }
            idx = c;
        }
        // Descent maintains "node covers prefix", so equal length ⇒ equal.
        (self.nodes[idx].prefix.len() == prefix.len()).then_some(idx)
    }

    /// Prunes upward from `idx` after a route removal.  `path` is the
    /// root-to-parent walk as `(parent, child slot)` pairs.  A routeless
    /// childless node is released; a routeless one-child interior node is
    /// spliced out (its only child inherits the parent link) — both keep
    /// the `2n − 1` bound an accumulation of dead branch nodes would break.
    fn prune(&mut self, idx: usize, mut path: Vec<(usize, usize)>) {
        let mut cur = idx;
        while cur != 0 {
            let node = &self.nodes[cur];
            if node.route.is_some() {
                break;
            }
            let kids: Vec<usize> = node.children.iter().flatten().copied().collect();
            let Some((parent, b)) = path.pop() else { break };
            match kids[..] {
                [] => {
                    self.nodes[parent].children[b] = None;
                    self.nodes.release(cur);
                    cur = parent;
                }
                [only] => {
                    self.nodes[parent].children[b] = Some(only);
                    self.nodes.release(cur);
                    break;
                }
                _ => break,
            }
        }
    }
}

impl LpmTable for PatriciaTable {
    fn kind(&self) -> TableKind {
        TableKind::Patricia
    }

    fn insert(&mut self, route: Route) -> Option<Route> {
        let prefix = route.prefix();
        let mut idx = 0usize;
        // Invariant: `nodes[idx].prefix` covers `prefix`.
        loop {
            let node_len = self.nodes[idx].prefix.len();
            if node_len == prefix.len() {
                let old = self.nodes[idx].route.replace(route);
                if old.is_none() {
                    self.len += 1;
                }
                return old;
            }
            let b = prefix.addr().bit(node_len) as usize;
            let Some(c) = self.nodes[idx].children[b] else {
                let leaf =
                    self.nodes.alloc(Node { prefix, route: Some(route), children: [None, None] });
                self.nodes[idx].children[b] = Some(leaf);
                self.len += 1;
                return None;
            };
            let child = self.nodes[c].prefix;
            let common =
                child.addr().common_prefix_len(&prefix.addr()).min(child.len()).min(prefix.len());
            if common == child.len() {
                // The child covers the new prefix — keep descending.
                idx = c;
            } else if common == prefix.len() {
                // The new prefix covers the child — interpose a route node.
                let down = child.addr().bit(prefix.len()) as usize;
                let mut children = [None, None];
                children[down] = Some(c);
                let mid = self.nodes.alloc(Node { prefix, route: Some(route), children });
                self.nodes[idx].children[b] = Some(mid);
                self.len += 1;
                return None;
            } else {
                // Divergence below both: a routeless branch node at the
                // first disagreeing bit, with the old child and a new leaf
                // on opposite sides.
                let fork =
                    Ipv6Prefix::new(prefix.addr().truncated(common), common).expect("common ≤ 128");
                let leaf =
                    self.nodes.alloc(Node { prefix, route: Some(route), children: [None, None] });
                let mut children = [None, None];
                children[child.addr().bit(common) as usize] = Some(c);
                children[prefix.addr().bit(common) as usize] = Some(leaf);
                let branch = self.nodes.alloc(Node { prefix: fork, route: None, children });
                self.nodes[idx].children[b] = Some(branch);
                self.len += 1;
                return None;
            }
        }
    }

    fn remove(&mut self, prefix: &Ipv6Prefix) -> Option<Route> {
        let mut path = Vec::new();
        let mut idx = 0usize;
        while self.nodes[idx].prefix.len() < prefix.len() {
            let b = prefix.addr().bit(self.nodes[idx].prefix.len()) as usize;
            let c = self.nodes[idx].children[b]?;
            if !self.nodes[c].prefix.covers(prefix) {
                return None;
            }
            path.push((idx, b));
            idx = c;
        }
        if self.nodes[idx].prefix.len() != prefix.len() {
            return None;
        }
        let old = self.nodes[idx].route.take()?;
        self.len -= 1;
        self.prune(idx, path);
        Some(old)
    }

    fn lookup(&self, addr: &Ipv6Address) -> Lookup {
        let mut idx = 0usize;
        let mut steps = 1u32; // the root is probed too
        let mut best = self.nodes[0].route;
        loop {
            let node_len = self.nodes[idx].prefix.len();
            if node_len >= 128 {
                break; // a /128 host node is always a leaf
            }
            let b = addr.bit(node_len) as usize;
            let Some(c) = self.nodes[idx].children[b] else { break };
            steps += 1;
            // The branch bit chose the child, but the compressed bits in
            // between are not implied by the path — verify the whole child
            // prefix.  On mismatch no descendant can match either (their
            // prefixes all extend this one), so the walk stops.
            if !self.nodes[c].prefix.contains(addr) {
                break;
            }
            if self.nodes[c].route.is_some() {
                best = self.nodes[c].route;
            }
            idx = c;
        }
        match best {
            Some(r) => Lookup::hit(r, steps),
            None => Lookup::miss(steps),
        }
    }

    fn get(&self, prefix: &Ipv6Prefix) -> Option<Route> {
        self.find_exact(prefix).and_then(|i| self.nodes[i].route)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn routes(&self) -> Vec<Route> {
        self.nodes.iter().filter_map(|n| n.route).collect()
    }

    fn clear(&mut self) {
        self.nodes.reset(Node::default());
        self.len = 0;
    }

    fn memory_words(&self) -> usize {
        // 16 words per arena slot (`PAT_NODE_WORDS`): children, result,
        // branch-bit descriptor and the four interleaved mask/prefix word
        // pairs the verify step walks.  Counts free-listed slots too — the
        // churn high-water mark is exactly what the footprint metric
        // watches.
        16 * self.node_count()
    }
}

impl FromIterator<Route> for PatriciaTable {
    fn from_iter<I: IntoIterator<Item = Route>>(iter: I) -> Self {
        Self::from_routes(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::PortId;
    use crate::sequential::SequentialTable;

    fn r(p: &str, port: u16) -> Route {
        Route::new(p.parse().unwrap(), "fe80::1".parse().unwrap(), PortId(port), 1)
    }

    fn a(s: &str) -> Ipv6Address {
        s.parse().unwrap()
    }

    #[test]
    fn empty_misses() {
        let t = PatriciaTable::new();
        let l = t.lookup(&a("::1"));
        assert!(!l.is_hit());
        assert_eq!(l.steps(), 1);
    }

    #[test]
    fn longest_match_with_nesting_and_default() {
        let t = PatriciaTable::from_routes([
            r("::/0", 0),
            r("2001:db8::/32", 1),
            r("2001:db8:1::/48", 2),
        ]);
        assert_eq!(t.lookup(&a("2001:db8:1::9")).route().unwrap().interface(), PortId(2));
        assert_eq!(t.lookup(&a("2001:db8:2::9")).route().unwrap().interface(), PortId(1));
        assert_eq!(t.lookup(&a("abcd::")).route().unwrap().interface(), PortId(0));
    }

    #[test]
    fn path_compression_bounds_nodes_and_steps() {
        // One /32 route is a single node, not 32 — and the lookup probes
        // root + leaf only.
        let t = PatriciaTable::from_routes([r("2001:db8::/32", 1)]);
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.lookup(&a("2001:db8::1")).steps(), 2);
        // n routes never need more than 2n − 1 nodes plus the root.
        let routes: Vec<Route> =
            (0..64u16).map(|i| r(&format!("2001:db8:{i:x}::/48"), i)).collect();
        let n = routes.len();
        let t = PatriciaTable::from_routes(routes);
        assert_eq!(t.len(), n);
        assert!(t.node_count() <= 2 * n, "{} nodes for {n} routes", t.node_count());
    }

    #[test]
    fn skipped_bits_are_verified_not_assumed() {
        // 2001:db8::/32 and 3001:db8::/32 first disagree at bit 2, so the
        // fork is near the top and each leaf compresses ~30 bits.  An
        // address agreeing on the *branch* bits but not the compressed
        // ones must miss.
        let t = PatriciaTable::from_routes([r("2001:db8::/32", 1), r("3001:db8::/32", 2)]);
        assert_eq!(t.lookup(&a("2001:db8::1")).route().unwrap().interface(), PortId(1));
        assert_eq!(t.lookup(&a("3001:db8::1")).route().unwrap().interface(), PortId(2));
        assert!(!t.lookup(&a("2001:db9::1")).is_hit(), "compressed bits must be checked");
        assert!(!t.lookup(&a("2101:db8::1")).is_hit());
    }

    #[test]
    fn interposed_covering_prefix_lands_between() {
        // Insert the more-specific first, then a covering /16: the /16
        // must be interposed on the spine, not lost.
        let mut t = PatriciaTable::new();
        t.insert(r("2001:db8::/32", 1));
        t.insert(r("2001::/16", 2));
        assert_eq!(t.lookup(&a("2001:db8::1")).route().unwrap().interface(), PortId(1));
        assert_eq!(t.lookup(&a("2001:ffff::1")).route().unwrap().interface(), PortId(2));
        assert!(!t.lookup(&a("2002::1")).is_hit());
        assert_eq!(t.node_count(), 3);
    }

    #[test]
    fn insert_replace_remove() {
        let mut t = PatriciaTable::new();
        assert!(t.insert(r("2001:db8::/32", 1)).is_none());
        assert_eq!(t.len(), 1);
        assert_eq!(t.insert(r("2001:db8::/32", 2)).unwrap().interface(), PortId(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(&"2001:db8::/32".parse().unwrap()).unwrap().interface(), PortId(2));
        assert_eq!(t.len(), 0);
        assert!(t.remove(&"2001:db8::/32".parse().unwrap()).is_none());
        assert!(!t.lookup(&a("2001:db8::1")).is_hit());
    }

    #[test]
    fn get_exact_only() {
        let t = PatriciaTable::from_routes([r("2001:db8::/32", 1)]);
        assert!(t.get(&"2001:db8::/32".parse().unwrap()).is_some());
        assert!(t.get(&"2001:db8::/33".parse().unwrap()).is_none());
        assert!(t.get(&"2001:db8::/31".parse().unwrap()).is_none());
        assert!(t.get(&"2001:db9::/32".parse().unwrap()).is_none());
    }

    #[test]
    fn default_route_lives_at_the_root() {
        let t = PatriciaTable::from_routes([r("::/0", 3)]);
        let l = t.lookup(&a("1234::1"));
        assert_eq!(l.route().unwrap().interface(), PortId(3));
        assert_eq!(l.steps(), 1);
        assert_eq!(t.node_count(), 1, "the default route reuses the root node");
    }

    #[test]
    fn removal_releases_leaves_and_splices_dead_branches() {
        let mut t = PatriciaTable::new();
        t.insert(r("2001:db8:aaaa::/48", 1));
        t.insert(r("2001:db8:aaab::/48", 2));
        // Two leaves under one routeless fork node.
        assert_eq!(t.node_count(), 4);
        t.remove(&"2001:db8:aaab::/48".parse().unwrap());
        // The leaf goes, and the now one-child routeless fork is spliced out.
        assert_eq!(t.free_count(), 2, "leaf and dead fork both reclaimed");
        assert_eq!(t.lookup(&a("2001:db8:aaaa::1")).route().unwrap().interface(), PortId(1));
        // The freed slots are drained before the arena grows: the next two
        // routes need three nodes (a fork and two leaves) but only one
        // fresh slot.
        t.insert(r("fe80::/10", 3));
        t.insert(r("fec0::/10", 4));
        assert_eq!((t.node_count(), t.free_count()), (5, 0));
        assert_eq!(t.lookup(&a("fec0::9")).route().unwrap().interface(), PortId(4));
    }

    #[test]
    fn pruning_stops_at_route_carrying_interior_nodes() {
        let mut t = PatriciaTable::new();
        t.insert(r("2001:db8::/32", 1));
        t.insert(r("2001:db8::/48", 2));
        t.remove(&"2001:db8::/48".parse().unwrap());
        assert_eq!(t.free_count(), 1, "only the /48 leaf is pruned");
        assert_eq!(t.lookup(&a("2001:db8::1")).route().unwrap().interface(), PortId(1));
        // Removing an interior route keeps the node while children need it.
        let mut t = PatriciaTable::from_routes([r("2001:db8::/32", 1), r("2001:db8::/48", 2)]);
        t.remove(&"2001:db8::/32".parse().unwrap());
        assert_eq!(t.lookup(&a("2001:db8::1")).route().unwrap().interface(), PortId(2));
        assert!(!t.lookup(&a("2001:db8:ffff::1")).is_hit(), "/32 is really gone");
    }

    #[test]
    fn churn_keeps_the_arena_bounded() {
        // The free-list regression: a flapping route must not grow the
        // arena past its high-water mark.
        let mut t = PatriciaTable::from_routes([r("::/0", 0), r("2001:db8::/32", 1)]);
        let high_water = {
            t.insert(r("2001:db8:aaaa::/48", 7));
            t.node_count()
        };
        t.remove(&"2001:db8:aaaa::/48".parse().unwrap());
        for flap in 0..1_000u16 {
            let route = r("2001:db8:aaaa::/48", flap);
            t.insert(route);
            assert_eq!(t.remove(&route.prefix()).unwrap().interface(), PortId(flap));
            assert!(
                t.node_count() <= high_water,
                "arena leaked: {} nodes after {} flaps (high water {})",
                t.node_count(),
                flap + 1,
                high_water
            );
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup(&a("2001:db8::1")).route().unwrap().interface(), PortId(1));
    }

    #[test]
    fn churn_agrees_with_the_linear_scan_oracle_at_every_step() {
        // Seeded pseudo-random insert/remove history; after every step the
        // patricia table and the linear-scan oracle agree on a probe batch.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        let mut pat = PatriciaTable::new();
        let mut scan = SequentialTable::new();
        let mut live: Vec<Route> = Vec::new();
        for step in 0..400 {
            let x = next();
            if x % 3 != 0 || live.is_empty() {
                let len = [0u8, 16, 29, 32, 48, 64, 128][(x >> 8) as usize % 7];
                let addr = Ipv6Address::from_words([
                    0x2001_0000 | (x >> 16) as u32 & 0xffff,
                    (x >> 32) as u32,
                    (x >> 24) as u32,
                    x as u32,
                ])
                .truncated(len);
                let route = Route::new(
                    Ipv6Prefix::new(addr, len).unwrap(),
                    Ipv6Address::LOOPBACK,
                    PortId((x % 7) as u16),
                    1,
                );
                assert_eq!(pat.insert(route).map(|r| r.interface()), {
                    let old = scan.insert(route).map(|r| r.interface());
                    if old.is_none() {
                        live.push(route);
                    }
                    old
                });
            } else {
                let victim = live.swap_remove((x >> 16) as usize % live.len());
                assert_eq!(
                    pat.remove(&victim.prefix()).map(|r| r.interface()),
                    scan.remove(&victim.prefix()).map(|r| r.interface()),
                    "step {step}: removal of {} diverged",
                    victim.prefix()
                );
            }
            assert_eq!(pat.len(), scan.len(), "step {step}");
            for probe in 0..8u64 {
                let y = next() ^ probe;
                let addr = Ipv6Address::from_words([
                    0x2001_0000 | (y >> 16) as u32 & 0xffff,
                    (y >> 32) as u32,
                    (y >> 24) as u32,
                    y as u32,
                ]);
                assert_eq!(
                    pat.lookup(&addr).route().map(|r| (r.prefix(), r.interface())),
                    scan.lookup(&addr).route().map(|r| (r.prefix(), r.interface())),
                    "step {step}: lookup {addr} diverged"
                );
            }
        }
    }

    #[test]
    fn clear_resets_the_free_list() {
        let mut t = PatriciaTable::from_routes([r("2001:db8::/32", 1), r("2001:db9::/32", 2)]);
        t.remove(&"2001:db8::/32".parse().unwrap());
        assert!(t.free_count() > 0);
        t.clear();
        assert_eq!((t.node_count(), t.free_count(), t.len()), (1, 0, 0));
        t.insert(r("8000::/1", 4));
        assert_eq!(t.lookup(&a("9000::1")).route().unwrap().interface(), PortId(4));
    }
}
