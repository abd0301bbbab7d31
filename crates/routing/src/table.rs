//! The longest-prefix-match table abstraction shared by every engine.

use std::fmt;

use taco_ipv6::{Ipv6Address, Ipv6Prefix};

use crate::route::Route;

/// Which routing-table organisation an engine implements.
///
/// These are the three alternatives of the paper's Table 1 plus the
/// path-compressed PATRICIA radix tree that scales to internet-size tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableKind {
    /// Entries laid out sequentially in a cache memory; linear scan.
    Sequential,
    /// Balanced search tree over prefix ranges; logarithmic search.
    BalancedTree,
    /// Content-addressable memory + SRAM; constant-time search.
    Cam,
    /// Path-compressed binary radix trie (PATRICIA); one node per
    /// branching bit, internet-scale.
    Patricia,
}

impl TableKind {
    /// All kinds evaluated in the paper's Table 1, in row order.
    pub const PAPER_KINDS: [TableKind; 3] =
        [TableKind::Sequential, TableKind::BalancedTree, TableKind::Cam];

    /// Every organisation the repo implements, paper rows first — the
    /// enumeration the differential oracles and the wire schema iterate.
    pub const ALL_KINDS: [TableKind; 4] =
        [TableKind::Sequential, TableKind::BalancedTree, TableKind::Cam, TableKind::Patricia];

    /// Builds an engine of this organisation, seeded with `routes` — the
    /// one construction path shared by the evaluation pipeline, the
    /// behavioural router and the scenario engine.
    ///
    /// The CAM model's paper-default capacity (8192 rows) is widened when
    /// the seed exceeds it, so internet-size differential tables build on
    /// every organisation.
    pub fn build(&self, routes: &[Route]) -> Box<dyn LpmTable> {
        let n = routes.len();
        let each = routes.iter().copied();
        match self {
            TableKind::Sequential => Box::new(crate::SequentialTable::from_routes(each)),
            TableKind::BalancedTree => Box::new(crate::BalancedTreeTable::from_routes(each)),
            TableKind::Cam => {
                let spec = crate::CamSpec::paper_default();
                let mut cam = if n > spec.capacity {
                    crate::CamTable::with_spec(crate::CamSpec {
                        capacity: n.next_power_of_two(),
                        ..spec
                    })
                } else {
                    crate::CamTable::new()
                };
                cam.reload(routes);
                Box::new(cam)
            }
            TableKind::Patricia => Box::new(crate::PatriciaTable::from_routes(each)),
        }
    }
}

impl fmt::Display for TableKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableKind::Sequential => write!(f, "sequential"),
            TableKind::BalancedTree => write!(f, "balanced-tree"),
            TableKind::Cam => write!(f, "cam"),
            TableKind::Patricia => write!(f, "patricia"),
        }
    }
}

/// The outcome of one lookup: the matched route (if any) and how many
/// elementary probes the engine made to find it.
///
/// "Probes" are the engine's natural unit of work — entries scanned for the
/// sequential table, nodes visited for the two trees, always 1 for the
/// CAM.  The cycle-accurate router multiplies probes by a per-kind cycle
/// cost, which is what turns table organisation into required clock
/// frequency in the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookup {
    route: Option<Route>,
    steps: u32,
}

impl Lookup {
    /// A lookup that found `route` after `steps` probes.
    pub fn hit(route: Route, steps: u32) -> Self {
        Lookup { route: Some(route), steps }
    }

    /// A lookup that found nothing after `steps` probes.
    pub fn miss(steps: u32) -> Self {
        Lookup { route: None, steps }
    }

    /// The matched route, or `None` if no prefix covers the address.
    pub fn route(&self) -> Option<&Route> {
        self.route.as_ref()
    }

    /// Consumes the lookup, returning the matched route.
    pub fn into_route(self) -> Option<Route> {
        self.route
    }

    /// Number of elementary probes performed.
    pub fn steps(&self) -> u32 {
        self.steps
    }

    /// Returns `true` if a route was found.
    pub fn is_hit(&self) -> bool {
        self.route.is_some()
    }
}

/// A longest-prefix-match forwarding table.
///
/// Inserting a route whose prefix is already present replaces it (and
/// returns the previous route).  Lookups return the route with the longest
/// prefix containing the address.
pub trait LpmTable {
    /// The organisation this engine implements.
    fn kind(&self) -> TableKind;

    /// Inserts `route`, returning the route it replaced if its prefix was
    /// already present.
    fn insert(&mut self, route: Route) -> Option<Route>;

    /// Removes the route for exactly `prefix`, returning it if present.
    fn remove(&mut self, prefix: &Ipv6Prefix) -> Option<Route>;

    /// Longest-prefix-match lookup.
    fn lookup(&self, addr: &Ipv6Address) -> Lookup;

    /// Returns the route stored for exactly `prefix`, if any.
    fn get(&self, prefix: &Ipv6Prefix) -> Option<Route>;

    /// Number of routes in the table.
    fn len(&self) -> usize;

    /// Returns `true` if the table holds no routes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All routes, in an engine-defined order.
    fn routes(&self) -> Vec<Route>;

    /// Removes every route.
    fn clear(&mut self);

    /// Replaces the table's contents with `routes` in one step — how a
    /// forwarding table follows a RIB whose route set changed
    /// ([`RipngEngine::sync_fib`](crate::ripng::RipngEngine::sync_fib)).
    ///
    /// Equivalent to [`clear`](LpmTable::clear) followed by
    /// [`insert`](LpmTable::insert) in slice order, which is what the
    /// default does: entry order (sequential, CAM) and arena footprint
    /// (PATRICIA) come out exactly as if the routes had been streamed
    /// in.  An engine whose single inserts are expensive overrides this
    /// with a bulk build that leaves the same state.
    fn reload(&mut self, routes: &[Route]) {
        self.clear();
        for route in routes {
            self.insert(*route);
        }
    }

    /// The table's memory footprint in 32-bit words, under the same
    /// serialised formats the cycle router loads into processor memory
    /// (entry/node word counts mirror `taco-router`'s layout constants).
    /// All-integer, so scenario metrics stay byte-stable; under churn the
    /// arena-backed PATRICIA reports its bounded high-water mark.
    fn memory_words(&self) -> usize;
}

impl LpmTable for Box<dyn LpmTable> {
    fn kind(&self) -> TableKind {
        (**self).kind()
    }

    fn insert(&mut self, route: Route) -> Option<Route> {
        (**self).insert(route)
    }

    fn remove(&mut self, prefix: &Ipv6Prefix) -> Option<Route> {
        (**self).remove(prefix)
    }

    fn lookup(&self, addr: &Ipv6Address) -> Lookup {
        (**self).lookup(addr)
    }

    fn get(&self, prefix: &Ipv6Prefix) -> Option<Route> {
        (**self).get(prefix)
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn routes(&self) -> Vec<Route> {
        (**self).routes()
    }

    fn clear(&mut self) {
        (**self).clear()
    }

    fn reload(&mut self, routes: &[Route]) {
        (**self).reload(routes)
    }

    fn memory_words(&self) -> usize {
        (**self).memory_words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::PortId;

    #[test]
    fn lookup_constructors() {
        let r =
            Route::new("2001:db8::/32".parse().unwrap(), "fe80::1".parse().unwrap(), PortId(0), 1);
        let hit = Lookup::hit(r, 5);
        assert!(hit.is_hit());
        assert_eq!(hit.steps(), 5);
        assert_eq!(hit.into_route(), Some(r));

        let miss = Lookup::miss(100);
        assert!(!miss.is_hit());
        assert_eq!(miss.route(), None);
        assert_eq!(miss.steps(), 100);
    }

    #[test]
    fn kind_display() {
        assert_eq!(TableKind::Sequential.to_string(), "sequential");
        assert_eq!(TableKind::BalancedTree.to_string(), "balanced-tree");
        assert_eq!(TableKind::Cam.to_string(), "cam");
        assert_eq!(TableKind::Patricia.to_string(), "patricia");
    }

    #[test]
    fn paper_kinds_order() {
        assert_eq!(
            TableKind::PAPER_KINDS,
            [TableKind::Sequential, TableKind::BalancedTree, TableKind::Cam]
        );
        assert_eq!(&TableKind::ALL_KINDS[..3], &TableKind::PAPER_KINDS);
        assert_eq!(TableKind::ALL_KINDS.len(), 4);
    }

    #[test]
    fn factory_builds_every_kind_with_identical_answers() {
        let routes = vec![
            Route::new("2001:db8::/32".parse().unwrap(), "fe80::1".parse().unwrap(), PortId(1), 1),
            Route::new(
                "2001:db8:aa::/48".parse().unwrap(),
                "fe80::2".parse().unwrap(),
                PortId(2),
                1,
            ),
        ];
        let addr = "2001:db8:aa::5".parse().unwrap();
        for kind in TableKind::ALL_KINDS {
            let table = kind.build(&routes);
            assert_eq!(table.kind(), kind);
            assert_eq!(table.len(), 2);
            let hit = table.lookup(&addr);
            assert_eq!(hit.route().unwrap().interface(), PortId(2), "{kind}");
            assert!(table.memory_words() > 0, "{kind}: footprint is never zero-for-free");
        }
    }

    #[test]
    fn factory_widens_the_cam_past_its_paper_capacity() {
        // 10k+ differential tables must build on the CAM organisation too;
        // the paper-default 8192-row spec would panic on insert.
        let routes: Vec<Route> = (0..9000u32)
            .map(|i| {
                let addr = taco_ipv6::Ipv6Address::from_words([0x2001_0000 | i, 0, 0, 0]);
                Route::new(
                    Ipv6Prefix::new(addr, 32).unwrap(),
                    "fe80::1".parse().unwrap(),
                    PortId((i % 4) as u16),
                    1,
                )
            })
            .collect();
        let cam = TableKind::Cam.build(&routes);
        assert_eq!(cam.len(), 9000);
        assert!(cam.lookup(&"2001:1234::1".parse().unwrap()).is_hit());
    }

    #[test]
    fn reload_leaves_the_state_of_clear_then_inserts() {
        let route = |p: &str, port: u16| {
            Route::new(p.parse().unwrap(), "fe80::1".parse().unwrap(), PortId(port), 1)
        };
        // What the table holds beforehand, with a removal so PATRICIA
        // goes in with slots on its free list.
        let before = [route("2001:db8::/32", 1), route("2001:db8:1::/48", 2), route("::/0", 3)];
        let nested = [
            route("2001:db8:aa::/48", 4),
            route("2001:db8::/32", 5),
            route("2001:db8:aa:1::/64", 6),
            route("3000::/4", 7),
            route("2001:db8:aa::7/128", 8),
        ];
        // A repeated prefix: the later route replaces the earlier one.
        let repeated = [route("2001:db8::/32", 1), route("3000::/4", 2), route("2001:db8::/32", 9)];
        let probes: Vec<Ipv6Address> =
            ["2001:db8:aa::7", "2001:db8:aa:1::5", "2001:db8:aa:2::5", "2001:db8:1::1", "3fff::1"]
                .iter()
                .map(|a| a.parse().unwrap())
                .chain([Ipv6Address::UNSPECIFIED, "ffff::1".parse().unwrap()])
                .collect();

        // The sequential table, the CAM (its rows) and the tree override
        // `reload` with a bulk build; PATRICIA takes the default.  Lookups
        // read the sequential rows' scan keys, so they check those too.
        for kind in TableKind::ALL_KINDS {
            for target in [&nested[..], &repeated[..], &[]] {
                let mut reloaded = kind.build(&before);
                reloaded.remove(&before[1].prefix());
                let mut streamed = kind.build(&before);
                streamed.remove(&before[1].prefix());

                reloaded.reload(target);
                streamed.clear();
                for r in target {
                    streamed.insert(*r);
                }

                let what = format!("{kind}, {} routes", target.len());
                assert_eq!(reloaded.routes(), streamed.routes(), "{what}");
                assert_eq!(reloaded.len(), streamed.len(), "{what}");
                assert_eq!(reloaded.memory_words(), streamed.memory_words(), "{what}");
                for probe in &probes {
                    // `Lookup` equality covers the route and the probe count.
                    assert_eq!(reloaded.lookup(probe), streamed.lookup(probe), "{what}: {probe}");
                }
            }
        }
    }

    #[test]
    fn boxed_table_is_an_lpm_table() {
        // The blanket impl lets `Box<dyn LpmTable>` flow anywhere a
        // concrete engine does (e.g. `Router<Box<dyn LpmTable>>`).
        let mut boxed: Box<dyn LpmTable> = TableKind::Sequential.build(&[]);
        let route =
            Route::new("2001:db8::/32".parse().unwrap(), "fe80::1".parse().unwrap(), PortId(3), 1);
        assert!(LpmTable::insert(&mut boxed, route).is_none());
        assert_eq!(LpmTable::len(&boxed), 1);
        assert!(LpmTable::lookup(&boxed, &"2001:db8::9".parse().unwrap()).is_hit());
        assert_eq!(LpmTable::remove(&mut boxed, &route.prefix()), Some(route));
        assert!(LpmTable::is_empty(&boxed));
    }
}
