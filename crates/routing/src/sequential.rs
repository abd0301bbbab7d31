//! The sequential routing table: the paper's first case.
//!
//! "As the first case we implemented the routing table using a cache memory
//! in which the entries are organized sequentially."  Search time is linear
//! in the number of entries, which is why this organisation demands a 6 GHz
//! clock in the single-bus configuration of Table 1.

use std::cmp::Ordering;

use taco_ipv6::{Ipv6Address, Ipv6Prefix};

use crate::route::Route;
use crate::table::{Lookup, LpmTable, TableKind};

/// A linear-scan longest-prefix-match table.
///
/// Entries are kept sorted by descending prefix length (ties broken by
/// prefix order), so the *first* matching entry during a scan is the longest
/// match and the scan can stop there — exactly the strategy the router
/// microcode uses when it walks the table in data memory with the Counter /
/// Masker / Matcher functional units.
///
/// The host scans what the microcode scans: beside each entry a `(network,
/// mask)` pair of native `u128`s (Click's `LookupIP6Route` row), so a row
/// costs one XOR and one AND over 32 contiguous bytes.
///
/// # Examples
///
/// ```
/// use taco_routing::{LpmTable, PortId, Route, SequentialTable};
///
/// # fn main() -> Result<(), taco_ipv6::ParseError> {
/// let mut t = SequentialTable::new();
/// t.insert(Route::new("::/0".parse()?, "fe80::9".parse()?, PortId(9), 15));
/// t.insert(Route::new("2001:db8::/32".parse()?, "fe80::1".parse()?, PortId(1), 1));
///
/// // The /32 is scanned before the default route.
/// let hit = t.lookup(&"2001:db8::5".parse()?);
/// assert_eq!(hit.steps(), 1);
/// let miss_to_default = t.lookup(&"9999::1".parse()?);
/// assert_eq!(miss_to_default.route().unwrap().interface(), PortId(9));
/// assert_eq!(miss_to_default.steps(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SequentialTable {
    /// Sorted by descending prefix length, then by prefix.
    entries: Vec<Route>,
    /// `keys[i]` is `entries[i]`'s prefix as `(network, mask)`: what
    /// [`lookup`](LpmTable::lookup) scans.
    keys: Vec<(u128, u128)>,
}

/// Scan order: descending prefix length, then ascending prefix.
fn scan_order(a: &Ipv6Prefix, b: &Ipv6Prefix) -> Ordering {
    b.len().cmp(&a.len()).then_with(|| a.cmp(b))
}

/// `prefix` as a scan row: its network and its mask, native order.
fn key(prefix: &Ipv6Prefix) -> (u128, u128) {
    let mask = u128::MAX.checked_shl(128 - u32::from(prefix.len())).unwrap_or(0);
    (u128::from_be_bytes(prefix.addr().octets()), mask)
}

impl SequentialTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a table from an iterator of routes (later duplicates replace
    /// earlier ones, as with repeated [`LpmTable::insert`] calls).
    pub fn from_routes<I: IntoIterator<Item = Route>>(routes: I) -> Self {
        let mut t = Self::new();
        t.extend(routes);
        t
    }

    /// The entries in scan order (longest prefixes first) — the order in
    /// which the router lays the table out in data memory.
    pub fn entries(&self) -> &[Route] {
        &self.entries
    }

    fn position(&self, prefix: &Ipv6Prefix) -> Result<usize, usize> {
        self.entries.binary_search_by(|r| scan_order(&r.prefix(), prefix))
    }
}

impl LpmTable for SequentialTable {
    fn kind(&self) -> TableKind {
        TableKind::Sequential
    }

    fn insert(&mut self, route: Route) -> Option<Route> {
        match self.position(&route.prefix()) {
            // Same prefix, same key.
            Ok(i) => Some(std::mem::replace(&mut self.entries[i], route)),
            Err(i) => {
                self.entries.insert(i, route);
                self.keys.insert(i, key(&route.prefix()));
                None
            }
        }
    }

    fn remove(&mut self, prefix: &Ipv6Prefix) -> Option<Route> {
        let i = self.position(prefix).ok()?;
        self.keys.remove(i);
        Some(self.entries.remove(i))
    }

    fn lookup(&self, addr: &Ipv6Address) -> Lookup {
        let a = u128::from_be_bytes(addr.octets());
        match self.keys.iter().position(|&(network, mask)| (a ^ network) & mask == 0) {
            Some(i) => Lookup::hit(self.entries[i], (i + 1) as u32),
            None => Lookup::miss(self.entries.len() as u32),
        }
    }

    fn get(&self, prefix: &Ipv6Prefix) -> Option<Route> {
        self.position(prefix).ok().map(|i| self.entries[i])
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn routes(&self) -> Vec<Route> {
        self.entries.clone()
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.keys.clear();
    }

    /// One sort instead of an `insert` per route.
    fn reload(&mut self, routes: &[Route]) {
        self.clear();
        self.extend(routes.iter().copied());
    }

    fn memory_words(&self) -> usize {
        // 12 words per serialised entry (`SEQ_ENTRY_WORDS`): interleaved
        // mask/prefix pairs plus interface, handle and padding.
        12 * self.entries.len()
    }
}

impl FromIterator<Route> for SequentialTable {
    fn from_iter<I: IntoIterator<Item = Route>>(iter: I) -> Self {
        Self::from_routes(iter)
    }
}

/// The bulk load behind [`from_routes`](SequentialTable::from_routes) and
/// [`reload`](LpmTable::reload): the state of one `insert` per route, built
/// by one stable sort into scan order and one in-place dedup.  Equal
/// prefixes keep their arrival order through the sort (the held entry
/// first), so the last of each run is the route the inserts would have
/// left, and it is written into the run's kept slot.
impl Extend<Route> for SequentialTable {
    fn extend<I: IntoIterator<Item = Route>>(&mut self, iter: I) {
        self.entries.extend(iter);
        self.entries.sort_by(|a, b| scan_order(&a.prefix(), &b.prefix()));
        self.entries.dedup_by(|later, kept| {
            let same = later.prefix() == kept.prefix();
            if same {
                *kept = *later;
            }
            same
        });
        self.keys.clear();
        self.keys.extend(self.entries.iter().map(|r| key(&r.prefix())));
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
    fn empty_table_misses_with_zero_steps() {
        let t = SequentialTable::new();
        let l = t.lookup(&a("::1"));
        assert!(!l.is_hit());
        assert_eq!(l.steps(), 0);
    }

    #[test]
    fn longest_match_wins_regardless_of_insert_order() {
        let mut t = SequentialTable::new();
        t.insert(r("2001:db8::/32", 1));
        t.insert(r("2001:db8:1::/48", 2));
        t.insert(r("::/0", 0));
        assert_eq!(t.lookup(&a("2001:db8:1::9")).route().unwrap().interface(), PortId(2));
        assert_eq!(t.lookup(&a("2001:db8:2::9")).route().unwrap().interface(), PortId(1));
        assert_eq!(t.lookup(&a("abcd::1")).route().unwrap().interface(), PortId(0));
    }

    #[test]
    fn steps_count_scanned_entries() {
        let t =
            SequentialTable::from_routes((0..10).map(|i| r(&format!("2001:db8:{i:x}::/48"), i)));
        // All /48s: scan order is prefix order, so 2001:db8:0:: is first.
        assert_eq!(t.lookup(&a("2001:db8:0::1")).steps(), 1);
        assert_eq!(t.lookup(&a("2001:db8:9::1")).steps(), 10);
        assert_eq!(t.lookup(&a("ffff::1")).steps(), 10); // miss scans all
    }

    #[test]
    fn insert_replaces_same_prefix() {
        let mut t = SequentialTable::new();
        assert_eq!(t.insert(r("2001:db8::/32", 1)), None);
        let old = t.insert(r("2001:db8::/32", 7));
        assert_eq!(old.unwrap().interface(), PortId(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&"2001:db8::/32".parse().unwrap()).unwrap().interface(), PortId(7));
    }

    #[test]
    fn remove_and_clear() {
        let mut t = SequentialTable::from_routes([r("2001:db8::/32", 1), r("::/0", 0)]);
        assert_eq!(t.remove(&"2001:db8::/32".parse().unwrap()).unwrap().interface(), PortId(1));
        assert_eq!(t.remove(&"2001:db8::/32".parse().unwrap()), None);
        assert_eq!(t.len(), 1);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn scan_order_is_longest_first() {
        let t = SequentialTable::from_routes([
            r("::/0", 0),
            r("2001:db8::/32", 1),
            r("2001:db8:1::/48", 2),
        ]);
        let lens: Vec<u8> = t.entries().iter().map(|e| e.prefix().len()).collect();
        assert_eq!(lens, vec![48, 32, 0]);
    }

    #[test]
    fn kind_and_collect() {
        let t: SequentialTable = [r("::/0", 0)].into_iter().collect();
        assert_eq!(t.kind(), TableKind::Sequential);
        assert_eq!(t.routes().len(), 1);
    }

    /// The scan the `(network, mask)` rows replaced: `contains` per entry.
    fn lookup_by_contains(t: &SequentialTable, addr: &Ipv6Address) -> Lookup {
        for (i, r) in t.entries.iter().enumerate() {
            if r.prefix().contains(addr) {
                return Lookup::hit(*r, (i + 1) as u32);
            }
        }
        Lookup::miss(t.entries.len() as u32)
    }

    /// Cases and seed of the property below; case `n` runs over
    /// `Rng(SCAN_SEED ^ n)` and a failure names it.
    const SCAN_CASES: u64 = 64;
    const SCAN_SEED: u64 = 0x5CA4_0025;

    #[test]
    fn the_flat_scan_is_the_contains_scan_over_any_history() {
        use std::collections::BTreeMap;

        use crate::test_rng::Rng;

        // Prefixes and probes cluster around four anchors, so nesting and
        // repeats are common; /0 and /128 are drawn on purpose.
        const LENS: [u8; 10] = [0, 1, 16, 32, 47, 48, 64, 127, 128, 128];
        let wide = |rng: &mut Rng| u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
        // `anchor` with its bits past a random length scrambled.
        let near = |rng: &mut Rng, anchor: u128| {
            let flip = wide(rng).checked_shr(rng.below(129) as u32).unwrap_or(0);
            Ipv6Address::new((anchor ^ flip).to_be_bytes())
        };
        let mut hits = 0u64;
        for case in 0..SCAN_CASES {
            let mut rng = Rng(SCAN_SEED ^ case);
            let anchors: Vec<u128> = (0..4).map(|_| wide(&mut rng)).collect();
            let route = |rng: &mut Rng| {
                let anchor = anchors[rng.below(4) as usize];
                let addr = near(rng, anchor);
                let len = match rng.below(3) {
                    0 => rng.below(129) as u8,
                    _ => LENS[rng.below(LENS.len() as u64) as usize],
                };
                let prefix = Ipv6Prefix::new(addr, len).unwrap();
                Route::new(prefix, "fe80::1".parse().unwrap(), PortId(rng.below(64) as u16), 1)
            };
            let mut t = SequentialTable::new();
            // What one `insert` per route leaves, per prefix.
            let mut model = BTreeMap::new();
            for step in 0..80 {
                let at = format!("seed {SCAN_SEED:#x}, case {case}, step {step}");
                match rng.below(10) {
                    0..=5 => {
                        let r = route(&mut rng);
                        assert_eq!(t.insert(r), model.insert(r.prefix(), r), "{at}: insert");
                    }
                    6 | 7 => {
                        // Half the removals name a held prefix.
                        let prefix = match t.entries.len() {
                            n if n > 0 && rng.below(2) == 0 => {
                                t.entries[rng.below(n as u64) as usize].prefix()
                            }
                            _ => route(&mut rng).prefix(),
                        };
                        assert_eq!(t.remove(&prefix), model.remove(&prefix), "{at}: remove");
                    }
                    _ => {
                        let mut routes: Vec<Route> =
                            (0..rng.below(24)).map(|_| route(&mut rng)).collect();
                        // Repeat some, so the dedup has runs to keep the last of.
                        for _ in 0..rng.below(4) {
                            if let Some(&again) = routes.get(rng.below(24) as usize) {
                                routes.push(again.with_metric(2));
                            }
                        }
                        t.reload(&routes);
                        model = routes.iter().map(|r| (r.prefix(), *r)).collect();
                    }
                }
                assert!(
                    t.entries
                        .windows(2)
                        .all(|w| scan_order(&w[0].prefix(), &w[1].prefix()).is_lt()),
                    "{at}: scan order, no repeats"
                );
                let mut held = t.routes();
                held.sort_by_key(|r| r.prefix());
                assert_eq!(held, model.values().copied().collect::<Vec<_>>(), "{at}: routes");
                let keys: Vec<(u128, u128)> = t.entries.iter().map(|r| key(&r.prefix())).collect();
                assert_eq!(t.keys, keys, "{at}: keys index-parallel to entries");
                for _ in 0..16 {
                    let anchor = match rng.below(5) {
                        0 => wide(&mut rng),
                        _ => anchors[rng.below(4) as usize],
                    };
                    let probe = near(&mut rng, anchor);
                    let want = lookup_by_contains(&t, &probe);
                    hits += u64::from(want.is_hit() && want.steps() > 1);
                    assert_eq!(t.lookup(&probe), want, "{at}: {probe}");
                }
            }
        }
        assert!(hits > 10_000, "hits past the first row: {hits}");
    }

    #[test]
    fn a_key_is_the_network_and_its_mask() {
        let k = |p: &str| key(&p.parse().unwrap());
        assert_eq!(k("::/0"), (0, 0));
        assert_eq!(k("8000::/1"), (1 << 127, 1 << 127));
        assert_eq!(k("2001:db8::/32"), (0x2001_0db8 << 96, u128::MAX << 96));
        assert_eq!(k("::7/128"), (7, u128::MAX));
    }
}
