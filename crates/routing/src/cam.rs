//! The CAM-based routing table: the paper's third case.
//!
//! "Finally we evaluated a hardware-based solution for the routing table.
//! We used a 136-bit wide content addressable memory (CAM) and a
//! commercially available SRAM chip.  By combining these two circuits we
//! calculated that the routing table searching time would be 40 ns."
//!
//! [`CamTable`] models the pair: a ternary CAM holds `(prefix, mask)` rows
//! in priority order and returns the index of the highest-priority (longest)
//! match in a single fixed-latency search; the SRAM holds the associated
//! forwarding data (next hop, interface).  The TACO Routing Table Unit wraps
//! this model so the whole lookup costs a constant number of processor
//! cycles — which is why Table 1's CAM rows need only tens of MHz.

use std::fmt;

use taco_ipv6::{Ipv6Address, Ipv6Prefix};

use crate::route::Route;
use crate::sequential::SequentialTable;
use crate::table::{Lookup, LpmTable, TableKind};

/// Datasheet-style parameters of the CAM + SRAM pair.
///
/// Defaults follow the paper: a 136-bit-wide CAM (128 address bits plus
/// control bits) with a 40 ns search, and the Micron Harmony 1 Mb CAM's
/// 1.5–2 W average power at 133 MHz (we use the midpoint).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CamSpec {
    /// Row width in bits.
    pub width_bits: u32,
    /// Number of rows the chip can hold.
    pub capacity: usize,
    /// Fixed search latency, nanoseconds (CAM match + SRAM read).
    pub search_time_ns: f64,
    /// Average chip power in watts at `reference_freq_hz`.
    pub avg_power_w: f64,
    /// Operating frequency at which `avg_power_w` is specified.
    pub reference_freq_hz: f64,
}

impl CamSpec {
    /// The configuration used in the paper's evaluation.
    pub fn paper_default() -> Self {
        CamSpec {
            width_bits: 136,
            capacity: 8192, // 1 Mb / 136-bit rows, rounded to a power of two
            search_time_ns: 40.0,
            avg_power_w: 1.75,
            reference_freq_hz: 133e6,
        }
    }

    /// Search latency expressed in processor clock cycles at `freq_hz`
    /// (rounded up — the processor must wait out the full latency).
    pub fn search_cycles(&self, freq_hz: f64) -> u64 {
        (self.search_time_ns * 1e-9 * freq_hz).ceil().max(1.0) as u64
    }
}

impl Default for CamSpec {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl fmt::Display for CamSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-bit x {} CAM, {} ns search, {} W avg",
            self.width_bits, self.capacity, self.search_time_ns, self.avg_power_w
        )
    }
}

/// A ternary-CAM + SRAM longest-prefix-match table.
///
/// Every lookup costs exactly one probe ([`Lookup::steps`] == 1): all rows
/// are compared in parallel in hardware.  Rows are maintained in descending
/// prefix-length order so the first (highest-priority) match is the longest,
/// mirroring how real TCAM route tables are managed.
///
/// # Examples
///
/// ```
/// use taco_routing::{CamTable, LpmTable, PortId, Route};
///
/// # fn main() -> Result<(), taco_ipv6::ParseError> {
/// let mut t = CamTable::new();
/// for i in 0..100u16 {
///     t.insert(Route::new(format!("2001:db8:{i:x}::/48").parse()?,
///                         "fe80::1".parse()?, PortId(i), 1));
/// }
/// let l = t.lookup(&"2001:db8:7::1".parse()?);
/// assert_eq!(l.steps(), 1); // constant regardless of table size
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CamTable {
    spec: CamSpec,
    /// Rows in priority order, which is the sequential scan's order:
    /// descending prefix length, then prefix order.
    rows: SequentialTable,
}

impl CamTable {
    /// Creates an empty table with the paper's default chip parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table with explicit chip parameters.
    pub(crate) fn with_spec(spec: CamSpec) -> Self {
        CamTable { spec, rows: SequentialTable::new() }
    }

    /// Creates a table from an iterator of routes.
    ///
    /// # Panics
    ///
    /// Panics if the routes need more rows than the chip has.
    pub(crate) fn from_routes<I: IntoIterator<Item = Route>>(routes: I) -> Self {
        Self::try_from_routes(&routes.into_iter().collect::<Vec<_>>())
            .unwrap_or_else(|capacity| panic!("cam capacity {capacity} exceeded"))
    }

    /// Creates a table holding `routes`, loaded in bulk the way
    /// [`reload`](LpmTable::reload) loads them, on the paper's default chip.
    ///
    /// # Errors
    ///
    /// The chip's row count, when the routes need more rows than that (a
    /// repeated prefix takes one row).
    pub fn try_from_routes(routes: &[Route]) -> Result<Self, usize> {
        let mut t = Self::new();
        t.rows.reload(routes);
        if t.rows.len() > t.spec.capacity {
            return Err(t.spec.capacity);
        }
        Ok(t)
    }

    /// The chip parameters.
    pub fn spec(&self) -> &CamSpec {
        &self.spec
    }

    /// [`LpmTable::insert`] that reports a full chip instead of panicking:
    /// `Err` hands back the route that needs a row the CAM does not have
    /// (replacing the route of a stored prefix always fits).
    fn try_insert(&mut self, route: Route) -> Result<Option<Route>, Route> {
        if self.rows.len() >= self.spec.capacity && self.rows.get(&route.prefix()).is_none() {
            return Err(route);
        }
        Ok(self.rows.insert(route))
    }
}

impl LpmTable for CamTable {
    fn kind(&self) -> TableKind {
        TableKind::Cam
    }

    /// Inserts a route.
    ///
    /// # Panics
    ///
    /// Panics if the CAM is full — the paper's router provisions the chip
    /// for the whole table (100 entries against 8 K rows), so overflow is a
    /// configuration bug, not a runtime condition.
    fn insert(&mut self, route: Route) -> Option<Route> {
        self.try_insert(route)
            .unwrap_or_else(|_| panic!("cam capacity {} exceeded", self.spec.capacity))
    }

    fn remove(&mut self, prefix: &Ipv6Prefix) -> Option<Route> {
        self.rows.remove(prefix)
    }

    fn lookup(&self, addr: &Ipv6Address) -> Lookup {
        // Hardware compares every row in parallel; the priority encoder
        // picks the first match.  Cost: one probe, hit or miss.
        match self.rows.lookup(addr).into_route() {
            Some(r) => Lookup::hit(r, 1),
            None => Lookup::miss(1),
        }
    }

    fn get(&self, prefix: &Ipv6Prefix) -> Option<Route> {
        self.rows.get(prefix)
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    fn routes(&self) -> Vec<Route> {
        self.rows.routes()
    }

    fn clear(&mut self) {
        self.rows.clear();
    }

    /// The rows' bulk load, then [`insert`](LpmTable::insert)'s capacity
    /// check.
    ///
    /// # Panics
    ///
    /// Panics if the routes need more rows than the chip has.
    fn reload(&mut self, routes: &[Route]) {
        self.rows.reload(routes);
        if self.rows.len() > self.spec.capacity {
            panic!("cam capacity {} exceeded", self.spec.capacity);
        }
    }

    fn memory_words(&self) -> usize {
        // 10 words per occupied row: the 136-bit match plane (4 value +
        // 4 mask words) plus the result SRAM (interface, handle).
        10 * self.rows.len()
    }
}

impl FromIterator<Route> for CamTable {
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
    fn constant_step_cost() {
        let mut t = CamTable::new();
        assert_eq!(t.lookup(&a("::1")).steps(), 1);
        for i in 0..200u16 {
            t.insert(r(&format!("2001:db8:{i:x}::/48"), i));
        }
        assert_eq!(t.lookup(&a("2001:db8:5::1")).steps(), 1);
        assert_eq!(t.lookup(&a("ffff::1")).steps(), 1); // miss is also 1 probe
    }

    #[test]
    fn longest_match_by_priority_order() {
        let t = CamTable::from_routes([r("::/0", 0), r("2001:db8::/32", 1), r("2001:db8::/64", 2)]);
        assert_eq!(t.lookup(&a("2001:db8::1")).route().unwrap().interface(), PortId(2));
        assert_eq!(t.lookup(&a("2001:db8:1::1")).route().unwrap().interface(), PortId(1));
        let lens: Vec<u8> = t.rows.entries().iter().map(|x| x.prefix().len()).collect();
        assert_eq!(lens, vec![64, 32, 0]);
    }

    #[test]
    fn replace_and_remove() {
        let mut t = CamTable::new();
        t.insert(r("2001:db8::/32", 1));
        assert_eq!(t.insert(r("2001:db8::/32", 5)).unwrap().interface(), PortId(1));
        assert_eq!(t.remove(&"2001:db8::/32".parse().unwrap()).unwrap().interface(), PortId(5));
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "cam capacity")]
    fn capacity_overflow_panics() {
        let mut t = CamTable::with_spec(CamSpec { capacity: 2, ..CamSpec::paper_default() });
        t.insert(r("2001:db8:1::/48", 1));
        t.insert(r("2001:db8:2::/48", 2));
        t.insert(r("2001:db8:3::/48", 3));
    }

    #[test]
    #[should_panic(expected = "cam capacity 2 exceeded")]
    fn reload_over_capacity_panics_as_insert_does() {
        let mut t = CamTable::with_spec(CamSpec { capacity: 2, ..CamSpec::paper_default() });
        // A repeated prefix needs no second row: three routes fit two rows.
        t.reload(&[r("2001:db8:1::/48", 1), r("2001:db8:2::/48", 2), r("2001:db8:1::/48", 3)]);
        assert_eq!(t.len(), 2);
        t.reload(&[r("2001:db8:1::/48", 1), r("2001:db8:2::/48", 2), r("2001:db8:3::/48", 3)]);
    }

    #[test]
    fn try_from_routes_fills_the_chip_and_refuses_one_row_more() {
        let capacity = CamSpec::paper_default().capacity;
        let rows: Vec<Route> =
            (0..=capacity).map(|i| r(&format!("2001:db8:{i:x}::/48"), i as u16)).collect();
        assert_eq!(CamTable::try_from_routes(&rows).err(), Some(capacity));
        // Exactly full fits, and a repeated prefix takes no second row.
        let mut full = rows[..capacity].to_vec();
        full.push(rows[0]);
        let t = CamTable::try_from_routes(&full).expect("fits");
        assert_eq!(t.len(), capacity);
        let table = CamTable::from_routes(rows[..capacity].to_vec());
        assert_eq!(t.rows.entries(), table.rows.entries());
    }

    #[test]
    fn try_insert_refuses_a_new_row_on_a_full_chip_but_still_replaces() {
        let mut t = CamTable::with_spec(CamSpec { capacity: 2, ..CamSpec::paper_default() });
        assert_eq!(t.try_insert(r("2001:db8:1::/48", 1)), Ok(None));
        assert_eq!(t.try_insert(r("2001:db8:2::/48", 2)), Ok(None));
        assert_eq!(t.try_insert(r("2001:db8:3::/48", 3)), Err(r("2001:db8:3::/48", 3)));
        assert_eq!(t.try_insert(r("2001:db8:2::/48", 4)), Ok(Some(r("2001:db8:2::/48", 2))));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn search_cycles_at_various_clocks() {
        let spec = CamSpec::paper_default();
        // 40 ns at 1 GHz = 40 cycles; at 25 MHz it fits in one cycle.
        assert_eq!(spec.search_cycles(1e9), 40);
        assert_eq!(spec.search_cycles(25e6), 1);
        assert_eq!(spec.search_cycles(100e6), 4);
        assert_eq!(spec.search_cycles(1.0), 1); // never less than one cycle
    }

    #[test]
    fn spec_display() {
        assert!(CamTable::new().spec().to_string().contains("136-bit"));
    }
}
