//! The RIPng routing engine (RFC 2080).
//!
//! The paper's router "builds up the Routing Table by listening for specific
//! datagrams broadcasted by the adjacent routers" and "at regular intervals,
//! the routing table information is broadcasted to the adjacent routers".
//! This module is that control plane: a deterministic distance-vector engine
//! driven entirely by [`SimTime`], producing the RIPng packets to emit and
//! keeping a routing information base (RIB) that can be synchronised into
//! any [`LpmTable`] forwarding table.
//!
//! Implemented behaviours (RFC 2080 §2.3–§2.5):
//!
//! * metric arithmetic with infinity = 16;
//! * route timeout (180 s) and garbage-collection (120 s) timers;
//! * periodic full updates every 30 s (no jitter — simulations must be
//!   reproducible);
//! * triggered updates when routes change;
//! * split horizon with poisoned reverse;
//! * whole-table and per-prefix request handling.

use std::collections::BTreeMap;

use taco_ipv6::ripng::{Command, RipngPacket, RouteEntry, INFINITY_METRIC};
use taco_ipv6::{Ipv6Address, Ipv6Prefix};

use crate::clock::SimTime;
use crate::route::{PortId, Route};
use crate::table::LpmTable;

/// RFC 2080 §2.3's protocol timers: periodic updates, route timeout and
/// garbage collection.
const UPDATE_INTERVAL: SimTime = SimTime::from_secs(30);
const ROUTE_TIMEOUT: SimTime = SimTime::from_secs(180);
const GC_INTERVAL: SimTime = SimTime::from_secs(120);

/// Static configuration of one router interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterfaceConfig {
    /// The line card this interface lives on.
    pub port: PortId,
    /// Link-local source address used for RIPng packets on this interface.
    pub address: Ipv6Address,
    /// Prefixes directly connected to this interface (advertised with
    /// metric 1 and never expired).
    pub connected: Vec<Ipv6Prefix>,
    /// Cost added to routes learned over this interface (normally 1).
    pub cost: u8,
}

impl InterfaceConfig {
    /// Creates an interface with the default cost of 1.
    pub fn new(port: PortId, address: Ipv6Address, connected: Vec<Ipv6Prefix>) -> Self {
        InterfaceConfig { port, address, connected, cost: 1 }
    }
}

/// Why a route is in the RIB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// Directly connected network — never expires.
    Connected,
    /// Learned from a RIPng response.
    Rip { learned_from: Ipv6Address },
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct RibRoute {
    route: Route,
    origin: Origin,
    /// When the route times out (metric forced to infinity). `None` for
    /// connected routes.
    expires_at: Option<SimTime>,
    /// When a dead route is finally removed from the RIB.
    gc_at: Option<SimTime>,
    /// Set when the route changed since the last (triggered or periodic)
    /// update.
    changed: bool,
}

/// Counters describing what the engine has done — handy in tests and in the
/// router's statistics output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RipngStats {
    /// Full periodic updates sent (per interface).
    pub periodic_updates_sent: u64,
    /// Triggered updates sent (per interface).
    pub triggered_updates_sent: u64,
    /// Response packets processed.
    pub responses_received: u64,
    /// Request packets processed.
    pub requests_received: u64,
    /// Routes that hit the 180 s timeout.
    pub routes_expired: u64,
    /// Routes garbage-collected out of the RIB.
    pub routes_deleted: u64,
}

/// The RIPng protocol engine.
///
/// Drive it by calling [`RipngEngine::handle_response`] /
/// [`RipngEngine::handle_request`] for every received packet and
/// [`RipngEngine::tick`] whenever simulated time advances; both return the
/// packets to transmit as `(interface, packet)` pairs (the caller wraps them
/// in UDP/IPv6 addressed to `ff02::9` port 521).
///
/// # Examples
///
/// ```
/// use taco_ipv6::ripng::{Command, RipngPacket, RouteEntry};
/// use taco_routing::ripng::{InterfaceConfig, RipngEngine};
/// use taco_routing::{PortId, SimTime};
///
/// # fn main() -> Result<(), taco_ipv6::ParseError> {
/// let mut engine = RipngEngine::new(vec![InterfaceConfig::new(
///     PortId(0),
///     "fe80::1".parse()?,
///     vec!["2001:db8:a::/48".parse()?],
/// )]);
///
/// // A neighbour advertises a prefix...
/// let adv = RipngPacket {
///     command: Command::Response,
///     entries: vec![RouteEntry::new("2001:db8:b::/48".parse()?, 0, 1)],
/// };
/// engine.handle_response(PortId(0), "fe80::2".parse()?, &adv, SimTime::ZERO);
/// assert_eq!(engine.routes().count(), 2); // connected + learned
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RipngEngine {
    interfaces: Vec<InterfaceConfig>,
    rib: BTreeMap<Ipv6Prefix, RibRoute>,
    next_periodic: SimTime,
    stats: RipngStats,
    /// Bumped wherever the live route set changes; see
    /// [`RipngEngine::route_changes`].
    route_changes: u64,
    /// No `expires_at` or `gc_at` in the RIB is earlier than this (`None`:
    /// no timer is armed).  A lower bound, not the minimum: arming a timer
    /// lowers it, refreshing one leaves it stale, and the timer scan it
    /// lets through makes it exact again.  Until `now` reaches it,
    /// [`RipngEngine::tick`] has no timer to look at.
    next_deadline: Option<SimTime>,
    /// Whether any route is flagged `changed`; set wherever the flag is,
    /// cleared with the flags.  While it is clear there is no triggered
    /// update to build.
    dirty: bool,
}

impl RipngEngine {
    /// Creates an engine with the RFC 2080 timers (30 s updates, 180 s
    /// timeout, 120 s garbage collection) and installs the connected routes
    /// of `interfaces`.
    pub fn new(interfaces: Vec<InterfaceConfig>) -> Self {
        let mut engine = RipngEngine {
            interfaces,
            rib: BTreeMap::new(),
            next_periodic: SimTime::ZERO,
            stats: RipngStats::default(),
            route_changes: 0,
            next_deadline: None,
            dirty: false,
        };
        for iface in &engine.interfaces {
            for prefix in &iface.connected {
                engine.route_changes += 1;
                engine.dirty = true;
                engine.rib.insert(
                    *prefix,
                    RibRoute {
                        route: Route::connected(*prefix, iface.port),
                        origin: Origin::Connected,
                        expires_at: None,
                        gc_at: None,
                        changed: true,
                    },
                );
            }
        }
        engine
    }

    /// The configured interfaces.
    pub fn interfaces(&self) -> &[InterfaceConfig] {
        &self.interfaces
    }

    /// Activity counters.
    pub fn stats(&self) -> RipngStats {
        self.stats
    }

    /// Iterates over the live routes in the RIB (dead routes awaiting
    /// garbage collection are skipped).
    pub fn routes(&self) -> impl Iterator<Item = &Route> {
        self.rib.values().filter(|r| r.route.metric() < INFINITY_METRIC).map(|r| &r.route)
    }

    /// How many times the live route set ([`RipngEngine::routes`]) has
    /// changed: a route installed, withdrawn, timed out, or replaced by a
    /// different metric or gateway.  Refreshes, garbage collection of
    /// already-dead routes and the passing of time leave it alone, so a
    /// forwarding table synced at one value is still exact for as long as
    /// the value stands.
    pub fn route_changes(&self) -> u64 {
        self.route_changes
    }

    /// Replaces `fib`'s contents with the live routes in one bulk
    /// [`LpmTable::reload`].  This is a full reload and costs accordingly:
    /// a caller keeping a table in step with the engine calls it only when
    /// [`RipngEngine::route_changes`] has moved since its last sync.
    pub fn sync_fib<T: LpmTable + ?Sized>(&self, fib: &mut T) {
        let live: Vec<Route> = self.routes().copied().collect();
        fib.reload(&live);
    }

    /// The whole-table requests a router broadcasts when it first comes up
    /// (RFC 2080 §2.5.1), one per interface.  Neighbours answer with their
    /// full tables, cutting initial convergence from a 30 s periodic-update
    /// wait to one round trip.
    pub fn startup_requests(&self) -> Vec<(PortId, RipngPacket)> {
        self.interfaces.iter().map(|i| (i.port, RipngPacket::whole_table_request())).collect()
    }

    /// Processes a received response (advertisement).
    ///
    /// Returns any triggered-update packets that should be transmitted
    /// immediately.
    pub fn handle_response(
        &mut self,
        iface: PortId,
        from: Ipv6Address,
        packet: &RipngPacket,
        now: SimTime,
    ) -> Vec<(PortId, RipngPacket)> {
        if packet.command != Command::Response {
            return Vec::new();
        }
        self.stats.responses_received += 1;
        let Some(cfg) = self.interfaces.iter().find(|i| i.port == iface).cloned() else {
            return Vec::new();
        };
        // RFC 2080 §2.4.2: responses must come from a link-local address.
        if !from.is_link_local() {
            return Vec::new();
        }

        let mut next_hop = from;
        let mut any_changed = false;
        for rte in &packet.entries {
            if rte.is_next_hop() {
                let nh = rte.prefix.addr();
                next_hop = if nh.is_unspecified() { from } else { nh };
                continue;
            }
            let metric = rte.metric.saturating_add(cfg.cost).min(INFINITY_METRIC);
            let candidate =
                Route::new(rte.prefix, next_hop, iface, metric).with_route_tag(rte.route_tag);
            any_changed |= self.consider(candidate, from, now);
        }

        if any_changed {
            self.triggered_updates()
        } else {
            Vec::new()
        }
    }

    /// Applies the RFC 2080 §2.4.2 route-update rules for one candidate.
    /// Returns `true` if the RIB changed.
    fn consider(&mut self, candidate: Route, from: Ipv6Address, now: SimTime) -> bool {
        let prefix = candidate.prefix();
        let expires_at = now + ROUTE_TIMEOUT;
        match self.rib.get_mut(&prefix) {
            None => {
                if candidate.metric() >= INFINITY_METRIC {
                    return false; // don't install dead routes
                }
                self.rib.insert(
                    prefix,
                    RibRoute {
                        route: candidate,
                        origin: Origin::Rip { learned_from: from },
                        expires_at: Some(expires_at),
                        gc_at: None,
                        changed: true,
                    },
                );
                lower(&mut self.next_deadline, expires_at);
                self.dirty = true;
                self.route_changes += 1;
                true
            }
            Some(existing) => {
                if existing.origin == Origin::Connected {
                    return false; // connected routes always win
                }
                let same_gateway =
                    matches!(existing.origin, Origin::Rip { learned_from } if learned_from == from);
                if same_gateway {
                    // Same gateway: refresh, adopt whatever metric it says.
                    existing.expires_at = Some(expires_at);
                    lower(&mut self.next_deadline, expires_at);
                    if candidate.metric() != existing.route.metric() {
                        let went_dead = candidate.metric() >= INFINITY_METRIC;
                        existing.route = candidate;
                        existing.changed = true;
                        self.dirty = true;
                        self.route_changes += 1;
                        if went_dead {
                            self.stats.routes_expired += 1;
                            existing.expires_at = None;
                            let gc_at = now + GC_INTERVAL;
                            existing.gc_at = Some(gc_at);
                            lower(&mut self.next_deadline, gc_at);
                        } else {
                            // RFC 2080 §2.3: a route re-established while
                            // its deletion is pending cancels the deletion.
                            existing.gc_at = None;
                        }
                        return true;
                    }
                    false
                } else if candidate.metric() < existing.route.metric() {
                    // Different gateway, strictly better metric: switch.
                    existing.route = candidate;
                    existing.origin = Origin::Rip { learned_from: from };
                    existing.expires_at = Some(expires_at);
                    lower(&mut self.next_deadline, expires_at);
                    existing.gc_at = None;
                    existing.changed = true;
                    self.dirty = true;
                    self.route_changes += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Processes a received request, returning the response to unicast back
    /// (if any).
    pub fn handle_request(
        &mut self,
        iface: PortId,
        packet: &RipngPacket,
        _now: SimTime,
    ) -> Option<RipngPacket> {
        if packet.command != Command::Request {
            return None;
        }
        self.stats.requests_received += 1;
        if packet.is_whole_table_request() {
            // Whole-table request from a router: apply split horizon.
            return Some(RipngPacket {
                command: Command::Response,
                entries: self.advertisement_for(iface, false),
            });
        }
        // Specific-prefix request (diagnostic): answer exactly what was
        // asked, with infinity for unknown prefixes, no split horizon.
        let entries = packet
            .entries
            .iter()
            .map(|rte| {
                let metric =
                    self.rib.get(&rte.prefix).map(|r| r.route.metric()).unwrap_or(INFINITY_METRIC);
                RouteEntry::new(rte.prefix, rte.route_tag, metric.max(1))
            })
            .collect();
        Some(RipngPacket { command: Command::Response, entries })
    }

    /// Advances time: expires routes, garbage-collects, and emits periodic
    /// plus triggered updates that fall due at `now`.
    ///
    /// An idle tick — no timer due, no route flagged, no periodic update —
    /// touches no route: the timer scan runs only once `now` has reached
    /// `next_deadline`, the triggered-update scan only while `dirty`.  The
    /// scan itself is the plain walk in prefix order, so expiry order,
    /// [`RipngEngine::route_changes`] and every packet are what walking on
    /// every tick produced (`tests::gated_tick_equals_the_walk_on_every_tick`).
    /// A watermark and not an ordered deadline map: a tick that does have a
    /// timer due still walks the whole RIB, but no builtin workload (at
    /// most 400 ticks of 100 ms) lives to see the 120 s and 180 s timers
    /// fire, so the walk a map would shorten never runs there and the
    /// per-refresh map upkeep would.  `ticks × table` therefore stays
    /// unbounded on the wire for a run long enough to expire routes on many
    /// distinct ticks.
    pub fn tick(&mut self, now: SimTime) -> Vec<(PortId, RipngPacket)> {
        if self.next_deadline.is_some_and(|due| now >= due) {
            self.run_timers(now);
        }

        let mut out = Vec::new();
        if now >= self.next_periodic {
            // Periodic update.
            self.next_periodic = now + UPDATE_INTERVAL;
            for iface in &self.interfaces {
                let entries = self.advertisement_for(iface.port, true);
                if !entries.is_empty() {
                    out.push((iface.port, RipngPacket { command: Command::Response, entries }));
                    self.stats.periodic_updates_sent += 1;
                }
            }
            self.clear_changed();
        } else {
            // Triggered updates for changed routes.
            out.extend(self.triggered_updates());
        }
        out
    }

    /// The timer scan: marks overdue routes dead, drops long-dead ones, and
    /// leaves both gates exact — `next_deadline` the earliest timer still
    /// armed, `dirty` whether a route that is still there is flagged.
    fn run_timers(&mut self, now: SimTime) {
        // 1. Timeout: mark overdue routes dead.
        for rib_route in self.rib.values_mut() {
            if let Some(t) = rib_route.expires_at {
                if now >= t {
                    rib_route.route = rib_route.route.with_metric(INFINITY_METRIC);
                    rib_route.expires_at = None;
                    rib_route.gc_at = Some(now + GC_INTERVAL);
                    rib_route.changed = true;
                    self.stats.routes_expired += 1;
                    self.route_changes += 1;
                }
            }
        }
        // 2. Garbage collection: drop long-dead routes.
        let before = self.rib.len();
        let (mut earliest, mut flagged) = (None, false);
        self.rib.retain(|_, r| {
            let keep = r.gc_at.is_none_or(|t| now < t);
            if keep {
                flagged |= r.changed;
                for t in [r.expires_at, r.gc_at].into_iter().flatten() {
                    lower(&mut earliest, t);
                }
            }
            keep
        });
        self.stats.routes_deleted += (before - self.rib.len()) as u64;
        self.next_deadline = earliest;
        self.dirty = flagged;
    }

    /// Builds triggered updates (changed routes only) and clears the change
    /// flags.  Nothing flagged — every idle tick — costs one test of
    /// `dirty`.
    fn triggered_updates(&mut self) -> Vec<(PortId, RipngPacket)> {
        if !self.dirty {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.interfaces.len());
        for iface in &self.interfaces {
            let entries = self
                .rib
                .values()
                .filter(|r| r.changed)
                .map(|r| self.rte_for(&r.route, iface.port))
                .collect();
            out.push((iface.port, RipngPacket { command: Command::Response, entries }));
            self.stats.triggered_updates_sent += 1;
        }
        self.clear_changed();
        out
    }

    /// Every route's changes have been advertised.
    fn clear_changed(&mut self) {
        if self.dirty {
            for r in self.rib.values_mut() {
                r.changed = false;
            }
            self.dirty = false;
        }
    }

    /// All routes as RTEs for an update on `iface`, with split horizon and
    /// poisoned reverse. `include_dead` controls whether garbage-collecting
    /// routes are advertised (they are in periodic updates, with infinity).
    fn advertisement_for(&self, iface: PortId, include_dead: bool) -> Vec<RouteEntry> {
        self.rib
            .values()
            .filter(|r| include_dead || r.route.metric() < INFINITY_METRIC)
            .map(|r| self.rte_for(&r.route, iface))
            .collect()
    }

    /// Encodes one route for advertisement on `iface`, poisoning it if it
    /// was learned on that same interface (split horizon with poisoned
    /// reverse).
    fn rte_for(&self, route: &Route, iface: PortId) -> RouteEntry {
        let metric = if route.interface() == iface && !route.is_connected() {
            INFINITY_METRIC
        } else {
            route.metric().min(INFINITY_METRIC)
        };
        RouteEntry::new(route.prefix(), route.route_tag(), metric.max(1))
    }
}

/// Lowers `deadline` to `t` if `t` is earlier (or the first).
fn lower(deadline: &mut Option<SimTime>, t: SimTime) {
    *deadline = Some(deadline.map_or(t, |d| d.min(t)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::SequentialTable;
    use crate::test_rng::Rng;

    fn engine_two_ports() -> RipngEngine {
        RipngEngine::new(vec![
            InterfaceConfig::new(
                PortId(0),
                "fe80::a".parse().unwrap(),
                vec!["2001:db8:a::/48".parse().unwrap()],
            ),
            InterfaceConfig::new(
                PortId(1),
                "fe80::b".parse().unwrap(),
                vec!["2001:db8:b::/48".parse().unwrap()],
            ),
        ])
    }

    fn response(entries: Vec<RouteEntry>) -> RipngPacket {
        RipngPacket { command: Command::Response, entries }
    }

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    fn ll(s: &str) -> Ipv6Address {
        s.parse().unwrap()
    }

    #[test]
    fn connected_routes_installed_at_start() {
        let e = engine_two_ports();
        let routes: Vec<_> = e.routes().collect();
        assert_eq!(routes.len(), 2);
        assert!(routes.iter().all(|r| r.is_connected()));
    }

    #[test]
    fn learns_route_with_incremented_metric() {
        let mut e = engine_two_ports();
        e.handle_response(
            PortId(0),
            ll("fe80::2"),
            &response(vec![RouteEntry::new(p("2001:db8:c::/48"), 0, 3)]),
            SimTime::ZERO,
        );
        let r = e.routes().find(|r| r.prefix() == p("2001:db8:c::/48")).unwrap();
        assert_eq!(r.metric(), 4);
        assert_eq!(r.next_hop(), ll("fe80::2"));
        assert_eq!(r.interface(), PortId(0));
    }

    #[test]
    fn ignores_non_link_local_source() {
        let mut e = engine_two_ports();
        e.handle_response(
            PortId(0),
            ll("2001:db8::2"), // global, not link-local
            &response(vec![RouteEntry::new(p("2001:db8:c::/48"), 0, 3)]),
            SimTime::ZERO,
        );
        assert!(e.routes().all(|r| r.prefix() != p("2001:db8:c::/48")));
    }

    #[test]
    fn better_metric_from_other_gateway_wins() {
        let mut e = engine_two_ports();
        let t = SimTime::ZERO;
        e.handle_response(
            PortId(0),
            ll("fe80::2"),
            &response(vec![RouteEntry::new(p("2001:db8:c::/48"), 0, 5)]),
            t,
        );
        e.handle_response(
            PortId(1),
            ll("fe80::3"),
            &response(vec![RouteEntry::new(p("2001:db8:c::/48"), 0, 2)]),
            t,
        );
        let r = e.routes().find(|r| r.prefix() == p("2001:db8:c::/48")).unwrap();
        assert_eq!(r.metric(), 3);
        assert_eq!(r.interface(), PortId(1));

        // Worse offer from a third gateway is ignored.
        e.handle_response(
            PortId(0),
            ll("fe80::4"),
            &response(vec![RouteEntry::new(p("2001:db8:c::/48"), 0, 9)]),
            t,
        );
        let r = e.routes().find(|r| r.prefix() == p("2001:db8:c::/48")).unwrap();
        assert_eq!(r.metric(), 3);
    }

    #[test]
    fn same_gateway_metric_increase_is_adopted() {
        let mut e = engine_two_ports();
        let t = SimTime::ZERO;
        e.handle_response(
            PortId(0),
            ll("fe80::2"),
            &response(vec![RouteEntry::new(p("2001:db8:c::/48"), 0, 2)]),
            t,
        );
        e.handle_response(
            PortId(0),
            ll("fe80::2"),
            &response(vec![RouteEntry::new(p("2001:db8:c::/48"), 0, 7)]),
            t,
        );
        let r = e.routes().find(|r| r.prefix() == p("2001:db8:c::/48")).unwrap();
        assert_eq!(r.metric(), 8);
    }

    #[test]
    fn infinity_from_gateway_kills_route() {
        let mut e = engine_two_ports();
        let t = SimTime::ZERO;
        e.handle_response(
            PortId(0),
            ll("fe80::2"),
            &response(vec![RouteEntry::new(p("2001:db8:c::/48"), 0, 2)]),
            t,
        );
        assert!(e.routes().any(|r| r.prefix() == p("2001:db8:c::/48")));
        e.handle_response(
            PortId(0),
            ll("fe80::2"),
            &response(vec![RouteEntry::new(p("2001:db8:c::/48"), 0, INFINITY_METRIC)]),
            t,
        );
        assert!(e.routes().all(|r| r.prefix() != p("2001:db8:c::/48")));
    }

    #[test]
    fn connected_routes_never_overridden() {
        let mut e = engine_two_ports();
        e.handle_response(
            PortId(1),
            ll("fe80::9"),
            &response(vec![RouteEntry::new(p("2001:db8:a::/48"), 0, 1)]),
            SimTime::ZERO,
        );
        let r = e.routes().find(|r| r.prefix() == p("2001:db8:a::/48")).unwrap();
        assert!(r.is_connected());
        assert_eq!(r.interface(), PortId(0));
    }

    #[test]
    fn next_hop_rte_applies_to_following_entries() {
        let mut e = engine_two_ports();
        let pkt = response(vec![
            RouteEntry::new(p("2001:db8:c::/48"), 0, 1), // before next-hop RTE
            RouteEntry::next_hop(ll("fe80::beef")),
            RouteEntry::new(p("2001:db8:d::/48"), 0, 1), // after
        ]);
        e.handle_response(PortId(0), ll("fe80::2"), &pkt, SimTime::ZERO);
        let c = e.routes().find(|r| r.prefix() == p("2001:db8:c::/48")).unwrap();
        let d = e.routes().find(|r| r.prefix() == p("2001:db8:d::/48")).unwrap();
        assert_eq!(c.next_hop(), ll("fe80::2"));
        assert_eq!(d.next_hop(), ll("fe80::beef"));
    }

    #[test]
    fn route_timeout_and_garbage_collection() {
        let mut e = engine_two_ports();
        e.handle_response(
            PortId(0),
            ll("fe80::2"),
            &response(vec![RouteEntry::new(p("2001:db8:c::/48"), 0, 1)]),
            SimTime::ZERO,
        );
        // Not yet expired.
        e.tick(SimTime::from_secs(179));
        assert!(e.routes().any(|r| r.prefix() == p("2001:db8:c::/48")));
        // Expired: route leaves the live set but stays in RIB for GC.
        e.tick(SimTime::from_secs(181));
        assert!(e.routes().all(|r| r.prefix() != p("2001:db8:c::/48")));
        assert_eq!(e.stats().routes_expired, 1);
        // After the GC interval it is deleted entirely.
        e.tick(SimTime::from_secs(181 + 121));
        assert_eq!(e.stats().routes_deleted, 1);
    }

    #[test]
    fn periodic_updates_every_interval() {
        let mut e = engine_two_ports();
        let first = e.tick(SimTime::ZERO);
        assert_eq!(first.len(), 2); // one per interface
        assert!(e.tick(SimTime::from_secs(10)).is_empty());
        let second = e.tick(SimTime::from_secs(30));
        assert_eq!(second.len(), 2);
        assert_eq!(e.stats().periodic_updates_sent, 4);
    }

    #[test]
    fn split_horizon_poisons_reverse() {
        let mut e = engine_two_ports();
        e.handle_response(
            PortId(0),
            ll("fe80::2"),
            &response(vec![RouteEntry::new(p("2001:db8:c::/48"), 0, 1)]),
            SimTime::ZERO,
        );
        let updates = e.tick(SimTime::ZERO);
        let on_port0 = &updates.iter().find(|(pt, _)| *pt == PortId(0)).unwrap().1;
        let on_port1 = &updates.iter().find(|(pt, _)| *pt == PortId(1)).unwrap().1;
        let m0 = on_port0.entries.iter().find(|r| r.prefix == p("2001:db8:c::/48")).unwrap().metric;
        let m1 = on_port1.entries.iter().find(|r| r.prefix == p("2001:db8:c::/48")).unwrap().metric;
        assert_eq!(m0, INFINITY_METRIC); // poisoned back toward its source
        assert_eq!(m1, 2); // advertised normally elsewhere
    }

    #[test]
    fn triggered_update_on_change() {
        let mut e = engine_two_ports();
        e.tick(SimTime::ZERO); // flush initial periodic
        let out = e.handle_response(
            PortId(0),
            ll("fe80::2"),
            &response(vec![RouteEntry::new(p("2001:db8:c::/48"), 0, 1)]),
            SimTime::from_secs(1),
        );
        assert!(!out.is_empty());
        assert!(e.stats().triggered_updates_sent > 0);
        // No further triggered updates without further changes.
        assert!(e.tick(SimTime::from_secs(2)).is_empty());
    }

    #[test]
    fn whole_table_request_answered() {
        let mut e = engine_two_ports();
        let resp = e
            .handle_request(PortId(0), &RipngPacket::whole_table_request(), SimTime::ZERO)
            .unwrap();
        assert_eq!(resp.command, Command::Response);
        assert_eq!(resp.entries.len(), 2);
    }

    #[test]
    fn specific_request_answered_without_split_horizon() {
        let mut e = engine_two_ports();
        let req = RipngPacket {
            command: Command::Request,
            entries: vec![
                RouteEntry::new(p("2001:db8:a::/48"), 0, INFINITY_METRIC),
                RouteEntry::new(p("dead::/16"), 0, INFINITY_METRIC),
            ],
        };
        let resp = e.handle_request(PortId(0), &req, SimTime::ZERO).unwrap();
        assert_eq!(resp.entries[0].metric, 1); // known
        assert_eq!(resp.entries[1].metric, INFINITY_METRIC); // unknown
    }

    #[test]
    fn sync_fib_mirrors_live_routes() {
        let mut e = engine_two_ports();
        e.handle_response(
            PortId(0),
            ll("fe80::2"),
            &response(vec![RouteEntry::new(p("2001:db8:c::/48"), 0, 1)]),
            SimTime::ZERO,
        );
        let mut fib = SequentialTable::new();
        e.sync_fib(&mut fib);
        assert_eq!(fib.len(), 3);
        use crate::table::LpmTable;
        assert!(fib.lookup(&"2001:db8:c::1".parse().unwrap()).is_hit());
    }

    #[test]
    fn route_changes_moves_exactly_when_the_live_set_does() {
        let mut e = engine_two_ports();
        let advertise = |e: &mut RipngEngine, from: &str, port: u16, metric: u8, at: u64| {
            e.handle_response(
                PortId(port),
                ll(from),
                &response(vec![RouteEntry::new(p("2001:db8:c::/48"), 0, metric)]),
                SimTime::from_secs(at),
            );
        };
        assert_eq!(e.route_changes(), 2, "one per connected route");
        e.tick(SimTime::ZERO);
        assert_eq!(e.route_changes(), 2, "a periodic update changes no route");

        advertise(&mut e, "fe80::2", 0, 5, 1);
        assert_eq!(e.route_changes(), 3, "learned");
        advertise(&mut e, "fe80::2", 0, 5, 2);
        assert_eq!(e.route_changes(), 3, "a refresh only restarts the timeout");
        advertise(&mut e, "fe80::3", 1, 9, 3);
        assert_eq!(e.route_changes(), 3, "a worse offer from another gateway is ignored");
        advertise(&mut e, "fe80::3", 1, 2, 4);
        assert_eq!(e.route_changes(), 4, "a better gateway takes the route over");
        advertise(&mut e, "fe80::3", 1, 4, 5);
        assert_eq!(e.route_changes(), 5, "the current gateway's new metric is adopted");
        e.tick(SimTime::from_secs(100));
        assert_eq!(e.route_changes(), 5, "time passing short of the timeout");
        e.tick(SimTime::from_secs(5 + 180));
        assert_eq!(e.route_changes(), 6, "timed out");
        e.tick(SimTime::from_secs(5 + 180 + 120));
        assert_eq!(e.stats().routes_deleted, 1);
        assert_eq!(e.route_changes(), 6, "collecting a dead route leaves the live set alone");

        advertise(&mut e, "fe80::2", 0, 1, 400);
        advertise(&mut e, "fe80::2", 0, INFINITY_METRIC, 401);
        assert_eq!(e.route_changes(), 8, "learned again, then withdrawn");
        advertise(&mut e, "fe80::9", 1, INFINITY_METRIC, 402);
        assert_eq!(e.route_changes(), 8, "a withdrawal of a dead route is no news");
    }

    #[test]
    fn readvertised_route_cancels_its_pending_deletion() {
        // RFC 2080 §2.3: a route re-established while the garbage-collection
        // timer runs must clear that timer, or the collector would later
        // delete a live route behind every forwarding table's back.
        let mut e = engine_two_ports();
        let from_gateway = |e: &mut RipngEngine, metric: u8, at: u64| {
            e.handle_response(
                PortId(0),
                ll("fe80::2"),
                &response(vec![RouteEntry::new(p("2001:db8:c::/48"), 0, metric)]),
                SimTime::from_secs(at),
            );
        };
        from_gateway(&mut e, 1, 0);
        from_gateway(&mut e, INFINITY_METRIC, 10); // deletion due at 130 s
        from_gateway(&mut e, 1, 20); // same gateway brings it back
        from_gateway(&mut e, 1, 120); // ... and keeps refreshing it
        let changes = e.route_changes();
        e.tick(SimTime::from_secs(131));
        assert!(e.routes().any(|r| r.prefix() == p("2001:db8:c::/48")));
        assert_eq!(e.stats().routes_deleted, 0);
        assert_eq!(e.route_changes(), changes);
    }

    #[test]
    fn triggered_updates_skip_idle_ticks_and_keep_interface_order() {
        let mut e = engine_two_ports();
        e.tick(SimTime::ZERO); // the first periodic update; the next is due at 30 s
        let learned = e.handle_response(
            PortId(0),
            ll("fe80::2"),
            &response(vec![
                RouteEntry::new(p("2001:db8:c::/48"), 0, 1),
                RouteEntry::new(p("2001:db8:d::/48"), 0, 1),
            ]),
            SimTime::from_secs(2),
        );
        assert_eq!(learned.len(), 2);
        assert!(e.tick(SimTime::from_secs(3)).is_empty(), "nothing flagged, nothing sent");
        assert_eq!(e.stats().triggered_updates_sent, 2);

        // Periodic updates up to 180 s put the next one at 210 s, so only a
        // triggered update can answer the ticks in between.
        for at in (30..=180).step_by(30) {
            assert_eq!(e.tick(SimTime::from_secs(at)).len(), 2, "periodic at {at} s");
        }
        // Both routes time out on one tick: one update per interface, in
        // interface order, each carrying both routes at infinity.
        let out = e.tick(SimTime::from_secs(182));
        assert_eq!(out.iter().map(|(port, _)| port.0).collect::<Vec<_>>(), vec![0, 1]);
        for (_, packet) in &out {
            let prefixes: Vec<_> = packet.entries.iter().map(|rte| rte.prefix).collect();
            assert_eq!(prefixes, vec![p("2001:db8:c::/48"), p("2001:db8:d::/48")]);
            assert!(packet.entries.iter().all(|rte| rte.metric == INFINITY_METRIC));
        }
        assert_eq!(e.stats().triggered_updates_sent, 4);
        assert!(e.tick(SimTime::from_secs(183)).is_empty());
    }

    #[test]
    fn startup_requests_cover_every_interface() {
        let e = engine_two_ports();
        let reqs = e.startup_requests();
        assert_eq!(reqs.len(), 2);
        assert!(reqs.iter().all(|(_, p)| p.is_whole_table_request()));
        let ports: Vec<u16> = reqs.iter().map(|(p, _)| p.0).collect();
        assert_eq!(ports, vec![0, 1]);
    }

    #[test]
    fn response_with_request_command_ignored() {
        let mut e = engine_two_ports();
        let pkt = RipngPacket {
            command: Command::Request,
            entries: vec![RouteEntry::new(p("2001:db8:c::/48"), 0, 1)],
        };
        e.handle_response(PortId(0), ll("fe80::2"), &pkt, SimTime::ZERO);
        assert!(e.routes().all(|r| r.prefix() != p("2001:db8:c::/48")));
        assert!(e.handle_request(PortId(0), &response(vec![]), SimTime::ZERO).is_none());
    }

    impl RipngEngine {
        /// `tick` as it was before the gates, kept as the reference: every
        /// route's timers walked, the RIB retained and every change flag
        /// scanned on every tick.  It reads neither `next_deadline` nor
        /// `dirty`.
        fn tick_reference(&mut self, now: SimTime) -> Vec<(PortId, RipngPacket)> {
            for rib_route in self.rib.values_mut() {
                if let Some(t) = rib_route.expires_at {
                    if now >= t {
                        rib_route.route = rib_route.route.with_metric(INFINITY_METRIC);
                        rib_route.expires_at = None;
                        rib_route.gc_at = Some(now + GC_INTERVAL);
                        rib_route.changed = true;
                        self.stats.routes_expired += 1;
                        self.route_changes += 1;
                    }
                }
            }
            let before = self.rib.len();
            self.rib.retain(|_, r| r.gc_at.is_none_or(|t| now < t));
            self.stats.routes_deleted += (before - self.rib.len()) as u64;

            let mut out = Vec::new();
            if now >= self.next_periodic {
                self.next_periodic = now + UPDATE_INTERVAL;
                for iface in &self.interfaces {
                    let entries = self.advertisement_for(iface.port, true);
                    if !entries.is_empty() {
                        out.push((iface.port, RipngPacket { command: Command::Response, entries }));
                        self.stats.periodic_updates_sent += 1;
                    }
                }
            } else if self.rib.values().any(|r| r.changed) {
                for iface in &self.interfaces {
                    let entries = self
                        .rib
                        .values()
                        .filter(|r| r.changed)
                        .map(|r| self.rte_for(&r.route, iface.port))
                        .collect();
                    out.push((iface.port, RipngPacket { command: Command::Response, entries }));
                    self.stats.triggered_updates_sent += 1;
                }
            } else {
                return out;
            }
            for r in self.rib.values_mut() {
                r.changed = false;
            }
            out
        }
    }

    /// Cases and seed of the property below; case `n` runs over
    /// `Rng(GATE_SEED ^ n)` and a failure names it.
    const GATE_CASES: u64 = 192;
    const GATE_SEED: u64 = 0x71C4_0001;

    #[test]
    fn gated_tick_equals_the_walk_on_every_tick() {
        // Three neighbours on two ports advertise, withdraw, re-advertise
        // and fall silent over six prefixes, with ticks far enough apart
        // that timeouts, garbage collection and periodic updates all fire
        // many times in a 120-step history.
        let neighbours = [(0u16, "fe80::2"), (0, "fe80::3"), (1, "fe80::4")];
        let prefixes: Vec<Ipv6Prefix> =
            (0..6).map(|i| p(&format!("2001:db8:{:x}::/48", 0xc0 + i))).collect();
        // Scans the gate let through, scans it skipped, routes expired and
        // routes deleted, over all cases: the property is vacuous if any
        // stays zero.
        let mut seen = [0u64; 4];
        for case in 0..GATE_CASES {
            let mut rng = Rng(GATE_SEED ^ case);
            let mut gated = engine_two_ports();
            let mut walked = gated.clone();
            let mut now = SimTime::ZERO;
            // Neighbours go quiet for stretches, so routes age out.
            let mut silent_until = SimTime::ZERO;
            for step in 0..120 {
                let at = format!("seed {GATE_SEED:#x}, case {case}, step {step}, {now}");
                if rng.below(12) == 0 {
                    silent_until = now + SimTime::from_secs(rng.below(400));
                }
                if now >= silent_until && rng.below(3) != 0 {
                    let (port, from) = neighbours[rng.below(3) as usize];
                    let entries = (0..1 + rng.below(4))
                        .map(|_| {
                            let prefix = prefixes[rng.below(6) as usize];
                            let metric =
                                if rng.below(4) == 0 { 16 } else { 1 + rng.below(15) as u8 };
                            RouteEntry::new(prefix, 0, metric)
                        })
                        .collect();
                    let packet = response(entries);
                    assert_eq!(
                        gated.handle_response(PortId(port), ll(from), &packet, now),
                        walked.handle_response(PortId(port), ll(from), &packet, now),
                        "{at}: triggered by the response"
                    );
                }
                seen[usize::from(gated.next_deadline.is_none_or(|due| now < due))] += 1;
                assert_eq!(gated.tick(now), walked.tick_reference(now), "{at}: packets");
                assert_eq!(gated.route_changes(), walked.route_changes(), "{at}");
                assert_eq!(gated.stats(), walked.stats(), "{at}");
                assert_eq!(gated.rib, walked.rib, "{at}: RIB");
                now += SimTime::from_secs(rng.below(5) * 10);
            }
            seen[2] += gated.stats().routes_expired;
            seen[3] += gated.stats().routes_deleted;
        }
        assert!(seen.iter().all(|&n| n > 500), "scanned, skipped, expired, deleted: {seen:?}");
    }

    #[test]
    fn next_deadline_is_lowered_when_armed_and_exact_after_a_scan() {
        let mut e = engine_two_ports();
        e.handle_response(
            PortId(0),
            ll("fe80::2"),
            &response(vec![RouteEntry::new(p("2001:db8:c::/48"), 0, 1)]),
            SimTime::ZERO,
        );
        assert_eq!(e.next_deadline, Some(ROUTE_TIMEOUT));
        e.tick(SimTime::from_millis(179_999));
        assert_eq!(e.stats().routes_expired, 0);
        e.tick(ROUTE_TIMEOUT);
        assert_eq!(e.stats().routes_expired, 1);
        let collect_at = ROUTE_TIMEOUT + GC_INTERVAL;
        assert_eq!(e.next_deadline, Some(collect_at), "exact after the scan");
        e.tick(collect_at);
        assert_eq!(e.stats().routes_deleted, 1);
        assert_eq!(e.next_deadline, None, "no timer left armed");
        assert!(!e.dirty);
    }
}
