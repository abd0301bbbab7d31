//! The forwarding table follows the RIB — by change, not by tick.
//!
//! [`Router`] reloads its table from the RIPng engine only on ticks that
//! changed the engine's live routes.  These tests pin both halves of that
//! contract at the `Router` surface: every kind of change (learn, better
//! gateway, withdrawal, timeout) is forwarded with from the very tick it
//! happens on, and a tick that changes nothing does not touch the table
//! at all.  The builtin scenarios simulate at most 40 s, far short of the
//! 180 s route timeout, so the expiry paths are covered only here.

use taco_ipv6::ripng::{Command, RipngPacket, RouteEntry};
use taco_ipv6::{Datagram, Ipv6Address, Ipv6Prefix, NextHeader};
use taco_router::{ripng_datagram, Router, SplitMix64, TrafficGen};
use taco_routing::ripng::InterfaceConfig;
use taco_routing::{Lookup, LpmTable, PortId, Route, SequentialTable, SimTime, TableKind};

const PORTS: u16 = 4;

fn interfaces() -> Vec<InterfaceConfig> {
    (0..PORTS)
        .map(|i| {
            InterfaceConfig::new(
                PortId(i),
                format!("fe80::1:{i}").parse().unwrap(),
                vec![format!("2001:db8:{i}::/48").parse().unwrap()],
            )
        })
        .collect()
}

/// Neighbour `n` lives on port `n` and speaks from its own link-local
/// address.
fn neighbour(n: u16) -> Ipv6Address {
    format!("fe80::99:{n}").parse().unwrap()
}

/// Queues a RIPng response from neighbour `n` carrying `prefixes` at
/// `metric` (16 withdraws them).
fn advertise<T: LpmTable>(router: &mut Router<T>, n: u16, prefixes: &[Ipv6Prefix], metric: u8) {
    let packet = RipngPacket {
        command: Command::Response,
        entries: prefixes.iter().map(|p| RouteEntry::new(*p, 0, metric)).collect(),
    };
    assert!(router.card_mut(PortId(n)).receive(&ripng_datagram(neighbour(n), &packet)));
}

fn datagram(dst: Ipv6Address) -> Datagram {
    Datagram::builder("2001:db8:3::5".parse().unwrap(), dst)
        .hop_limit(64)
        .payload(NextHeader::Udp, vec![0u8; 8])
        .build()
}

/// Whether a transmitted frame is a datagram for `dst`.
fn sent_to(frame: &[u8], dst: Ipv6Address) -> bool {
    Datagram::parse(frame).expect("the router emits datagrams").header().dst == dst
}

/// Sends one datagram for `dst` in on port 3 and reports which port it
/// left on, if it was forwarded at all.
fn out_port_of<T: LpmTable>(router: &mut Router<T>, dst: Ipv6Address, now: SimTime) -> Option<u16> {
    for card in 0..PORTS {
        router.card_mut(PortId(card)).drain_transmitted();
    }
    assert!(router.card_mut(PortId(3)).receive(&datagram(dst)));
    let report = router.tick(now);
    assert_eq!(report.forwarded + report.dropped, 1);
    (0..PORTS).find(|card| {
        router.card(PortId(*card)).transmitted().iter().any(|frame| sent_to(frame, dst))
    })
}

#[test]
fn every_kind_of_rib_change_reaches_the_fib_on_its_own_tick() {
    let prefix: Ipv6Prefix = "2001:db8:c::/48".parse().unwrap();
    let dst: Ipv6Address = "2001:db8:c::1".parse().unwrap();
    for kind in TableKind::ALL_KINDS {
        let mut r = Router::new(interfaces(), kind.build(&[]));
        let secs = SimTime::from_secs;
        let fib_port = |r: &Router<Box<dyn LpmTable>>| {
            r.core().table().lookup(&dst).into_route().map(|route| route.interface().0)
        };
        r.tick(SimTime::ZERO);
        assert_eq!(fib_port(&r), None, "{kind}");

        // Learned from neighbour 0 at t = 1 s; times out at 181 s.
        advertise(&mut r, 0, &[prefix], 5);
        r.tick(secs(1));
        assert_eq!(fib_port(&r), Some(0), "{kind}: learned");
        assert_eq!(out_port_of(&mut r, dst, secs(2)), Some(0), "{kind}");

        // A strictly better offer from neighbour 1 moves the out port.
        advertise(&mut r, 1, &[prefix], 2);
        r.tick(secs(3)); // refreshed: now times out at 183 s
        assert_eq!(fib_port(&r), Some(1), "{kind}: better gateway");
        assert_eq!(out_port_of(&mut r, dst, secs(4)), Some(1), "{kind}");

        // Silence.  One tick short of the timeout the route still matches;
        // the tick the timeout fires on is the tick it stops matching.
        r.tick(secs(182));
        assert_eq!(fib_port(&r), Some(1), "{kind}: not yet timed out");
        r.tick(secs(183));
        assert_eq!(fib_port(&r), None, "{kind}: timed out on this very tick");
        assert_eq!(r.ripng().stats().routes_expired, 1, "{kind}");
        assert_eq!(out_port_of(&mut r, dst, secs(184)), None, "{kind}");

        // Back from neighbour 2, then withdrawn with metric 16.
        advertise(&mut r, 2, &[prefix], 1);
        r.tick(secs(185));
        assert_eq!(out_port_of(&mut r, dst, secs(186)), Some(2), "{kind}: relearned");
        advertise(&mut r, 2, &[prefix], 16);
        r.tick(secs(187));
        assert_eq!(fib_port(&r), None, "{kind}: withdrawn");
        assert_eq!(out_port_of(&mut r, dst, secs(188)), None, "{kind}");

        // The connected routes were never disturbed by any of it.
        assert_eq!(r.core().table().len(), usize::from(PORTS), "{kind}");
    }
}

/// Counts the mutating calls a router makes on its table.
#[derive(Default)]
struct Counting {
    inner: SequentialTable,
    reloads: usize,
    inserts: usize,
    removes: usize,
    clears: usize,
}

impl Counting {
    fn writes(&self) -> [usize; 4] {
        [self.reloads, self.inserts, self.removes, self.clears]
    }
}

impl LpmTable for Counting {
    fn kind(&self) -> TableKind {
        self.inner.kind()
    }
    fn insert(&mut self, route: Route) -> Option<Route> {
        self.inserts += 1;
        self.inner.insert(route)
    }
    fn remove(&mut self, prefix: &Ipv6Prefix) -> Option<Route> {
        self.removes += 1;
        self.inner.remove(prefix)
    }
    fn lookup(&self, addr: &Ipv6Address) -> Lookup {
        self.inner.lookup(addr)
    }
    fn get(&self, prefix: &Ipv6Prefix) -> Option<Route> {
        self.inner.get(prefix)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn routes(&self) -> Vec<Route> {
        self.inner.routes()
    }
    fn clear(&mut self) {
        self.clears += 1;
        self.inner.clear()
    }
    fn reload(&mut self, routes: &[Route]) {
        self.reloads += 1;
        self.inner.reload(routes)
    }
    fn memory_words(&self) -> usize {
        self.inner.memory_words()
    }
}

#[test]
fn idle_ticks_never_write_the_table_and_a_learning_tick_reloads_it_once() {
    let mut r = Router::new(interfaces(), Counting::default());
    assert_eq!(r.core().table().writes(), [1, 0, 0, 0], "construction loads the connected routes");

    // 100 ticks of 100 ms with data traffic, crossing no route change but
    // including the startup requests and the first periodic update.
    for tick in 0..100u64 {
        r.card_mut(PortId(3)).receive(&datagram("2001:db8:1::9".parse().unwrap()));
        let report = r.tick(SimTime::from_millis(tick * 100));
        assert_eq!(report.forwarded, 1);
    }
    assert_eq!(r.core().table().writes(), [1, 0, 0, 0], "idle ticks");

    // One tick learns five routes from two neighbours: one reload, and
    // nothing written to the table any other way.
    let mut g = TrafficGen::new(7, PORTS);
    let learned: Vec<Ipv6Prefix> = g.table(5, false).iter().map(Route::prefix).collect();
    advertise(&mut r, 0, &learned[..3], 2);
    advertise(&mut r, 1, &learned[3..], 2);
    r.tick(SimTime::from_secs(11));
    assert_eq!(r.core().table().writes(), [2, 0, 0, 0], "one learning tick");
    assert_eq!(r.core().table().len(), usize::from(PORTS) + 5);

    // Refreshes and ignored offers are not changes.
    advertise(&mut r, 0, &learned[..3], 2);
    advertise(&mut r, 2, &learned, 9);
    r.tick(SimTime::from_secs(12));
    assert_eq!(r.core().table().writes(), [2, 0, 0, 0], "refresh + worse offer");
}

fn by_prefix(mut routes: Vec<Route>) -> Vec<Route> {
    routes.sort_by_key(Route::prefix);
    routes
}

#[test]
fn fib_equals_rib_after_every_tick_of_random_control_traffic() {
    for (k, kind) in TableKind::ALL_KINDS.into_iter().enumerate() {
        let mut rng = SplitMix64::new(0xF1B_5EED ^ k as u64);
        let mut g = TrafficGen::new(0xF1B_7AB1E, PORTS);
        // Flat random prefixes plus a BGP-shaped nest, so withdrawing an
        // aggregate uncovers or strands its more-specifics.
        let mut pool: Vec<Ipv6Prefix> = g.table(12, false).iter().map(Route::prefix).collect();
        pool.extend(g.bgp_table(12, false).iter().map(Route::prefix));

        let mut r = Router::new(interfaces(), kind.build(&[]));
        let mut now = SimTime::ZERO;
        let (mut syncs, mut expired_seen) = (0u64, false);
        for tick in 0..600 {
            // Up to three neighbours speak this tick; each advertises or
            // withdraws a random slice of the pool.  A third of the ticks
            // are silent so timeouts and garbage collection get their turn.
            if rng.below(3) != 0 {
                for _ in 0..=rng.below(3) {
                    let n = rng.below(3) as u16;
                    let lo = rng.below(pool.len() as u64) as usize;
                    let hi = (lo + 1 + rng.below(8) as usize).min(pool.len());
                    let metric =
                        if rng.below(4) == 0 { 16 } else { rng.range_inclusive(1, 15) as u8 };
                    advertise(&mut r, n, &pool[lo..hi], metric);
                }
            }
            // Mostly sub-second steps, sometimes a jump long enough to
            // run routes into their 180 s timeout.
            let step = [100, 100, 1_000, 20_000, 70_000, 200_000][rng.below(6) as usize];
            now += SimTime::from_millis(step);
            let before = r.ripng().route_changes();
            r.tick(now);
            syncs += u64::from(r.ripng().route_changes() != before);
            expired_seen |= r.ripng().stats().routes_expired > 0;

            let live: Vec<Route> = r.ripng().routes().copied().collect();
            let table = r.core().table();
            assert_eq!(by_prefix(table.routes()), by_prefix(live.clone()), "{kind}, tick {tick}");
            assert_eq!(
                table.memory_words(),
                kind.build(&live).memory_words(),
                "{kind}, tick {tick}: footprint of a table built from the live routes"
            );
        }
        assert!(expired_seen, "{kind}: the run must reach route timeouts");
        assert!(r.ripng().stats().routes_deleted > 0, "{kind}: ... and garbage collection");
        assert!(0 < syncs && syncs < 600, "{kind}: {syncs} of 600 ticks changed the RIB");
    }
}
