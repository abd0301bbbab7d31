//! Integration test: a small RIPng network converges, reroutes around
//! failures, and expires dead routes — the control-plane behaviour the
//! paper's router must sustain while forwarding at line rate.

use taco::ipv6::Ipv6Prefix;
use taco::router::Router;
use taco::routing::ripng::InterfaceConfig;
use taco::routing::{LpmTable, PortId, SequentialTable, SimTime};

type R = Router<SequentialTable>;

fn router(name: u16, stub: Option<&str>) -> R {
    let mut interfaces = vec![
        InterfaceConfig::new(
            PortId(0),
            format!("fe80::{}:0", name + 1).parse().expect("valid"),
            stub.map(|p| p.parse().expect("valid prefix")).into_iter().collect(),
        ),
        InterfaceConfig::new(
            PortId(1),
            format!("fe80::{}:1", name + 1).parse().expect("valid"),
            vec![],
        ),
    ];
    if stub.is_none() {
        interfaces.remove(0);
    }
    Router::new(interfaces, SequentialTable::new())
}

fn wire(a: &mut R, pa: PortId, b: &mut R, pb: PortId) {
    for frame in a.card_mut(pa).drain_transmitted() {
        b.card_mut(pb).receive_raw(frame);
    }
}

fn prefix(s: &str) -> Ipv6Prefix {
    s.parse().expect("valid prefix")
}

#[test]
fn line_topology_converges_with_correct_metrics() {
    let mut r0 = router(0, Some("2001:db8:a::/48"));
    let mut r1 = router(1, Some("2001:db8:b::/48"));
    let mut r2 = router(2, Some("2001:db8:c::/48"));

    for step in 0..8u64 {
        let now = SimTime::from_secs(step * 5);
        r0.tick(now);
        r1.tick(now);
        r2.tick(now);
        wire(&mut r0, PortId(1), &mut r1, PortId(0));
        wire(&mut r1, PortId(0), &mut r0, PortId(1));
        wire(&mut r1, PortId(1), &mut r2, PortId(0));
        wire(&mut r2, PortId(0), &mut r1, PortId(1));
        r0.card_mut(PortId(0)).drain_transmitted();
        r2.card_mut(PortId(0)).drain_transmitted();
    }

    // Everyone knows all three networks.
    for (name, r) in [("r0", &r0), ("r1", &r1), ("r2", &r2)] {
        assert_eq!(r.ripng().routes().count(), 3, "{name} incomplete");
    }
    // Metrics reflect distance: r0 reaches b at 2, c at 3.
    let metric = |r: &R, p: &str| {
        r.ripng()
            .routes()
            .find(|x| x.prefix() == prefix(p))
            .map(|x| x.metric())
            .expect("route present")
    };
    assert_eq!(metric(&r0, "2001:db8:a::/48"), 1);
    assert_eq!(metric(&r0, "2001:db8:b::/48"), 2);
    assert_eq!(metric(&r0, "2001:db8:c::/48"), 3);
    assert_eq!(metric(&r2, "2001:db8:a::/48"), 3);

    // The FIB serves a transit lookup end to end.
    let fib = r1.core().table();
    let hit = fib.lookup(&"2001:db8:c::99".parse().expect("valid"));
    assert!(hit.is_hit());
    assert_eq!(hit.route().expect("hit").interface(), PortId(1));
}

#[test]
fn silent_neighbour_routes_expire_and_are_garbage_collected() {
    let mut r0 = router(0, Some("2001:db8:a::/48"));
    let mut r1 = router(1, Some("2001:db8:b::/48"));

    // Converge.
    for step in 0..4u64 {
        let now = SimTime::from_secs(step * 5);
        r0.tick(now);
        r1.tick(now);
        wire(&mut r0, PortId(1), &mut r1, PortId(0));
        wire(&mut r1, PortId(0), &mut r0, PortId(1));
        r0.card_mut(PortId(0)).drain_transmitted();
        r1.card_mut(PortId(1)).drain_transmitted();
    }
    assert_eq!(r0.ripng().routes().count(), 2);

    // r1 goes silent: r0's learned route times out (180 s) while the
    // connected route stays.
    for step in 4..80u64 {
        let now = SimTime::from_secs(step * 5);
        r0.tick(now);
        r0.card_mut(PortId(0)).drain_transmitted();
        r0.card_mut(PortId(1)).drain_transmitted();
    }
    let remaining: Vec<_> = r0.ripng().routes().collect();
    assert_eq!(remaining.len(), 1, "{remaining:?}");
    assert!(remaining[0].is_connected());
    assert!(r0.ripng().stats().routes_expired >= 1);
    assert!(r0.ripng().stats().routes_deleted >= 1);

    // The FIB follows: traffic to the dead network now drops.
    assert!(!r0.core().table().lookup(&"2001:db8:b::1".parse().expect("valid")).is_hit());
}

#[test]
fn better_path_wins_in_a_triangle() {
    // r0 and r2 are directly connected AND connected through r1; r2
    // advertises its own network on both paths and r0 must pick the direct
    // (metric 2) one over the transit (metric 3) one.
    let mut r0 = Router::new(
        vec![
            InterfaceConfig::new(PortId(0), "fe80::1:0".parse().expect("valid"), vec![]),
            InterfaceConfig::new(PortId(1), "fe80::1:1".parse().expect("valid"), vec![]),
        ],
        SequentialTable::new(),
    );
    let mut r1 = router(1, None);
    let mut r2 = Router::new(
        vec![
            InterfaceConfig::new(
                PortId(0),
                "fe80::3:0".parse().expect("valid"),
                vec![prefix("2001:db8:c::/48")],
            ),
            InterfaceConfig::new(PortId(1), "fe80::3:1".parse().expect("valid"), vec![]),
            InterfaceConfig::new(PortId(2), "fe80::3:2".parse().expect("valid"), vec![]),
        ],
        SequentialTable::new(),
    );

    for step in 0..8u64 {
        let now = SimTime::from_secs(step * 5);
        r0.tick(now);
        r1.tick(now);
        r2.tick(now);
        // r0.p0 <-> r2.p1 (direct), r0.p1 <-> r1.p1... r1 has only port 1.
        wire(&mut r0, PortId(0), &mut r2, PortId(1));
        wire(&mut r2, PortId(1), &mut r0, PortId(0));
        // r0.p1 <-> r1.p1 and r1.p1 is also wired toward r2.p2: r1 relays.
        wire(&mut r0, PortId(1), &mut r1, PortId(1));
        wire(&mut r1, PortId(1), &mut r0, PortId(1));
        wire(&mut r2, PortId(2), &mut r1, PortId(1));
        r2.card_mut(PortId(0)).drain_transmitted();
    }

    let route =
        r0.ripng().routes().find(|r| r.prefix() == prefix("2001:db8:c::/48")).expect("learned");
    assert_eq!(route.metric(), 2, "direct path must win");
    assert_eq!(route.interface(), PortId(0));
}
