//! Three routers in a line topology discover each other's networks over
//! RIPng — "the router builds up the Routing Table by listening for
//! specific datagrams broadcasted by the adjacent routers".
//!
//! Topology (port 1 of each router wired to port 0 of the next):
//!
//! ```text
//!   net A ── R0 ══ R1 ══ R2 ── net C
//!                  │
//!                net B
//! ```
//!
//! ```text
//! cargo run --example ripng_convergence
//! ```

use taco::router::Router;
use taco::routing::ripng::InterfaceConfig;
use taco::routing::{PortId, SequentialTable, SimTime};

fn router(name: u16, connected: &str) -> Router<SequentialTable> {
    let interfaces = vec![
        InterfaceConfig::new(
            PortId(0),
            format!("fe80::{}:0", name + 1).parse().expect("valid"),
            vec![connected.parse().expect("valid prefix")],
        ),
        InterfaceConfig::new(
            PortId(1),
            format!("fe80::{}:1", name + 1).parse().expect("valid"),
            vec![],
        ),
    ];
    Router::new(interfaces, SequentialTable::new())
}

/// Moves transmitted frames from one router port onto another's input.
fn wire(a: &mut Router<SequentialTable>, pa: PortId, b: &mut Router<SequentialTable>, pb: PortId) {
    for frame in a.card_mut(pa).drain_transmitted() {
        b.card_mut(pb).receive_raw(frame);
    }
}

fn main() {
    let mut r0 = router(0, "2001:db8:a::/48");
    let mut r1 = router(1, "2001:db8:b::/48");
    let mut r2 = router(2, "2001:db8:c::/48");

    for step in 0..6u64 {
        let now = SimTime::from_secs(step * 5);
        r0.tick(now);
        r1.tick(now);
        r2.tick(now);
        // R0.p1 <-> R1.p0 and R1.p1 <-> R2.p0; stub networks are drained.
        wire(&mut r0, PortId(1), &mut r1, PortId(0));
        wire(&mut r1, PortId(0), &mut r0, PortId(1));
        wire(&mut r1, PortId(1), &mut r2, PortId(0));
        wire(&mut r2, PortId(0), &mut r1, PortId(1));
        r0.card_mut(PortId(0)).drain_transmitted();
        r2.card_mut(PortId(0)).drain_transmitted();

        println!("t = {now}:");
        for (name, r) in [("R0", &r0), ("R1", &r1), ("R2", &r2)] {
            let mut routes: Vec<String> = r.ripng().routes().map(|x| x.to_string()).collect();
            routes.sort();
            println!("  {name}: {}", routes.join(" | "));
        }
        println!();
    }

    // After convergence every router knows all three networks; R0 reaches
    // net C through R1 at metric 3 (two hops past the connected metric 1).
    let r0_routes: Vec<_> = r0.ripng().routes().copied().collect();
    assert_eq!(r0_routes.len(), 3, "R0 should know nets A, B and C");
    let to_c = r0_routes
        .iter()
        .find(|r| r.prefix() == "2001:db8:c::/48".parse().expect("valid"))
        .expect("route to net C");
    println!("converged: R0 reaches net C via {} (metric {})", to_c.next_hop(), to_c.metric());
    assert_eq!(to_c.metric(), 3);
    println!(
        "RIPng stats at R1: {} periodic updates, {} triggered, {} responses processed",
        r1.ripng().stats().periodic_updates_sent,
        r1.ripng().stats().triggered_updates_sent,
        r1.ripng().stats().responses_received,
    );
}
