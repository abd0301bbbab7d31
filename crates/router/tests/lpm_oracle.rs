//! The cross-engine LPM differential oracle.
//!
//! Every routing-table organisation must give *identical* longest-prefix
//! match answers — hit/miss, egress interface, next hop — because they all
//! implement the same RFC 4632 semantics; only their cost models differ.
//! These tests pit every engine ([`TableKind::ALL_KINDS`]) against each
//! other on seeded randomized tables up to BGP size (10k prefixes, with the
//! nesting and aliasing of a real feed), so a correctness bug in any engine
//! surfaces as a disagreement instead of silently skewing Table 1.

use std::collections::BTreeMap;

use taco_ipv6::{Ipv6Address, Ipv6Prefix};
use taco_router::traffic::TrafficGen;
use taco_router::SplitMix64;
use taco_routing::{LpmTable, PortId, Route, TableKind};

/// The observable answer of one lookup, compared byte-for-byte.
fn answer(
    table: &dyn LpmTable,
    dst: &Ipv6Address,
) -> Option<(taco_ipv6::Ipv6Prefix, Ipv6Address, PortId)> {
    table.lookup(dst).into_route().map(|r| (r.prefix(), r.next_hop(), r.interface()))
}

/// Asserts every organisation answers `probes` identically over
/// `routes`, returning the number of hits for sanity checks.
fn assert_all_kinds_agree(routes: &[Route], probes: &[Ipv6Address]) -> usize {
    let tables: Vec<(TableKind, Box<dyn LpmTable>)> =
        TableKind::ALL_KINDS.iter().map(|k| (*k, k.build(routes))).collect();
    let mut hits = 0usize;
    for dst in probes {
        let reference = answer(tables[0].1.as_ref(), dst);
        for (kind, table) in &tables[1..] {
            let got = answer(table.as_ref(), dst);
            assert_eq!(got, reference, "{kind} disagrees with {} on {dst}", tables[0].0);
        }
        hits += usize::from(reference.is_some());
    }
    hits
}

#[test]
fn all_engines_agree_on_a_bgp_table_at_10k_prefixes() {
    let mut g = TrafficGen::new(0xB6F_0001, 8);
    let routes = g.bgp_table(10_000, false);
    // Probe mix: mostly addresses inside some route (often several nested
    // candidates), the rest random global unicast that usually misses.
    let probes: Vec<Ipv6Address> = (0..2_000)
        .map(|i| {
            if i % 4 != 0 {
                let r = routes[(i * 2654435761) % routes.len()];
                g.addr_in(&r.prefix())
            } else {
                g.addr_in(&"2000::/3".parse().unwrap())
            }
        })
        .collect();
    let hits = assert_all_kinds_agree(&routes, &probes);
    assert!(hits >= 1_500, "probe mix should mostly hit: {hits}/2000");
    assert!(hits < 2_000, "probe mix should include misses: {hits}/2000");
}

#[test]
fn all_engines_agree_with_a_default_route_catching_the_misses() {
    let mut g = TrafficGen::new(0xB6F_0002, 8);
    let routes = g.bgp_table(10_000, true);
    let probes: Vec<Ipv6Address> =
        (0..1_000).map(|_| g.addr_in(&"2000::/3".parse().unwrap())).collect();
    let hits = assert_all_kinds_agree(&routes, &probes);
    assert_eq!(hits, 1_000, "the default route must catch everything");
}

#[test]
fn all_engines_agree_on_aliased_and_nested_prefixes() {
    // A hand-built worst case: a full nesting chain under one /16, two
    // sibling /48s differing only in their last prefix bit (aliases), a
    // host route, and a default — the shapes that break naive LPM.
    let route = |p: &str, iface: u16| -> Route {
        Route::new(p.parse().unwrap(), "fe80::1".parse().unwrap(), PortId(iface), 1)
    };
    let routes = vec![
        route("::/0", 1),
        route("2001::/16", 2),
        route("2001:db8::/32", 3),
        route("2001:db8:aa::/47", 4),
        route("2001:db8:aa::/48", 5),
        route("2001:db8:ab::/48", 6),
        route("2001:db8:aa:bb::/64", 7),
        route("2001:db8:aa:bb::77/128", 8),
        route("4000::/2", 9),
    ];
    let mut g = TrafficGen::new(0xB6F_0003, 8);
    let mut probes: Vec<Ipv6Address> = vec![
        "2001:db8:aa:bb::77".parse().unwrap(), // the host route
        "2001:db8:aa:bb::78".parse().unwrap(), // one off: the /64
        "2001:db8:aa::1".parse().unwrap(),     // /48 over /47
        "2001:db8:ab::1".parse().unwrap(),     // the alias sibling
        "2001:db8:ff::1".parse().unwrap(),     // only the /32
        "2001:ff::1".parse().unwrap(),         // only the /16
        "9999::1".parse().unwrap(),            // the default
        "5000::1".parse().unwrap(),            // the /2
    ];
    for r in &routes {
        for _ in 0..32 {
            probes.push(g.addr_in(&r.prefix()));
        }
    }
    let hits = assert_all_kinds_agree(&routes, &probes);
    assert_eq!(hits, probes.len(), "the default route catches everything");
}

#[test]
fn all_engines_agree_under_seeded_random_tables_of_many_sizes() {
    for (seed, n) in [(1u64, 10usize), (2, 100), (3, 1_000), (4, 4_000)] {
        let mut g = TrafficGen::new(seed, 8);
        let routes = g.bgp_table(n, seed % 2 == 0);
        let probes: Vec<Ipv6Address> = (0..400)
            .map(|i| {
                if i % 3 == 0 {
                    g.addr_in(&"2000::/3".parse().unwrap())
                } else {
                    let r = routes[(i * 40503) % routes.len()];
                    g.addr_in(&r.prefix())
                }
            })
            .collect();
        assert_all_kinds_agree(&routes, &probes);
    }
}

/// Any address at all.
fn address(rng: &mut SplitMix64) -> Ipv6Address {
    let mut octets = [0u8; 16];
    rng.fill_bytes(&mut octets);
    Ipv6Address::new(octets)
}

/// `noise` with its first `prefix.len()` bits replaced by the prefix's.
fn inside(prefix: &Ipv6Prefix, mut noise: Ipv6Address) -> Ipv6Address {
    for bit in 0..prefix.len() {
        noise = noise.with_bit(bit, prefix.addr().bit(bit));
    }
    noise
}

/// Cases and seed of the history differential below; case `n` runs over
/// `SplitMix64::new(HISTORY_SEED ^ n)`.
const HISTORY_CASES: u64 = 64;
const HISTORY_SEED: u64 = 0xB6F_0005;

#[test]
fn all_engines_follow_a_model_through_arbitrary_insert_and_remove_histories() {
    // The tables above come from `TrafficGen`: global-unicast prefixes of
    // plausible lengths, built once.  Here every bit of a prefix is
    // arbitrary (lengths 0 and 128, top bits anywhere), routes are
    // replaced and removed as often as added, and after every step each
    // engine must equal a `BTreeMap` scanned for the longest match: what
    // `insert` and `remove` return, `len`, `get`, and the route a lookup
    // finds from inside a stored prefix and from a random address.
    for case in 0..HISTORY_CASES {
        let mut rng = SplitMix64::new(HISTORY_SEED ^ case);
        let what = |step: u64| format!("seed {HISTORY_SEED:#x}, case {case}, step {step}");
        // A small pool, half of it nested inside the other half, so
        // replacement, removal and more-specific matches all recur.
        let mut pool: Vec<Ipv6Prefix> = Vec::new();
        for _ in 0..12 {
            let outer =
                Ipv6Prefix::new(address(&mut rng), rng.range_inclusive(0, 128) as u8).unwrap();
            let longer = rng.range_inclusive(u64::from(outer.len()), 128) as u8;
            let nested = Ipv6Prefix::new(inside(&outer, address(&mut rng)), longer).unwrap();
            pool.extend([outer, nested]);
        }

        let mut model: BTreeMap<Ipv6Prefix, Route> = BTreeMap::new();
        let mut tables: Vec<(TableKind, Box<dyn LpmTable>)> =
            TableKind::ALL_KINDS.iter().map(|k| (*k, k.build(&[]))).collect();
        for step in 0..rng.range_inclusive(1, 60) {
            let prefix = pool[rng.below(pool.len() as u64) as usize];
            if rng.below(3) == 0 {
                let expected = model.remove(&prefix);
                for (kind, table) in &mut tables {
                    assert_eq!(table.remove(&prefix), expected, "{kind} remove, {}", what(step));
                }
            } else {
                let route = Route::new(
                    prefix,
                    address(&mut rng),
                    PortId(rng.below(8) as u16),
                    rng.range_inclusive(1, 15) as u8,
                );
                let expected = model.insert(prefix, route);
                for (kind, table) in &mut tables {
                    assert_eq!(table.insert(route), expected, "{kind} insert, {}", what(step));
                }
            }
            let probes = [inside(&prefix, address(&mut rng)), address(&mut rng)];
            for (kind, table) in &tables {
                assert_eq!(table.len(), model.len(), "{kind} len, {}", what(step));
                assert_eq!(table.get(&prefix), model.get(&prefix).copied(), "{kind} get");
                for probe in probes {
                    let expected = model
                        .values()
                        .filter(|r| r.prefix().contains(&probe))
                        .max_by_key(|r| r.prefix().len());
                    assert_eq!(
                        table.lookup(&probe).into_route(),
                        expected.copied(),
                        "{kind} lookup of {probe}, {}",
                        what(step)
                    );
                }
            }
        }
    }
}

#[test]
fn probe_counts_scale_the_way_each_organisation_promises() {
    // Not just the answers: the *cost* signatures must keep their shapes
    // at internet size — constant CAM, log tree, branching-bound PATRICIA,
    // linear scan — since Table 1's frequencies are probes x cycle cost.
    let mut g = TrafficGen::new(0xB6F_0004, 8);
    let routes = g.bgp_table(10_000, false);
    let probes: Vec<Ipv6Address> = (0..200).map(|i| g.addr_in(&routes[i * 50].prefix())).collect();
    let max_steps = |kind: TableKind| -> u32 {
        let table = kind.build(&routes);
        probes.iter().map(|d| table.lookup(d).steps()).max().unwrap()
    };
    assert_eq!(max_steps(TableKind::Cam), 1);
    assert!(max_steps(TableKind::BalancedTree) <= 64);
    assert!(max_steps(TableKind::Patricia) <= 65, "one probe per branching bit");
    assert!(max_steps(TableKind::Sequential) > 1_000, "linear scan at 10k");
}
