//! Synthetic workload generation.
//!
//! The paper evaluated against the 10 Gbps line-rate requirement with a
//! ≤100-entry routing table; real traces are not available, so this module
//! generates the equivalent synthetic inputs: random-but-reproducible
//! routing tables, destination addresses that hit or miss them, forwarding
//! datagrams, and RIPng control traffic — everything the routers (both
//! cycle-accurate and behavioural) consume.

use taco_ipv6::ripng::{Command, RipngPacket, RouteEntry};
use taco_ipv6::{Datagram, Ipv6Address, Ipv6Header, Ipv6Prefix, NextHeader};
use taco_routing::{PortId, Route};

use crate::rng::SplitMix64;

/// A deterministic workload generator (seeded in-tree [`SplitMix64`]).
#[derive(Debug, Clone)]
pub struct TrafficGen {
    rng: SplitMix64,
    ports: u16,
}

impl TrafficGen {
    /// One tick's [`TrafficGen::arrivals`] never exceed the integer part of
    /// the mean by more than this — what bounds a burst workload's peak.
    pub const MAX_ARRIVAL_JITTER: u64 = 9;

    /// Creates a generator with `ports` router ports and a fixed `seed`.
    pub fn new(seed: u64, ports: u16) -> Self {
        TrafficGen { rng: SplitMix64::new(seed), ports: ports.max(1) }
    }

    /// A random global-unicast prefix with length in `16..=64` (multiples
    /// of 4, like real allocations).
    pub fn prefix(&mut self) -> Ipv6Prefix {
        let len = (self.rng.range_inclusive(4, 16) * 4) as u8;
        let mut octets = [0u8; 16];
        self.rng.fill_bytes(&mut octets);
        octets[0] = 0x20 | (octets[0] & 0x0f); // 2000::/4 global unicast
        Ipv6Prefix::new(Ipv6Address::new(octets), len).expect("len <= 64")
    }

    /// A random routing table of `n` distinct prefixes (plus an optional
    /// default route), with next hops on random ports.
    pub fn table(&mut self, n: usize, with_default: bool) -> Vec<Route> {
        let mut routes = Vec::with_capacity(n + 1);
        let mut seen = std::collections::BTreeSet::new();
        while routes.len() < n {
            let p = self.prefix();
            if !seen.insert(p) {
                continue;
            }
            routes.push(Route::new(
                p,
                self.link_local(),
                PortId(self.rng.below(u64::from(self.ports)) as u16),
                self.rng.range_inclusive(1, 8) as u8,
            ));
        }
        if with_default {
            routes.push(Route::new(
                Ipv6Prefix::DEFAULT_ROUTE,
                self.link_local(),
                PortId(self.rng.below(u64::from(self.ports)) as u16),
                15,
            ));
        }
        routes
    }

    /// A BGP-shaped prefix length, drawn from the measured length mass of
    /// the global IPv6 table (dominated by /48 provider-independent and
    /// /32 provider allocations, with a long tail of intermediate
    /// aggregates and a few short RIR super-blocks).  Weights are
    /// per-mille so the distribution is integer-exact and reproducible.
    pub fn bgp_prefix_len(&mut self) -> u8 {
        const LENGTH_MASS: [(u8, u16); 17] = [
            (48, 470),
            (32, 130),
            (44, 60),
            (40, 55),
            (36, 45),
            (29, 40),
            (46, 30),
            (64, 25),
            (34, 25),
            (30, 20),
            (33, 20),
            (45, 20),
            (42, 15),
            (35, 15),
            (28, 10),
            (24, 10),
            (47, 10),
        ];
        let mut roll = self.rng.below(1000) as u16;
        for (len, weight) in LENGTH_MASS {
            if roll < weight {
                return len;
            }
            roll -= weight;
        }
        48 // unreachable: the weights sum to 1000
    }

    /// A BGP-shaped global-unicast prefix: length from
    /// [`TrafficGen::bgp_prefix_len`], address in `2000::/3`.
    pub fn bgp_prefix(&mut self) -> Ipv6Prefix {
        let len = self.bgp_prefix_len();
        let mut octets = [0u8; 16];
        self.rng.fill_bytes(&mut octets);
        octets[0] = 0x20 | (octets[0] & 0x1f); // 2000::/3 global unicast
        Ipv6Prefix::new(Ipv6Address::new(octets).truncated(len), len).expect("len <= 64")
    }

    /// An internet-shaped routing table of `n` distinct prefixes, the way
    /// a BGP feed looks: a modest set of provider `/32` blocks, most
    /// longer prefixes carved *inside* one of them (the nesting and
    /// aliasing that separates a real LPM workload from uniform noise),
    /// and the rest scattered provider-independent space.  Scales to
    /// BGP-size tables (10k–1M entries) in one pass.
    pub fn bgp_table(&mut self, n: usize, with_default: bool) -> Vec<Route> {
        let providers = (n / 64).clamp(1, 4096);
        let blocks: Vec<Ipv6Address> = (0..providers)
            .map(|_| {
                let mut octets = [0u8; 16];
                self.rng.fill_bytes(&mut octets);
                octets[0] = 0x20 | (octets[0] & 0x1f);
                Ipv6Address::new(octets).truncated(32)
            })
            .collect();
        let mut routes = Vec::with_capacity(n + 1);
        let mut seen = std::collections::BTreeSet::new();
        // The providers announce their own /32 aggregates alongside the
        // customer more-specifics, so the blocks enter the table first.
        for block in blocks.iter().take(n) {
            let p = Ipv6Prefix::new(*block, 32).expect("/32");
            if !seen.insert(p) {
                continue;
            }
            routes.push(Route::new(
                p,
                self.link_local(),
                PortId(self.rng.below(u64::from(self.ports)) as u16),
                self.rng.range_inclusive(1, 8) as u8,
            ));
        }
        while routes.len() < n {
            let mut p = self.bgp_prefix();
            // Roughly 70% of the more-specifics live inside a provider
            // block: copy its top 32 bits under the drawn length.
            if p.len() > 32 && self.rng.below(10) < 7 {
                let block = blocks[self.rng.below(blocks.len() as u64) as usize];
                let mut addr = p.addr().to_words();
                addr[0] = block.to_words()[0];
                p = Ipv6Prefix::new(Ipv6Address::from_words(addr).truncated(p.len()), p.len())
                    .expect("len unchanged");
            }
            if !seen.insert(p) {
                continue;
            }
            routes.push(Route::new(
                p,
                self.link_local(),
                PortId(self.rng.below(u64::from(self.ports)) as u16),
                self.rng.range_inclusive(1, 8) as u8,
            ));
        }
        if with_default {
            routes.push(Route::new(
                Ipv6Prefix::DEFAULT_ROUTE,
                self.link_local(),
                PortId(self.rng.below(u64::from(self.ports)) as u16),
                15,
            ));
        }
        routes
    }

    /// A random link-local address (`fe80::/64` host part).
    pub fn link_local(&mut self) -> Ipv6Address {
        let mut octets = [0u8; 16];
        self.rng.fill_bytes(&mut octets[8..]);
        octets[0] = 0xfe;
        octets[1] = 0x80;
        for b in &mut octets[2..8] {
            *b = 0;
        }
        Ipv6Address::new(octets)
    }

    /// An address inside `prefix` (random host bits).
    pub fn addr_in(&mut self, prefix: &Ipv6Prefix) -> Ipv6Address {
        fill_host_bits(&mut self.rng, prefix)
    }

    /// A destination drawn from `routes` with probability `hit_ratio`,
    /// otherwise a (very likely) unrouted address in `4000::/4`.
    pub fn destination(&mut self, routes: &[Route], hit_ratio: f64) -> Ipv6Address {
        if !routes.is_empty() && self.rng.chance(hit_ratio) {
            let r = routes[self.rng.below(routes.len() as u64) as usize];
            self.addr_in(&r.prefix())
        } else {
            let mut octets = [0u8; 16];
            self.rng.fill_bytes(&mut octets);
            octets[0] = 0x40 | (octets[0] & 0x0f);
            Ipv6Address::new(octets)
        }
    }

    /// The wire frame of a forwarding datagram to `dst` with `payload_len`
    /// zeroed payload bytes, written once ([`data_frame`]).  The one place a
    /// data datagram's fields are drawn: source, hop limit, flow label.
    pub fn frame(&mut self, dst: Ipv6Address, payload_len: usize) -> Vec<u8> {
        let mut src = [0u8; 16];
        self.rng.fill_bytes(&mut src);
        src[0] = 0x20;
        let hop_limit = self.rng.range_inclusive(2, 255) as u8;
        let flow_label = self.rng.below(1 << 20) as u32;
        data_frame(Ipv6Address::new(src), dst, hop_limit, flow_label, payload_len)
    }

    /// A forwarding datagram to `dst` with `payload_len` payload bytes:
    /// [`TrafficGen::frame`], parsed.
    pub fn datagram(&mut self, dst: Ipv6Address, payload_len: usize) -> Datagram {
        parsed(&self.frame(dst, payload_len))
    }

    /// One arrival of a forwarding workload over `routes`: the port it
    /// arrives on and its wire frame.  Draws, in this order, the
    /// destination ([`TrafficGen::destination`]), the port, and the
    /// frame's own fields ([`TrafficGen::frame`]).
    pub fn forwarding_frame(
        &mut self,
        routes: &[Route],
        hit_ratio: f64,
        payload_len: usize,
    ) -> (PortId, Vec<u8>) {
        let dst = self.destination(routes, hit_ratio);
        let port = PortId(self.rng.below(u64::from(self.ports)) as u16);
        (port, self.frame(dst, payload_len))
    }

    /// A batch of `k` forwarding datagrams over `routes` as
    /// `(arrival port, datagram)` pairs: `k` [`TrafficGen::forwarding_frame`]s,
    /// parsed.
    pub fn forwarding_workload(
        &mut self,
        routes: &[Route],
        k: usize,
        hit_ratio: f64,
        payload_len: usize,
    ) -> Vec<(PortId, Datagram)> {
        (0..k)
            .map(|_| {
                let (port, frame) = self.forwarding_frame(routes, hit_ratio, payload_len);
                (port, parsed(&frame))
            })
            .collect()
    }

    /// A RIPng response advertising `routes` (as a neighbour would), ready
    /// to wrap in UDP.
    pub fn ripng_response(&mut self, routes: &[Route]) -> RipngPacket {
        RipngPacket {
            command: Command::Response,
            entries: routes
                .iter()
                .map(|r| RouteEntry::new(r.prefix(), r.route_tag(), r.metric().clamp(1, 15)))
                .collect(),
        }
    }

    /// A RIPng response *withdrawing* `routes`: every entry carries metric
    /// 16 (RFC 2080 "infinity"), which tells the receiver the routes are
    /// unreachable.  This is the churn half of add/withdraw scenarios.
    pub fn ripng_withdrawal(&mut self, routes: &[Route]) -> RipngPacket {
        RipngPacket {
            command: Command::Response,
            entries: routes
                .iter()
                .map(|r| RouteEntry::new(r.prefix(), r.route_tag(), 16))
                .collect(),
        }
    }

    /// Number of arrivals in one tick of a Poisson-ish process with the
    /// given mean (in thousandths, so `mean_millis = 1500` averages 1.5
    /// arrivals per tick).
    ///
    /// The count is drawn by thinning: `mean_millis / 1000` guaranteed
    /// arrivals plus Bernoulli trials for the fractional part, then a
    /// geometric-ish jitter term so the counts over-disperse the way bursty
    /// arrivals do.  All-integer parameters keep workload descriptions
    /// hashable and the stream reproducible.
    pub fn arrivals(&mut self, mean_millis: u64) -> u64 {
        let mut n = mean_millis / 1000;
        let frac = mean_millis % 1000;
        if frac > 0 && self.rng.below(1000) < frac {
            n += 1;
        }
        // Burst jitter: each extra arrival beyond the mean happens with
        // probability 1/4, compounding — E[extra] = 1/3, spread across
        // ticks it adds the clumping uniform arrivals lack.
        while self.rng.below(4) == 0 {
            n += 1;
            if n >= mean_millis / 1000 + Self::MAX_ARRIVAL_JITTER {
                break;
            }
        }
        // Pay the jitter term's expectation (~1/3 arrival) back so the
        // long-run mean stays approximately `mean_millis / 1000`.
        if n > 0 && self.rng.below(3) == 0 {
            n -= 1;
        }
        n
    }
}

/// `prefix`'s network bits followed by `128 - len` fair-coin host bits from
/// `rng`, most significant host bit first: one [`SplitMix64::coin_tosses`]
/// call ORed into the `u128` form of the address.  Neither side needs a
/// mask — a prefix's stored address is canonical (host bits zero) and the
/// sampler leaves the bits above its `n` zero.  The one way to draw host
/// bits — [`TrafficGen::addr_in`] and the flow-trace generator both come
/// here — and a `/128` draws nothing.
pub fn fill_host_bits(rng: &mut SplitMix64, prefix: &Ipv6Prefix) -> Ipv6Address {
    let network = u128::from_be_bytes(prefix.addr().octets());
    let host = rng.coin_tosses(128 - u32::from(prefix.len()));
    Ipv6Address::new((network | host).to_be_bytes())
}

/// The wire frame of a UDP-typed data datagram carrying `payload_len` zero
/// bytes: the fixed header and the payload written into one buffer, with no
/// [`Datagram`] in between.  Byte for byte what
/// `Datagram::builder(src, dst).hop_limit(..).flow_label(..)
/// .payload(NextHeader::Udp, vec![0; payload_len]).build().to_bytes()`
/// returns.
///
/// # Panics
///
/// Panics if `payload_len` does not fit the header's 16-bit length field or
/// `flow_label` its 20 bits.
pub fn data_frame(
    src: Ipv6Address,
    dst: Ipv6Address,
    hop_limit: u8,
    flow_label: u32,
    payload_len: usize,
) -> Vec<u8> {
    let header = Ipv6Header {
        traffic_class: 0,
        flow_label,
        payload_len: u16::try_from(payload_len).expect("a payload length fits 16 bits"),
        next_header: NextHeader::Udp,
        hop_limit,
        src,
        dst,
    };
    let mut frame = Vec::with_capacity(Ipv6Header::LEN + payload_len);
    frame.extend_from_slice(&header.to_bytes());
    frame.resize(Ipv6Header::LEN + payload_len, 0);
    frame
}

fn parsed(frame: &[u8]) -> Datagram {
    Datagram::parse(frame).expect("the frame writer emits well-formed datagrams")
}

/// Wraps a RIPng packet in UDP/IPv6 multicast to `ff02::9`, as RIPng
/// updates travel on the wire (RFC 2080 §2.5.1).
pub fn ripng_datagram(from: Ipv6Address, packet: &RipngPacket) -> Datagram {
    let udp = taco_ipv6::udp::UdpDatagram::new(
        taco_ipv6::ripng::PORT,
        taco_ipv6::ripng::PORT,
        packet.to_bytes(),
        &from,
        &Ipv6Address::ALL_RIPNG_ROUTERS,
    );
    Datagram::builder(from, Ipv6Address::ALL_RIPNG_ROUTERS)
        .hop_limit(255)
        .payload(NextHeader::Udp, udp.to_bytes())
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_routing::{LpmTable, SequentialTable};

    #[test]
    fn deterministic_given_seed() {
        let t1 = TrafficGen::new(7, 4).table(20, true);
        let t2 = TrafficGen::new(7, 4).table(20, true);
        assert_eq!(t1, t2);
        let t3 = TrafficGen::new(8, 4).table(20, true);
        assert_ne!(t1, t3);
    }

    #[test]
    fn table_has_requested_size_and_distinct_prefixes() {
        let routes = TrafficGen::new(1, 4).table(50, false);
        assert_eq!(routes.len(), 50);
        let mut prefixes: Vec<_> = routes.iter().map(|r| r.prefix()).collect();
        prefixes.sort();
        prefixes.dedup();
        assert_eq!(prefixes.len(), 50);
        assert!(routes.iter().all(|r| (16..=64).contains(&r.prefix().len())));
    }

    #[test]
    fn addr_in_respects_prefix() {
        let mut g = TrafficGen::new(2, 4);
        for _ in 0..50 {
            let p = g.prefix();
            let a = g.addr_in(&p);
            assert!(p.contains(&a), "{a} not in {p}");
        }
    }

    /// The per-bit loop `fill_host_bits` replaced, kept as the reference:
    /// one `chance(0.5)` per host bit, written with `with_bit`.
    fn addr_in_reference(rng: &mut SplitMix64, prefix: &Ipv6Prefix) -> Ipv6Address {
        let mut addr = prefix.addr();
        for bit in prefix.len()..128 {
            addr = addr.with_bit(bit, rng.chance(0.5));
        }
        addr
    }

    #[test]
    fn addr_in_draws_the_per_bit_loops_stream() {
        for seed in 0..32u64 {
            let mut g = TrafficGen::new(seed, 4);
            for len in 0..=128u8 {
                let mut octets = [0u8; 16];
                g.rng.fill_bytes(&mut octets);
                let prefix = Ipv6Prefix::new(Ipv6Address::new(octets), len).unwrap();
                let mut reference = g.rng.clone();
                let want = addr_in_reference(&mut reference, &prefix);
                let got = g.addr_in(&prefix);
                assert_eq!(got, want, "seed {seed}, /{len}");
                assert!(prefix.contains(&got), "{got} not in {prefix}");
                // The following draw is equal too: same number of steps.
                assert_eq!(g.rng, reference, "seed {seed}, /{len}: the stream moved");
            }
        }
        // A /128 is its own only address and draws nothing.
        let host = Ipv6Prefix::host("2001:db8::7".parse().unwrap());
        let mut g = TrafficGen::new(1, 4);
        let before = g.rng.clone();
        assert_eq!(g.addr_in(&host), host.addr());
        assert_eq!(g.rng, before);
    }

    /// Known answers: if this fails and `addr_in_draws_the_per_bit_loops_stream`
    /// passes, the generator's stream moved somewhere else — and every
    /// golden in the repository moves with it.
    #[test]
    fn default_seed_stream_known_answers() {
        // `taco_workload::DEFAULT_SEED`; the scenario harness's port count.
        let mut g = TrafficGen::new(0x7AC0_2003, 4);
        let routes = g.table(100, false);
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let destinations: Vec<String> =
            (0..4).map(|_| hex(g.destination(&routes, 0.9).as_ref())).collect();
        assert_eq!(
            destinations,
            [
                "232bad516df01cb59c0e244b82cbe2d0",
                "27dba385faab56a1b838b7b46af4a455",
                "228ec8acbcd130bced5de048261cdede",
                "42a68927f21c0df7d7e20f90424682ae",
            ],
            "the stream moved"
        );
        let dst = g.destination(&routes, 0.9);
        // The frame writer and the datagram it parses to: one draw, one
        // image.
        let mut again = g.clone();
        let frame = g.frame(dst, 8);
        assert_eq!(
            hex(&frame),
            "6006f3780008115220f02be62f52e72f470bcfe451e0dd0a\
             2eec825a95d43bbe6b1b878c7d45c69f0000000000000000",
            "the stream moved"
        );
        assert_eq!(again.datagram(dst, 8).to_bytes(), frame);
        assert_eq!(again.rng, g.rng, "datagram() draws what frame() draws");
    }

    #[test]
    fn data_frame_is_the_builders_image() {
        let mut g = TrafficGen::new(21, 4);
        for payload_len in [0usize, 1, 64, 1460] {
            let (src, dst) = (g.link_local(), g.link_local());
            let built = Datagram::builder(src, dst)
                .hop_limit(7)
                .flow_label(0xf_ffff)
                .payload(NextHeader::Udp, vec![0u8; payload_len])
                .build();
            assert_eq!(data_frame(src, dst, 7, 0xf_ffff, payload_len), built.to_bytes());
        }
    }

    #[test]
    fn hit_ratio_extremes() {
        let mut g = TrafficGen::new(3, 4);
        let routes = g.table(20, false);
        let table = SequentialTable::from_routes(routes.iter().copied());
        for _ in 0..30 {
            let hit = g.destination(&routes, 1.0);
            assert!(table.lookup(&hit).is_hit(), "{hit}");
            let miss = g.destination(&routes, 0.0);
            assert!(!table.lookup(&miss).is_hit(), "{miss}");
        }
    }

    #[test]
    fn workload_shape() {
        let mut g = TrafficGen::new(4, 4);
        let routes = g.table(10, true);
        let wl = g.forwarding_workload(&routes, 25, 0.9, 64);
        assert_eq!(wl.len(), 25);
        assert!(wl.iter().all(|(p, _)| p.0 < 4));
        assert!(wl.iter().all(|(_, d)| d.payload().len() == 64));
        assert!(wl.iter().all(|(_, d)| d.header().hop_limit >= 2));
    }

    #[test]
    fn bgp_table_is_deterministic_distinct_and_bgp_shaped() {
        let routes = TrafficGen::new(11, 4).bgp_table(10_000, true);
        assert_eq!(routes, TrafficGen::new(11, 4).bgp_table(10_000, true));
        assert_eq!(routes.len(), 10_001);
        let mut prefixes: Vec<_> = routes.iter().map(|r| r.prefix()).collect();
        prefixes.sort();
        prefixes.dedup();
        assert_eq!(prefixes.len(), 10_001, "prefixes must be distinct");
        // /48 dominates the length histogram, as in the global table.
        let mut by_len = std::collections::BTreeMap::new();
        for p in &prefixes {
            *by_len.entry(p.len()).or_insert(0usize) += 1;
        }
        let n48 = by_len[&48];
        assert!((3500..6000).contains(&n48), "/48 share off: {n48}");
        assert!(by_len[&32] > by_len[&44], "/32 must outnumber /44");
        // The nesting that stresses LPM: most long prefixes sit inside a
        // shorter covering prefix from the same table.
        let shorts: Vec<_> = prefixes.iter().filter(|p| p.len() == 32).collect();
        let longs: Vec<_> = prefixes.iter().filter(|p| p.len() > 32).collect();
        let nested = longs.iter().filter(|l| shorts.iter().any(|s| s.covers(l))).count();
        assert!(
            nested * 2 > longs.len(),
            "expected mostly-nested more-specifics: {nested}/{}",
            longs.len()
        );
    }

    #[test]
    fn bgp_lengths_stay_global_unicast_and_in_range() {
        let mut g = TrafficGen::new(12, 4);
        for _ in 0..500 {
            let p = g.bgp_prefix();
            assert!((24..=64).contains(&p.len()), "{p}");
            assert_eq!(p.addr().to_words()[0] >> 29, 1, "{p} not in 2000::/3");
        }
    }

    #[test]
    fn link_local_shape() {
        let mut g = TrafficGen::new(5, 4);
        for _ in 0..10 {
            assert!(g.link_local().is_link_local());
        }
    }

    #[test]
    fn withdrawal_carries_infinity_metric() {
        let mut g = TrafficGen::new(9, 4);
        let routes = g.table(5, false);
        let pkt = g.ripng_withdrawal(&routes);
        assert_eq!(pkt.command, Command::Response);
        assert_eq!(pkt.entries.len(), 5);
        assert!(pkt.entries.iter().all(|e| e.metric == 16));
    }

    #[test]
    fn arrivals_track_the_requested_mean() {
        let mut g = TrafficGen::new(10, 4);
        let ticks = 20_000u64;
        for mean_millis in [500u64, 1000, 2500] {
            let total: u64 = (0..ticks).map(|_| g.arrivals(mean_millis)).sum();
            let mean = total as f64 / ticks as f64;
            let want = mean_millis as f64 / 1000.0;
            assert!(
                (mean - want).abs() < 0.25,
                "mean {mean:.3} too far from {want} for {mean_millis}"
            );
        }
        // And the stream is bursty: some tick must exceed the mean, none
        // by more than the stated jitter bound.
        let peak = (0..100_000).map(|_| g.arrivals(1500)).max().unwrap();
        assert!(peak >= 3, "no bursts observed (peak {peak})");
        assert!(peak <= 1 + TrafficGen::MAX_ARRIVAL_JITTER, "peak {peak}");
    }

    #[test]
    fn ripng_datagram_parses_back() {
        let mut g = TrafficGen::new(6, 4);
        let routes = g.table(5, false);
        let pkt = g.ripng_response(&routes);
        let from = g.link_local();
        let d = ripng_datagram(from, &pkt);
        assert_eq!(d.header().dst, Ipv6Address::ALL_RIPNG_ROUTERS);
        let udp =
            taco_ipv6::udp::UdpDatagram::parse(d.payload(), &from, &Ipv6Address::ALL_RIPNG_ROUTERS)
                .unwrap();
        assert_eq!(udp.header().dst_port, taco_ipv6::ripng::PORT);
        assert_eq!(RipngPacket::parse(udp.data()).unwrap(), pkt);
    }
}
