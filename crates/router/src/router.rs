//! The complete router of the paper's Fig. 1: line cards around a
//! forwarding core plus the RIPng control plane.
//!
//! This is the *behavioural* integration (the cycle-accurate equivalent of
//! the forwarding core lives in [`crate::cycle`]): datagrams flow from line
//! card input buffers through the forwarding core to line card output
//! buffers, RIPng traffic is terminated and answered, and the routing table
//! the core forwards with is kept in sync with the RIPng RIB — "the TACO
//! processor is in charge of deciding how the forwarded datagrams are to be
//! routed between the line cards and takes care of building and maintaining
//! its routing table".

use taco_ipv6::ripng::{Command, RipngPacket, PORT};
use taco_ipv6::udp::UdpDatagram;
use taco_ipv6::{Datagram, Ipv6Address, NextHeader};
use taco_routing::ripng::{InterfaceConfig, RipngEngine};
use taco_routing::{LpmTable, PortId, SimTime};

use crate::linecard::LineCard;
use crate::reference::{DropReason, ForwardDecision, ReferenceRouter};
use crate::traffic::ripng_datagram;

/// What one [`Router::tick`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Datagrams forwarded between line cards.
    pub forwarded: u64,
    /// Datagrams delivered to the control plane.
    pub delivered: u64,
    /// Datagrams dropped.
    pub dropped: u64,
    /// Of [`TickReport::dropped`], frames the core rejected as malformed
    /// (parse failures — RFC 2460 says drop, no ICMP error).
    pub dropped_malformed: u64,
    /// Of [`TickReport::dropped`], datagrams that expired (hop limit),
    /// bouncing an ICMPv6 time-exceeded.
    pub dropped_hop_limit: u64,
    /// RIPng packets transmitted (periodic, triggered and replies).
    pub ripng_sent: u64,
}

/// An IPv6 router: line cards + forwarding core + RIPng.
///
/// # Examples
///
/// Two routers discovering each other's networks is shown in the
/// `ripng_convergence` example; the unit tests below exercise the pieces.
#[derive(Debug)]
pub struct Router<T: LpmTable> {
    cards: Vec<LineCard>,
    core: ReferenceRouter<T>,
    ripng: RipngEngine,
    /// [`RipngEngine::route_changes`] at the last FIB sync.  Nothing but
    /// that sync writes the table (no `&mut` to it ever leaves the
    /// router), so while the engine still reports this value the FIB is
    /// exact.
    fib_synced_at: u64,
    started: bool,
}

impl<T: LpmTable> Router<T> {
    /// Builds a router with one line card per interface; `table` seeds the
    /// forwarding state (it is immediately overwritten from the RIPng RIB,
    /// which starts with the connected routes).
    pub fn new(interfaces: Vec<InterfaceConfig>, table: T) -> Self {
        let cards = interfaces.iter().map(|i| LineCard::new(i.port)).collect();
        let local_addrs = interfaces.iter().map(|i| i.address).collect();
        let ripng = RipngEngine::new(interfaces);
        let mut core = ReferenceRouter::new(table, local_addrs);
        ripng.sync_fib(core.table_mut());
        let fib_synced_at = ripng.route_changes();
        Router { cards, core, ripng, fib_synced_at, started: false }
    }

    /// The line card serving `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` has no card.
    pub fn card(&self, port: PortId) -> &LineCard {
        self.cards.iter().find(|c| c.port() == port).expect("no such port")
    }

    /// Mutable access to the line card serving `port` (to inject traffic
    /// and drain output).
    ///
    /// # Panics
    ///
    /// Panics if `port` has no card.
    pub fn card_mut(&mut self, port: PortId) -> &mut LineCard {
        self.cards.iter_mut().find(|c| c.port() == port).expect("no such port")
    }

    /// The forwarding core (stats, table).
    pub fn core(&self) -> &ReferenceRouter<T> {
        &self.core
    }

    /// The RIPng engine (RIB, stats).
    pub fn ripng(&self) -> &RipngEngine {
        &self.ripng
    }

    /// All line cards, in interface order.
    pub fn cards(&self) -> &[LineCard] {
        &self.cards
    }

    /// Datagrams waiting in line-card input buffers across the router.
    pub fn pending(&self) -> usize {
        self.cards.iter().map(|c| c.pending()).sum()
    }

    /// Processes all pending input, runs protocol timers at `now`, and —
    /// when the tick changed the RIB's live routes — reloads the
    /// forwarding table from it.  Datagrams serviced in a tick are
    /// forwarded with the table as the previous tick left it.
    pub fn tick(&mut self, now: SimTime) -> TickReport {
        self.tick_budgeted(now, usize::MAX)
    }

    /// Like [`Router::tick`], but processes at most `max_datagrams` from the
    /// input buffers — the rest stay queued for later ticks.  This is the
    /// scenario engine's service-rate model: a processor that can forward
    /// only so many datagrams per tick falls behind a line-rate burst, and
    /// the backlog (then the tail drops) becomes measurable.
    pub fn tick_budgeted(&mut self, now: SimTime, max_datagrams: usize) -> TickReport {
        let mut report = TickReport::default();
        let mut budget = max_datagrams;

        // RFC 2080 §2.5.1: on startup, ask every neighbour for its whole
        // table rather than waiting out a periodic-update interval.
        if !self.started {
            self.started = true;
            for (port, request) in self.ripng.startup_requests() {
                self.send_ripng(port, &request, Ipv6Address::ALL_RIPNG_ROUTERS);
                report.ripng_sent += 1;
            }
        }

        // 1. Drain line-card inputs through the forwarding core.
        'service: for card in 0..self.cards.len() {
            let port = self.cards[card].port();
            loop {
                if budget == 0 {
                    break 'service;
                }
                let Some(frame) = self.cards[card].poll_input() else {
                    break;
                };
                budget -= 1;
                match self.core.process(port, frame) {
                    ForwardDecision::Forward { out_port, frame } => {
                        report.forwarded += 1;
                        self.card_mut(out_port).transmit(frame);
                    }
                    ForwardDecision::Deliver { datagram } => {
                        report.delivered += 1;
                        report.ripng_sent += self.deliver(port, &datagram, now);
                    }
                    ForwardDecision::Drop { icmp, reason } => {
                        report.dropped += 1;
                        match reason {
                            DropReason::Malformed => report.dropped_malformed += 1,
                            DropReason::HopLimitExceeded => report.dropped_hop_limit += 1,
                            _ => {}
                        }
                        if let Some(err) = icmp {
                            self.cards[card].transmit(err);
                        }
                    }
                }
            }
        }

        // 2. Protocol timers: periodic/triggered updates, expirations.
        for (port, packet) in self.ripng.tick(now) {
            self.send_ripng(port, &packet, Ipv6Address::ALL_RIPNG_ROUTERS);
            report.ripng_sent += 1;
        }

        // 3. Forwarding table follows the RIB — by change: a tick that
        //    left the live routes alone leaves the table alone.
        let changes = self.ripng.route_changes();
        if changes != self.fib_synced_at {
            self.ripng.sync_fib(self.core.table_mut());
            self.fib_synced_at = changes;
        }
        report
    }

    /// Handles a locally delivered datagram; returns how many RIPng packets
    /// were transmitted in response.
    fn deliver(&mut self, port: PortId, datagram: &Datagram, now: SimTime) -> u64 {
        if datagram.upper_protocol() != NextHeader::Udp {
            return 0; // ping etc. are beyond the control plane modelled here
        }
        let Ok(udp) =
            UdpDatagram::parse(datagram.payload(), &datagram.header().src, &datagram.header().dst)
        else {
            return 0;
        };
        if udp.header().dst_port != PORT {
            return 0;
        }
        let Ok(packet) = RipngPacket::parse(udp.data()) else {
            return 0;
        };
        let from = datagram.header().src;
        let mut sent = 0;
        match packet.command {
            Command::Response => {
                for (out_port, update) in self.ripng.handle_response(port, from, &packet, now) {
                    self.send_ripng(out_port, &update, Ipv6Address::ALL_RIPNG_ROUTERS);
                    sent += 1;
                }
            }
            Command::Request => {
                if let Some(reply) = self.ripng.handle_request(port, &packet, now) {
                    self.send_ripng(port, &reply, from);
                    sent += 1;
                }
            }
        }
        sent
    }

    /// Transmits a RIPng packet, splitting it at the interface MTU as
    /// RFC 2080 §2.1 requires ("as many packets as necessary").
    fn send_ripng(&mut self, port: PortId, packet: &RipngPacket, to: Ipv6Address) {
        let from = self
            .ripng
            .interfaces()
            .iter()
            .find(|i| i.port == port)
            .map(|i| i.address)
            .unwrap_or(Ipv6Address::UNSPECIFIED);
        let mtu = self.card(port).mtu();
        let per_packet = RipngPacket::max_entries_for_mtu(mtu).max(1);

        let mut chunks: Vec<RipngPacket> = if packet.entries.len() <= per_packet {
            vec![packet.clone()]
        } else {
            packet
                .entries
                .chunks(per_packet)
                .map(|entries| RipngPacket { command: packet.command, entries: entries.to_vec() })
                .collect()
        };
        for chunk in chunks.drain(..) {
            let datagram = if to == Ipv6Address::ALL_RIPNG_ROUTERS {
                ripng_datagram(from, &chunk)
            } else {
                let udp = UdpDatagram::new(PORT, PORT, chunk.to_bytes(), &from, &to);
                Datagram::builder(from, to)
                    .hop_limit(255)
                    .payload(NextHeader::Udp, udp.to_bytes())
                    .build()
            };
            self.card_mut(port).transmit(datagram.to_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_routing::SequentialTable;

    fn interfaces() -> Vec<InterfaceConfig> {
        vec![
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
        ]
    }

    fn router() -> Router<SequentialTable> {
        Router::new(interfaces(), SequentialTable::new())
    }

    /// Everything `port`'s card has put on the wire, parsed back.
    fn sent(r: &mut Router<SequentialTable>, port: PortId) -> Vec<Datagram> {
        let frames = r.card_mut(port).drain_transmitted();
        frames.iter().map(|f| Datagram::parse(f).expect("the router emits datagrams")).collect()
    }

    fn dgram(dst: &str) -> Datagram {
        Datagram::builder("2001:db8:a::5".parse().unwrap(), dst.parse().unwrap())
            .hop_limit(64)
            .payload(NextHeader::Udp, vec![0u8; 8])
            .build()
    }

    #[test]
    fn forwards_between_connected_networks() {
        let mut r = router();
        r.card_mut(PortId(0)).receive(&dgram("2001:db8:b::7"));
        let report = r.tick(SimTime::ZERO);
        assert_eq!(report.forwarded, 1);
        let out = sent(&mut r, PortId(1));
        // Output card carries the forwarded datagram plus its periodic
        // RIPng update; find the forwarded one.
        assert!(out.iter().any(|d| d.header().hop_limit == 63));
    }

    #[test]
    fn first_tick_sends_startup_requests_and_periodic_updates() {
        let mut r = router();
        let report = r.tick(SimTime::ZERO);
        assert_eq!(report.ripng_sent, 4); // request + periodic per interface
                                          // The startup request is a whole-table RIPng request on the wire.
        let out = sent(&mut r, PortId(0));
        let has_request = out.iter().any(|d| {
            UdpDatagram::parse(d.payload(), &d.header().src, &d.header().dst)
                .ok()
                .and_then(|u| RipngPacket::parse(u.data()).ok())
                .is_some_and(|p| p.is_whole_table_request())
        });
        assert!(has_request);
        // Subsequent ticks send no further requests.
        let report = r.tick(SimTime::from_secs(30));
        assert_eq!(report.ripng_sent, 2);
    }

    #[test]
    fn learns_from_neighbour_response() {
        let mut r = router();
        r.tick(SimTime::ZERO);
        let mut g = crate::traffic::TrafficGen::new(1, 2);
        let foreign = taco_routing::Route::new(
            "2001:db8:c::/48".parse().unwrap(),
            "fe80::2".parse().unwrap(),
            PortId(0),
            1,
        );
        let pkt = g.ripng_response(&[foreign]);
        let adv = ripng_datagram("fe80::2".parse().unwrap(), &pkt);
        r.card_mut(PortId(0)).receive(&adv);
        r.tick(SimTime::from_secs(1));
        // The learned route is now in the FIB: traffic to it forwards.
        r.card_mut(PortId(1)).receive(&dgram("2001:db8:c::1"));
        let report = r.tick(SimTime::from_secs(2));
        assert_eq!(report.forwarded, 1);
    }

    #[test]
    fn answers_whole_table_requests_unicast() {
        let mut r = router();
        r.tick(SimTime::ZERO);
        let req = RipngPacket::whole_table_request();
        let from: Ipv6Address = "fe80::77".parse().unwrap();
        let udp = UdpDatagram::new(PORT, PORT, req.to_bytes(), &from, &"fe80::a".parse().unwrap());
        let d = Datagram::builder(from, "fe80::a".parse().unwrap())
            .hop_limit(255)
            .payload(NextHeader::Udp, udp.to_bytes())
            .build();
        r.card_mut(PortId(0)).receive(&d);
        r.tick(SimTime::from_secs(1));
        let out = sent(&mut r, PortId(0));
        let reply =
            out.iter().find(|d| d.header().dst == from).expect("unicast reply to the requester");
        let udp = UdpDatagram::parse(reply.payload(), &reply.header().src, &from).unwrap();
        let pkt = RipngPacket::parse(udp.data()).unwrap();
        assert_eq!(pkt.command, Command::Response);
        assert_eq!(pkt.entries.len(), 2); // both connected networks
    }

    #[test]
    fn large_tables_split_across_mtu_sized_updates() {
        // 100 learned routes + 2 connected exceed one Ethernet-MTU packet
        // (72 RTEs); the periodic update must arrive as two datagrams, each
        // within the MTU, together carrying every route.
        let mut r = router();
        let mut g = crate::traffic::TrafficGen::new(5, 2);
        let foreign = g.table(100, false);
        // The neighbour also respects the MTU: advertise in two chunks.
        for chunk in foreign.chunks(60) {
            let pkt = g.ripng_response(chunk);
            let adv = ripng_datagram("fe80::2".parse().unwrap(), &pkt);
            assert!(r.card_mut(PortId(0)).receive(&adv), "advertisement exceeds the MTU");
        }
        r.tick(SimTime::ZERO);
        r.card_mut(PortId(1)).drain_transmitted();
        r.tick(SimTime::from_secs(30)); // periodic update with the full RIB
        let out = sent(&mut r, PortId(1));
        let mut total_entries = 0;
        let mut update_packets = 0;
        for d in &out {
            assert!(d.wire_len() <= 1500, "update exceeds the MTU: {}", d.wire_len());
            if let Ok(udp) = UdpDatagram::parse(d.payload(), &d.header().src, &d.header().dst) {
                if let Ok(p) = RipngPacket::parse(udp.data()) {
                    if p.command == Command::Response {
                        update_packets += 1;
                        total_entries += p.entries.len();
                    }
                }
            }
        }
        assert!(update_packets >= 2, "expected a split update, got {update_packets}");
        assert_eq!(total_entries, 102);
    }

    #[test]
    fn budgeted_tick_leaves_backlog_queued() {
        let mut r = router();
        for _ in 0..5 {
            r.card_mut(PortId(0)).receive(&dgram("2001:db8:b::7"));
        }
        assert_eq!(r.pending(), 5);
        let report = r.tick_budgeted(SimTime::ZERO, 2);
        assert_eq!(report.forwarded, 2);
        assert_eq!(r.pending(), 3);
        // The remainder drains on later ticks, in arrival order.
        let report = r.tick_budgeted(SimTime::from_secs(1), usize::MAX);
        assert_eq!(report.forwarded, 3);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn no_route_counts_drop() {
        let mut r = router();
        r.card_mut(PortId(0)).receive(&dgram("9999::1"));
        let report = r.tick(SimTime::ZERO);
        assert_eq!(report.dropped, 1);
        assert_eq!(report.forwarded, 0);
        // A no-route drop is neither malformed nor expired.
        assert_eq!(report.dropped_malformed, 0);
        assert_eq!(report.dropped_hop_limit, 0);
    }

    #[test]
    fn malformed_and_expiring_frames_drop_gracefully_by_class() {
        let mut r = router();
        r.tick(SimTime::ZERO); // startup traffic out of the way
                               // Truncated garbage straight off the wire.
        assert!(r.card_mut(PortId(0)).receive_raw(vec![0xff; 12]));
        // A consistent frame whose version nibble says IPv4.
        let mut bad = dgram("2001:db8:b::7").to_bytes();
        bad[0] = (bad[0] & 0x0f) | (4 << 4);
        assert!(r.card_mut(PortId(0)).receive_raw(bad));
        // An expiring datagram.
        let expired =
            Datagram::builder("2001:db8:a::5".parse().unwrap(), "2001:db8:b::7".parse().unwrap())
                .hop_limit(0)
                .payload(NextHeader::Udp, vec![0u8; 4])
                .build();
        assert!(r.card_mut(PortId(0)).receive(&expired));

        let report = r.tick(SimTime::from_secs(1));
        assert_eq!(report.dropped, 3);
        assert_eq!(report.dropped_malformed, 2);
        assert_eq!(report.dropped_hop_limit, 1);
        assert_eq!(report.forwarded, 0);
        // The expiring datagram bounced an ICMPv6 time-exceeded; malformed
        // frames are dropped silently per RFC 2460.
        let out = sent(&mut r, PortId(0));
        assert_eq!(out.iter().filter(|d| d.upper_protocol() == NextHeader::Icmpv6).count(), 1);
    }
}
