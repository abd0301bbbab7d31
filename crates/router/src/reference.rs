//! The behavioural reference router.
//!
//! A plain-Rust implementation of exactly the forwarding semantics the
//! microcode implements, over any [`LpmTable`].  It serves two purposes:
//!
//! * the oracle for cross-checking the cycle-accurate router (property
//!   tests feed both the same traffic and compare outputs);
//! * the router's *slow path*: ICMPv6 error generation and local delivery
//!   (RIPng), which the paper's fast path hands off.

use taco_ipv6::icmpv6::{time_exceeded_frame, unreachable_frame, UnreachableCode};
use taco_ipv6::{Datagram, DatagramView, Ipv6Address};
use taco_routing::{LpmTable, PortId};

/// Why a datagram was not forwarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The bytes did not parse as IPv6.
    Malformed,
    /// Hop limit would not survive the decrement.
    HopLimitExceeded,
    /// No route covers the destination.
    NoRoute,
    /// Multicast destination the router does not serve.
    UnservedMulticast,
}

/// The outcome of processing one received frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ForwardDecision {
    /// Send `frame` out of `out_port`: the buffer that arrived, link-layer
    /// padding cut and the hop limit (byte 7) decremented in place —
    /// nothing else is touched, so a chain the sender padded generously
    /// leaves as it came.
    Forward {
        /// The chosen output interface.
        out_port: PortId,
        /// The rewritten wire frame.
        frame: Vec<u8>,
    },
    /// The datagram is addressed to the router itself (or to a multicast
    /// group it listens to) — hand it to the control plane.
    Deliver {
        /// The delivered datagram.
        datagram: Datagram,
    },
    /// Discard, optionally bouncing an ICMPv6 error to the source.
    Drop {
        /// The classified reason.
        reason: DropReason,
        /// An ICMPv6 error, as a wire frame, to transmit back through the
        /// input port — if the RFC calls for one.
        icmp: Option<Vec<u8>>,
    },
}

/// Per-router forwarding counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForwardingStats {
    /// Datagrams forwarded.
    pub forwarded: u64,
    /// Datagrams delivered locally.
    pub delivered: u64,
    /// Datagrams dropped, any reason.
    pub dropped: u64,
    /// Of [`ForwardingStats::dropped`], parse failures (RFC 2460: drop,
    /// no ICMP error).
    pub dropped_malformed: u64,
    /// Of [`ForwardingStats::dropped`], hop-limit expirations.
    pub dropped_hop_limit: u64,
    /// Of [`ForwardingStats::dropped`], LPM misses.
    pub dropped_no_route: u64,
    /// Of [`ForwardingStats::dropped`], unserved multicast.
    pub dropped_multicast: u64,
    /// ICMPv6 errors generated.
    pub icmp_errors: u64,
}

/// The behavioural router core.
///
/// # Examples
///
/// ```
/// use taco_router::reference::{ForwardDecision, ReferenceRouter};
/// use taco_routing::{LpmTable, PortId, Route, SequentialTable};
/// use taco_ipv6::{Datagram, NextHeader};
///
/// # fn main() -> Result<(), taco_ipv6::ParseError> {
/// let table = SequentialTable::from_routes([Route::new(
///     "2001:db8::/32".parse()?, "fe80::1".parse()?, PortId(2), 1,
/// )]);
/// let mut router = ReferenceRouter::new(table, vec!["fe80::99".parse()?]);
/// let d = Datagram::builder("2001:db8:1::1".parse()?, "2001:db8:2::2".parse()?)
///     .hop_limit(64)
///     .payload(NextHeader::Udp, vec![0u8; 8])
///     .build();
/// match router.process(PortId(0), d.to_bytes()) {
///     ForwardDecision::Forward { out_port, frame } => {
///         assert_eq!(out_port, PortId(2));
///         assert_eq!(Datagram::parse(&frame)?.header().hop_limit, 63);
///     }
///     other => panic!("expected forward, got {other:?}"),
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ReferenceRouter<T: LpmTable> {
    table: T,
    local_addrs: Vec<Ipv6Address>,
    stats: ForwardingStats,
}

impl<T: LpmTable> ReferenceRouter<T> {
    /// Creates a router forwarding with `table`; datagrams addressed to any
    /// of `local_addrs` (or to the all-RIPng-routers group) are delivered
    /// locally.
    pub fn new(table: T, local_addrs: Vec<Ipv6Address>) -> Self {
        ReferenceRouter { table, local_addrs, stats: ForwardingStats::default() }
    }

    /// The forwarding table (for RIPng to update).
    pub fn table(&self) -> &T {
        &self.table
    }

    /// Mutable access to the forwarding table.
    pub(crate) fn table_mut(&mut self) -> &mut T {
        &mut self.table
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> ForwardingStats {
        self.stats
    }

    /// One of the router's own addresses, used as the source of generated
    /// ICMPv6 errors (falls back to the unspecified address when the router
    /// has none, in which case no errors are generated).
    fn own_addr(&self) -> Ipv6Address {
        self.local_addrs.first().copied().unwrap_or(Ipv6Address::UNSPECIFIED)
    }

    /// Processes one received frame (raw bytes, as the line card delivers
    /// them), validating it where it lies.  Only local delivery copies the
    /// datagram out of the frame: the control plane reads its parsed form.
    pub fn process(&mut self, _in_port: PortId, mut frame: Vec<u8>) -> ForwardDecision {
        let view = match DatagramView::parse(&frame) {
            Ok(view) => view,
            Err(_) => {
                self.stats.dropped += 1;
                self.stats.dropped_malformed += 1;
                return ForwardDecision::Drop { reason: DropReason::Malformed, icmp: None };
            }
        };
        let (src, dst) = (view.header().src, view.header().dst);

        // Local delivery (control traffic, including RIPng's ff02::9).
        if self.local_addrs.contains(&dst) || dst == Ipv6Address::ALL_RIPNG_ROUTERS {
            self.stats.delivered += 1;
            return ForwardDecision::Deliver { datagram: view.to_owned() };
        }
        if dst.is_multicast() {
            self.stats.dropped += 1;
            self.stats.dropped_multicast += 1;
            return ForwardDecision::Drop { reason: DropReason::UnservedMulticast, icmp: None };
        }

        // Hop limit must survive the decrement.
        if view.header().hop_limit < 2 {
            self.stats.dropped += 1;
            self.stats.dropped_hop_limit += 1;
            let icmp = self.error_source(src).map(|own| time_exceeded_frame(&own, &src, &frame));
            return ForwardDecision::Drop { reason: DropReason::HopLimitExceeded, icmp };
        }

        // Longest-prefix match.
        let wire_len = view.wire_len();
        match self.table.lookup(&dst).into_route() {
            Some(route) => {
                frame.truncate(wire_len);
                frame[7] -= 1; // the hop limit, checked above to be at least 2
                self.stats.forwarded += 1;
                ForwardDecision::Forward { out_port: route.interface(), frame }
            }
            None => {
                self.stats.dropped += 1;
                self.stats.dropped_no_route += 1;
                let icmp = self
                    .error_source(src)
                    .map(|own| unreachable_frame(&own, &src, UnreachableCode::NoRoute, &frame));
                ForwardDecision::Drop { reason: DropReason::NoRoute, icmp }
            }
        }
    }

    /// The address an ICMPv6 error to `to` leaves from, counting the error;
    /// `None` when none may be sent.
    fn error_source(&mut self, to: Ipv6Address) -> Option<Ipv6Address> {
        let own = self.own_addr();
        // RFC 2463 §2.4: never answer a multicast/unspecified source.
        if own.is_unspecified() || to.is_multicast() || to.is_unspecified() {
            return None;
        }
        self.stats.icmp_errors += 1;
        Some(own)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_ipv6::NextHeader;
    use taco_routing::{Route, SequentialTable};

    fn table() -> SequentialTable {
        SequentialTable::from_routes([
            Route::new("2001:db8::/32".parse().unwrap(), "fe80::1".parse().unwrap(), PortId(1), 1),
            Route::new("::/0".parse().unwrap(), "fe80::2".parse().unwrap(), PortId(2), 1),
        ])
    }

    fn router() -> ReferenceRouter<SequentialTable> {
        ReferenceRouter::new(table(), vec!["2001:db8::ffff".parse().unwrap()])
    }

    fn dgram(dst: &str, hl: u8) -> Datagram {
        Datagram::builder("2001:db8:9::1".parse().unwrap(), dst.parse().unwrap())
            .hop_limit(hl)
            .payload(NextHeader::Udp, vec![1, 2, 3])
            .build()
    }

    #[test]
    fn forwards_with_decrement() {
        let mut r = router();
        let mut arrived = dgram("2001:db8:5::1", 10).to_bytes();
        arrived.extend([0xee; 6]); // link-layer padding
        match r.process(PortId(0), arrived.clone()) {
            ForwardDecision::Forward { out_port, frame } => {
                assert_eq!(out_port, PortId(1));
                assert_eq!(frame[7], 9);
                // The same bytes but for the hop limit and the padding.
                arrived[7] = 9;
                assert_eq!(frame, arrived[..arrived.len() - 6]);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(r.stats().forwarded, 1);
    }

    #[test]
    fn default_route_catches_everything() {
        let mut r = router();
        match r.process(PortId(0), dgram("abcd::1", 10).to_bytes()) {
            ForwardDecision::Forward { out_port, .. } => assert_eq!(out_port, PortId(2)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_route_generates_icmp() {
        let table = SequentialTable::from_routes([Route::new(
            "2001:db8::/32".parse().unwrap(),
            "fe80::1".parse().unwrap(),
            PortId(1),
            1,
        )]);
        let mut r = ReferenceRouter::new(table, vec!["2001:db8::ffff".parse().unwrap()]);
        match r.process(PortId(0), dgram("abcd::1", 10).to_bytes()) {
            ForwardDecision::Drop { reason: DropReason::NoRoute, icmp: Some(err) } => {
                let err = Datagram::parse(&err).unwrap();
                assert_eq!(err.header().dst, "2001:db8:9::1".parse().unwrap());
                assert_eq!(err.upper_protocol(), NextHeader::Icmpv6);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(r.stats().icmp_errors, 1);
    }

    #[test]
    fn hop_limit_one_bounces_time_exceeded() {
        let mut r = router();
        match r.process(PortId(0), dgram("2001:db8:5::1", 1).to_bytes()) {
            ForwardDecision::Drop { reason: DropReason::HopLimitExceeded, icmp: Some(_) } => {}
            other => panic!("{other:?}"),
        }
        // Hop limit 0 likewise.
        assert!(matches!(
            r.process(PortId(0), dgram("2001:db8:5::1", 0).to_bytes()),
            ForwardDecision::Drop { reason: DropReason::HopLimitExceeded, .. }
        ));
    }

    #[test]
    fn local_delivery_beats_hop_limit() {
        let mut r = router();
        // Addressed to the router itself with hop limit 1: delivered.
        match r.process(PortId(0), dgram("2001:db8::ffff", 1).to_bytes()) {
            ForwardDecision::Deliver { .. } => {}
            other => panic!("{other:?}"),
        }
        // RIPng multicast is also local.
        assert!(matches!(
            r.process(PortId(0), dgram("ff02::9", 255).to_bytes()),
            ForwardDecision::Deliver { .. }
        ));
    }

    #[test]
    fn other_multicast_dropped_quietly() {
        let mut r = router();
        assert!(matches!(
            r.process(PortId(0), dgram("ff02::1", 10).to_bytes()),
            ForwardDecision::Drop { reason: DropReason::UnservedMulticast, icmp: None }
        ));
    }

    #[test]
    fn malformed_dropped_quietly() {
        let mut r = router();
        assert!(matches!(
            r.process(PortId(0), vec![0x45, 0, 0, 0]),
            ForwardDecision::Drop { reason: DropReason::Malformed, icmp: None }
        ));
        assert_eq!(r.stats().dropped_malformed, 1);
    }

    #[test]
    fn drops_are_classified_per_reason() {
        let mut r = router();
        let _ = r.process(PortId(0), vec![0xde, 0xad]); // malformed
        let _ = r.process(PortId(0), dgram("2001:db8:5::1", 0).to_bytes()); // expires
        let _ = r.process(PortId(0), dgram("ff02::1", 10).to_bytes()); // multicast
        let table = SequentialTable::new();
        let mut empty = ReferenceRouter::new(table, vec!["2001:db8::ffff".parse().unwrap()]);
        let _ = empty.process(PortId(0), dgram("abcd::1", 10).to_bytes()); // no route
        let s = r.stats();
        assert_eq!((s.dropped_malformed, s.dropped_hop_limit, s.dropped_multicast), (1, 1, 1));
        assert_eq!(s.dropped, 3);
        let s = empty.stats();
        assert_eq!(s.dropped_no_route, 1);
        assert_eq!(s.dropped, 1);
    }

    #[test]
    fn no_icmp_to_multicast_source() {
        let mut r = router();
        let bad_src = Datagram::builder("ff02::5".parse().unwrap(), "dead::1".parse().unwrap())
            .hop_limit(1)
            .payload(NextHeader::Udp, vec![])
            .build();
        match r.process(PortId(0), bad_src.to_bytes()) {
            ForwardDecision::Drop { icmp: None, .. } => {}
            other => panic!("{other:?}"),
        }
    }
}
