//! RIPng message codec (RFC 2080).
//!
//! RIPng is the routing protocol the paper's router speaks: the processor
//! "builds up the Routing Table by listening for specific datagrams
//! broadcasted by the adjacent routers" and broadcasts its own table "at
//! regular intervals".  The protocol engine itself lives in the
//! `taco-routing` crate; this module is purely the wire format.

use std::fmt;

use crate::addr::Ipv6Address;
use crate::error::ParseError;
use crate::prefix::Ipv6Prefix;

/// UDP port on which RIPng listens and from which updates are sourced.
pub const PORT: u16 = 521;

/// The metric that means "unreachable" (RFC 2080 §2.1).
pub const INFINITY_METRIC: u8 = 16;

/// Marker metric identifying a next-hop RTE (RFC 2080 §2.1.1).
pub(crate) const NEXT_HOP_METRIC: u8 = 0xff;

/// RIPng command field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Command {
    /// A request for (part of) the responder's routing table.
    Request,
    /// A routing-table advertisement.
    Response,
}

impl TryFrom<u8> for Command {
    type Error = ParseError;

    fn try_from(v: u8) -> Result<Self, ParseError> {
        match v {
            1 => Ok(Command::Request),
            2 => Ok(Command::Response),
            other => Err(ParseError::BadField { field: "ripng command", value: other.into() }),
        }
    }
}

impl From<Command> for u8 {
    fn from(c: Command) -> Self {
        match c {
            Command::Request => 1,
            Command::Response => 2,
        }
    }
}

/// One route table entry (RTE): 20 bytes on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteEntry {
    /// Destination prefix.
    pub prefix: Ipv6Prefix,
    /// Route tag, carried unchanged across routers.
    pub route_tag: u16,
    /// Metric `1..=16`, or `NEXT_HOP_METRIC` for a next-hop RTE.
    pub metric: u8,
}

impl RouteEntry {
    /// Wire length of one RTE: 20 bytes.
    pub(crate) const LEN: usize = 20;

    /// Creates an ordinary route entry.
    ///
    /// # Panics
    ///
    /// Panics if `metric` is 0 or greater than [`INFINITY_METRIC`]; use
    /// [`RouteEntry::next_hop`] for next-hop RTEs.
    pub fn new(prefix: Ipv6Prefix, route_tag: u16, metric: u8) -> Self {
        assert!((1..=INFINITY_METRIC).contains(&metric), "metric {metric} out of range 1..=16");
        RouteEntry { prefix, route_tag, metric }
    }

    /// Creates a next-hop RTE naming `next_hop` as the forwarding address
    /// for the RTEs that follow it.
    pub fn next_hop(next_hop: Ipv6Address) -> Self {
        RouteEntry { prefix: Ipv6Prefix::host(next_hop), route_tag: 0, metric: NEXT_HOP_METRIC }
    }

    /// Returns `true` if this is a next-hop RTE.
    pub fn is_next_hop(&self) -> bool {
        self.metric == NEXT_HOP_METRIC
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.prefix.addr().octets());
        out.extend_from_slice(&self.route_tag.to_be_bytes());
        out.push(self.prefix.len());
        out.push(self.metric);
    }

    fn decode(bytes: &[u8]) -> Result<Self, ParseError> {
        if bytes.len() < Self::LEN {
            return Err(ParseError::Truncated {
                what: "ripng rte",
                needed: Self::LEN,
                got: bytes.len(),
            });
        }
        let mut addr = [0u8; 16];
        addr.copy_from_slice(&bytes[..16]);
        let route_tag = u16::from_be_bytes([bytes[16], bytes[17]]);
        let prefix_len = bytes[18];
        let metric = bytes[19];
        if metric != NEXT_HOP_METRIC && !(1..=INFINITY_METRIC).contains(&metric) {
            return Err(ParseError::BadField { field: "ripng metric", value: metric.into() });
        }
        Ok(RouteEntry { prefix: Ipv6Prefix::new(addr.into(), prefix_len)?, route_tag, metric })
    }
}

impl fmt::Display for RouteEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_next_hop() {
            write!(f, "next-hop {}", self.prefix.addr())
        } else {
            write!(f, "{} metric {} tag {}", self.prefix, self.metric, self.route_tag)
        }
    }
}

/// A complete RIPng packet.
///
/// # Examples
///
/// ```
/// use taco_ipv6::ripng::{Command, RipngPacket, RouteEntry};
///
/// # fn main() -> Result<(), taco_ipv6::ParseError> {
/// let pkt = RipngPacket {
///     command: Command::Response,
///     entries: vec![RouteEntry::new("2001:db8::/32".parse()?, 0, 2)],
/// };
/// let parsed = RipngPacket::parse(&pkt.to_bytes())?;
/// assert_eq!(parsed, pkt);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RipngPacket {
    /// Request or response.
    pub command: Command,
    /// Route table entries, in wire order (next-hop RTEs apply to the RTEs
    /// that follow them).
    pub entries: Vec<RouteEntry>,
}

impl RipngPacket {
    /// RIPng protocol version implemented here.
    pub(crate) const VERSION: u8 = 1;

    /// Builds the canonical "send me your whole table" request
    /// (RFC 2080 §2.4.1: one RTE with the zero prefix and infinity metric).
    pub fn whole_table_request() -> Self {
        RipngPacket {
            command: Command::Request,
            entries: vec![RouteEntry {
                prefix: Ipv6Prefix::DEFAULT_ROUTE,
                route_tag: 0,
                metric: INFINITY_METRIC,
            }],
        }
    }

    /// Returns `true` if this request asks for the entire table.
    pub fn is_whole_table_request(&self) -> bool {
        self.command == Command::Request
            && self.entries.len() == 1
            && self.entries[0].prefix == Ipv6Prefix::DEFAULT_ROUTE
            && self.entries[0].metric == INFINITY_METRIC
    }

    /// Serializes the packet (UDP payload only; no UDP header).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.entries.len() * RouteEntry::LEN);
        out.push(self.command.into());
        out.push(Self::VERSION);
        out.extend_from_slice(&[0, 0]); // must-be-zero
        for e in &self.entries {
            e.encode(&mut out);
        }
        out
    }

    /// Parses a packet from a UDP payload.
    ///
    /// # Errors
    ///
    /// * [`ParseError::Truncated`] on short input or a trailing partial RTE;
    /// * [`ParseError::BadField`] for unknown commands, versions, or metrics.
    pub fn parse(bytes: &[u8]) -> Result<Self, ParseError> {
        if bytes.len() < 4 {
            return Err(ParseError::Truncated {
                what: "ripng header",
                needed: 4,
                got: bytes.len(),
            });
        }
        let command = Command::try_from(bytes[0])?;
        if bytes[1] != Self::VERSION {
            return Err(ParseError::BadField { field: "ripng version", value: bytes[1].into() });
        }
        let body = &bytes[4..];
        if !body.len().is_multiple_of(RouteEntry::LEN) {
            return Err(ParseError::Truncated {
                what: "ripng rte",
                needed: body.len().div_ceil(RouteEntry::LEN) * RouteEntry::LEN,
                got: body.len(),
            });
        }
        let entries = body
            .chunks_exact(RouteEntry::LEN)
            .map(RouteEntry::decode)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RipngPacket { command, entries })
    }

    /// The maximum number of RTEs that fit in one packet given an MTU of
    /// `mtu` bytes (RFC 2080 §2.1: IPv6 + UDP headers subtracted).
    pub fn max_entries_for_mtu(mtu: usize) -> usize {
        mtu.saturating_sub(40 + 8 + 4) / RouteEntry::LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn response_round_trip() {
        let pkt = RipngPacket {
            command: Command::Response,
            entries: vec![
                RouteEntry::new(p("2001:db8::/32"), 7, 1),
                RouteEntry::next_hop("fe80::1".parse().unwrap()),
                RouteEntry::new(p("2001:db8:1::/48"), 0, 16),
            ],
        };
        assert_eq!(RipngPacket::parse(&pkt.to_bytes()).unwrap(), pkt);
    }

    #[test]
    fn whole_table_request_shape() {
        let req = RipngPacket::whole_table_request();
        assert!(req.is_whole_table_request());
        let rt = RipngPacket::parse(&req.to_bytes()).unwrap();
        assert!(rt.is_whole_table_request());

        let not_req = RipngPacket { command: Command::Response, entries: req.entries.clone() };
        assert!(!not_req.is_whole_table_request());
    }

    #[test]
    fn wire_layout_matches_rfc() {
        let pkt = RipngPacket {
            command: Command::Response,
            entries: vec![RouteEntry::new(p("2001:db8::/32"), 0x0102, 3)],
        };
        let b = pkt.to_bytes();
        assert_eq!(b.len(), 24);
        assert_eq!(b[0], 2); // response
        assert_eq!(b[1], 1); // version
        assert_eq!(&b[2..4], &[0, 0]);
        assert_eq!(&b[4..6], &[0x20, 0x01]); // prefix starts at offset 4
        assert_eq!(&b[20..22], &[0x01, 0x02]); // route tag
        assert_eq!(b[22], 32); // prefix len
        assert_eq!(b[23], 3); // metric
    }

    #[test]
    fn bad_command_and_version_rejected() {
        let mut b = RipngPacket::whole_table_request().to_bytes();
        b[0] = 9;
        assert!(matches!(
            RipngPacket::parse(&b),
            Err(ParseError::BadField { field: "ripng command", .. })
        ));
        b[0] = 1;
        b[1] = 2;
        assert!(matches!(
            RipngPacket::parse(&b),
            Err(ParseError::BadField { field: "ripng version", .. })
        ));
    }

    #[test]
    fn partial_rte_rejected() {
        let mut b = RipngPacket::whole_table_request().to_bytes();
        b.pop();
        assert!(matches!(RipngPacket::parse(&b), Err(ParseError::Truncated { .. })));
    }

    #[test]
    fn zero_metric_rejected_on_wire() {
        let mut b = RipngPacket {
            command: Command::Response,
            entries: vec![RouteEntry::new(p("::/0"), 0, 1)],
        }
        .to_bytes();
        b[23] = 0;
        assert!(matches!(
            RipngPacket::parse(&b),
            Err(ParseError::BadField { field: "ripng metric", .. })
        ));
    }

    #[test]
    #[should_panic(expected = "metric")]
    fn constructor_rejects_bad_metric() {
        let _ = RouteEntry::new(p("::/0"), 0, 17);
    }

    #[test]
    fn mtu_capacity() {
        // Classic Ethernet: (1500 - 52) / 20 = 72 RTEs.
        assert_eq!(RipngPacket::max_entries_for_mtu(1500), 72);
        assert_eq!(RipngPacket::max_entries_for_mtu(52), 0);
        assert_eq!(RipngPacket::max_entries_for_mtu(0), 0);
    }

    #[test]
    fn next_hop_display() {
        let nh = RouteEntry::next_hop("fe80::1".parse().unwrap());
        assert!(nh.is_next_hop());
        assert_eq!(nh.to_string(), "next-hop fe80::1");
        let e = RouteEntry::new(p("2001:db8::/32"), 5, 2);
        assert_eq!(e.to_string(), "2001:db8::/32 metric 2 tag 5");
    }
}
