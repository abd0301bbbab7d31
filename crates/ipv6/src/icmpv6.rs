//! ICMPv6 (RFC 2463) — the error messages a router emits.
//!
//! The forwarding path writes exactly two: *destination unreachable / no
//! route* when the lookup fails and *time exceeded* when the hop limit
//! expires, each as one wire frame ([`unreachable_frame`],
//! [`time_exceeded_frame`]).  It reads none: a malformed datagram is
//! dropped silently, and ping is beyond the control plane modelled here.

use crate::addr::Ipv6Address;
use crate::checksum::pseudo_header_checksum;
use crate::header::{Ipv6Header, NextHeader};

/// Protocol number of ICMPv6 in the IPv6 next-header field.
pub const PROTOCOL: u8 = 58;

/// Codes for [`Icmpv6Message::DestinationUnreachable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnreachableCode {
    /// No route to destination (code 0) — the routing-table miss case.
    NoRoute,
    /// Communication administratively prohibited (code 1).
    Prohibited,
    /// Address unreachable (code 3).
    Address,
    /// Port unreachable (code 4).
    Port,
    /// Any other code.
    Other(u8),
}

impl From<u8> for UnreachableCode {
    fn from(v: u8) -> Self {
        match v {
            0 => UnreachableCode::NoRoute,
            1 => UnreachableCode::Prohibited,
            3 => UnreachableCode::Address,
            4 => UnreachableCode::Port,
            other => UnreachableCode::Other(other),
        }
    }
}

impl From<UnreachableCode> for u8 {
    fn from(c: UnreachableCode) -> Self {
        match c {
            UnreachableCode::NoRoute => 0,
            UnreachableCode::Prohibited => 1,
            UnreachableCode::Address => 3,
            UnreachableCode::Port => 4,
            UnreachableCode::Other(v) => v,
        }
    }
}

/// The two ICMPv6 error messages the router emits, as values: the reference
/// the frame writers below are tested against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Icmpv6Message {
    /// Type 1: the datagram could not be delivered. Carries as much of the
    /// invoking packet as fits.
    DestinationUnreachable {
        /// Reason code.
        code: UnreachableCode,
        /// Leading bytes of the invoking datagram.
        invoking: Vec<u8>,
    },
    /// Type 3 code 0: hop limit exceeded in transit.
    TimeExceeded {
        /// Leading bytes of the invoking datagram.
        invoking: Vec<u8>,
    },
}

impl Icmpv6Message {
    /// The ICMPv6 type and code of this message.
    pub fn type_code(&self) -> (u8, u8) {
        match self {
            Icmpv6Message::DestinationUnreachable { code, .. } => (1, (*code).into()),
            Icmpv6Message::TimeExceeded { .. } => (3, 0),
        }
    }

    /// Serializes the message, computing the checksum over the pseudo-header
    /// formed from `src`/`dst`.
    pub fn to_bytes(&self, src: &Ipv6Address, dst: &Ipv6Address) -> Vec<u8> {
        let (ty, code) = self.type_code();
        let (Icmpv6Message::DestinationUnreachable { invoking, .. }
        | Icmpv6Message::TimeExceeded { invoking }) = self;
        let mut out = vec![ty, code, 0, 0, 0, 0, 0, 0]; // checksum below; 4 unused
        out.extend_from_slice(invoking);
        let c = pseudo_header_checksum(src, dst, PROTOCOL, &out);
        out[2..4].copy_from_slice(&c.to_be_bytes());
        out
    }
}

/// The RFC 2463 limit on the invoking bytes an error quotes: what fits in a
/// 1280-byte minimum-MTU IPv6 packet with the ICMPv6 error wrapped around
/// it (40-byte IPv6 header + 8-byte ICMP prologue).
const MAX_INVOKING: usize = 1280 - Ipv6Header::LEN - 8;

/// A *time exceeded* error about `invoking`, from `src` to `dst`, as one
/// complete wire frame (see [`unreachable_frame`]).
pub fn time_exceeded_frame(src: &Ipv6Address, dst: &Ipv6Address, invoking: &[u8]) -> Vec<u8> {
    error_frame(src, dst, (3, 0), invoking)
}

/// A *destination unreachable* error about `invoking`, from `src` to `dst`,
/// as one complete wire frame: the fixed header (hop limit 64), the ICMPv6
/// prologue and the invoking bytes up to the RFC 2463 limit, written once
/// into one buffer.  Byte for byte what wrapping
/// [`Icmpv6Message::to_bytes`] of the truncated invoking bytes in a
/// [`Datagram`](crate::Datagram) serialises to.
pub fn unreachable_frame(
    src: &Ipv6Address,
    dst: &Ipv6Address,
    code: UnreachableCode,
    invoking: &[u8],
) -> Vec<u8> {
    error_frame(src, dst, (1, code.into()), invoking)
}

fn error_frame(
    src: &Ipv6Address,
    dst: &Ipv6Address,
    (ty, code): (u8, u8),
    invoking: &[u8],
) -> Vec<u8> {
    let quoted = &invoking[..invoking.len().min(MAX_INVOKING)];
    let header = Ipv6Header {
        traffic_class: 0,
        flow_label: 0,
        payload_len: (8 + quoted.len()) as u16,
        next_header: NextHeader::Icmpv6,
        hop_limit: 64,
        src: *src,
        dst: *dst,
    };
    let mut frame = Vec::with_capacity(Ipv6Header::LEN + 8 + quoted.len());
    frame.extend_from_slice(&header.to_bytes());
    frame.extend_from_slice(&[ty, code, 0, 0, 0, 0, 0, 0]); // checksum below; 4 unused
    frame.extend_from_slice(quoted);
    let sum = pseudo_header_checksum(src, dst, PROTOCOL, &frame[Ipv6Header::LEN..]);
    frame[Ipv6Header::LEN + 2..Ipv6Header::LEN + 4].copy_from_slice(&sum.to_be_bytes());
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (Ipv6Address, Ipv6Address) {
        ("2001:db8::1".parse().unwrap(), "2001:db8::2".parse().unwrap())
    }

    #[test]
    fn unreachable_code_round_trip() {
        for v in 0..=255u8 {
            assert_eq!(u8::from(UnreachableCode::from(v)), v);
        }
    }

    #[test]
    fn error_frames_are_the_message_wrapped_in_a_datagram() {
        use crate::Datagram;
        let (s, d) = addrs();
        // A short invoking datagram is quoted whole; a long one up to what
        // fills the 1280-byte minimum MTU.
        for (invoking, frame_len) in [(vec![0x60u8; 60], 48 + 60), (vec![7u8; 4000], 1280)] {
            let quoted = invoking[..frame_len - 48].to_vec();
            let cases = [
                (
                    time_exceeded_frame(&s, &d, &invoking),
                    Icmpv6Message::TimeExceeded { invoking: quoted.clone() },
                ),
                (
                    unreachable_frame(&s, &d, UnreachableCode::NoRoute, &invoking),
                    Icmpv6Message::DestinationUnreachable {
                        code: UnreachableCode::NoRoute,
                        invoking: quoted,
                    },
                ),
            ];
            for (frame, message) in cases {
                let wrapped = Datagram::builder(s, d)
                    .hop_limit(64)
                    .payload(NextHeader::Icmpv6, message.to_bytes(&s, &d))
                    .build();
                assert_eq!(frame, wrapped.to_bytes());
                assert_eq!(frame.len(), frame_len);
                // The ICMP part verifies: its checksum sums it to zero.
                assert_eq!(pseudo_header_checksum(&s, &d, PROTOCOL, &frame[Ipv6Header::LEN..]), 0);
            }
        }
    }
}
