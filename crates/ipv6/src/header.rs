//! The fixed 40-byte IPv6 header (RFC 2460 §3).

use std::fmt;

use crate::addr::Ipv6Address;
use crate::error::ParseError;

/// Protocol numbers usable in the IPv6 *next header* field.
///
/// Only the values the router actually encounters are named; anything else is
/// carried verbatim through [`NextHeader::Other`], because a router must
/// forward payloads it does not understand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NextHeader {
    /// Hop-by-hop options header (0) — must be examined by every router.
    HopByHop,
    /// TCP (6).
    Tcp,
    /// UDP (17) — carries RIPng.
    Udp,
    /// Routing extension header (43).
    Routing,
    /// Fragment extension header (44).
    Fragment,
    /// ICMPv6 (58).
    Icmpv6,
    /// No next header (59) — the chain ends with no payload.
    NoNextHeader,
    /// Destination options extension header (60).
    DestinationOptions,
    /// Any other protocol number.
    Other(u8),
}

impl NextHeader {
    /// UDP, spelled the way the builder API reads best.
    pub const UDP: NextHeader = NextHeader::Udp;

    /// Returns `true` for values that introduce an extension header that the
    /// router must walk past to find the upper-layer protocol.
    pub fn is_extension(&self) -> bool {
        matches!(
            self,
            NextHeader::HopByHop
                | NextHeader::Routing
                | NextHeader::Fragment
                | NextHeader::DestinationOptions
        )
    }
}

impl From<u8> for NextHeader {
    fn from(v: u8) -> Self {
        match v {
            0 => NextHeader::HopByHop,
            6 => NextHeader::Tcp,
            17 => NextHeader::Udp,
            43 => NextHeader::Routing,
            44 => NextHeader::Fragment,
            58 => NextHeader::Icmpv6,
            59 => NextHeader::NoNextHeader,
            60 => NextHeader::DestinationOptions,
            other => NextHeader::Other(other),
        }
    }
}

impl From<NextHeader> for u8 {
    fn from(h: NextHeader) -> Self {
        match h {
            NextHeader::HopByHop => 0,
            NextHeader::Tcp => 6,
            NextHeader::Udp => 17,
            NextHeader::Routing => 43,
            NextHeader::Fragment => 44,
            NextHeader::Icmpv6 => 58,
            NextHeader::NoNextHeader => 59,
            NextHeader::DestinationOptions => 60,
            NextHeader::Other(v) => v,
        }
    }
}

impl fmt::Display for NextHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NextHeader::HopByHop => write!(f, "hop-by-hop"),
            NextHeader::Tcp => write!(f, "tcp"),
            NextHeader::Udp => write!(f, "udp"),
            NextHeader::Routing => write!(f, "routing"),
            NextHeader::Fragment => write!(f, "fragment"),
            NextHeader::Icmpv6 => write!(f, "icmpv6"),
            NextHeader::NoNextHeader => write!(f, "no-next-header"),
            NextHeader::DestinationOptions => write!(f, "destination-options"),
            NextHeader::Other(v) => write!(f, "proto-{v}"),
        }
    }
}

/// The fixed IPv6 header.
///
/// All fields are public: this is a plain data structure mirroring the wire
/// format, and the router microcode manipulates the fields individually.
///
/// # Examples
///
/// ```
/// use taco_ipv6::{Ipv6Header, NextHeader};
///
/// # fn main() -> Result<(), taco_ipv6::ParseError> {
/// let hdr = Ipv6Header {
///     traffic_class: 0,
///     flow_label: 0,
///     payload_len: 8,
///     next_header: NextHeader::Udp,
///     hop_limit: 64,
///     src: "2001:db8::1".parse()?,
///     dst: "2001:db8::2".parse()?,
/// };
/// let bytes = hdr.to_bytes();
/// assert_eq!(bytes.len(), Ipv6Header::LEN);
/// assert_eq!(Ipv6Header::parse(&bytes)?, hdr);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv6Header {
    /// 8-bit traffic class (DSCP + ECN).
    pub traffic_class: u8,
    /// 20-bit flow label; the upper 12 bits must be zero.
    pub flow_label: u32,
    /// Length of everything following this header, in bytes.
    pub payload_len: u16,
    /// Protocol of the immediately following header.
    pub next_header: NextHeader,
    /// Hop limit, decremented by each router.
    pub hop_limit: u8,
    /// Source address.
    pub src: Ipv6Address,
    /// Destination address.
    pub dst: Ipv6Address,
}

impl Ipv6Header {
    /// Wire length of the fixed header: 40 bytes.
    pub const LEN: usize = 40;

    /// Parses the fixed header from the front of `bytes`.
    ///
    /// # Errors
    ///
    /// * [`ParseError::Truncated`] if fewer than 40 bytes are available;
    /// * [`ParseError::BadVersion`] if the version nibble is not 6.
    pub fn parse(bytes: &[u8]) -> Result<Self, ParseError> {
        if bytes.len() < Self::LEN {
            return Err(ParseError::Truncated {
                what: "ipv6 header",
                needed: Self::LEN,
                got: bytes.len(),
            });
        }
        let version = bytes[0] >> 4;
        if version != 6 {
            return Err(ParseError::BadVersion(version));
        }
        let traffic_class = (bytes[0] << 4) | (bytes[1] >> 4);
        let flow_label =
            (u32::from(bytes[1] & 0x0f) << 16) | (u32::from(bytes[2]) << 8) | u32::from(bytes[3]);
        let payload_len = u16::from_be_bytes([bytes[4], bytes[5]]);
        let next_header = NextHeader::from(bytes[6]);
        let hop_limit = bytes[7];
        let mut src = [0u8; 16];
        src.copy_from_slice(&bytes[8..24]);
        let mut dst = [0u8; 16];
        dst.copy_from_slice(&bytes[24..40]);
        Ok(Ipv6Header {
            traffic_class,
            flow_label,
            payload_len,
            next_header,
            hop_limit,
            src: src.into(),
            dst: dst.into(),
        })
    }

    /// Serializes the header to its 40-byte wire form.
    ///
    /// # Panics
    ///
    /// Panics if `flow_label` does not fit in 20 bits; construct headers with
    /// in-range values (parsers always do).
    pub fn to_bytes(&self) -> [u8; Self::LEN] {
        assert!(self.flow_label < (1 << 20), "flow label must fit in 20 bits");
        let mut b = [0u8; Self::LEN];
        b[0] = 0x60 | (self.traffic_class >> 4);
        b[1] = (self.traffic_class << 4) | ((self.flow_label >> 16) as u8 & 0x0f);
        b[2] = (self.flow_label >> 8) as u8;
        b[3] = self.flow_label as u8;
        b[4..6].copy_from_slice(&self.payload_len.to_be_bytes());
        b[6] = self.next_header.into();
        b[7] = self.hop_limit;
        b[8..24].copy_from_slice(&self.src.octets());
        b[24..40].copy_from_slice(&self.dst.octets());
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv6Header {
        Ipv6Header {
            traffic_class: 0xa5,
            flow_label: 0xf_3c2d,
            payload_len: 1234,
            next_header: NextHeader::Udp,
            hop_limit: 63,
            src: "2001:db8::1".parse().unwrap(),
            dst: "2001:db8::2".parse().unwrap(),
        }
    }

    #[test]
    fn round_trip() {
        let h = sample();
        assert_eq!(Ipv6Header::parse(&h.to_bytes()).unwrap(), h);
    }

    #[test]
    fn version_nibble_is_six() {
        let b = sample().to_bytes();
        assert_eq!(b[0] >> 4, 6);
    }

    #[test]
    fn rejects_truncated() {
        let b = sample().to_bytes();
        let err = Ipv6Header::parse(&b[..39]).unwrap_err();
        assert!(matches!(err, ParseError::Truncated { needed: 40, got: 39, .. }));
    }

    #[test]
    fn rejects_ipv4() {
        let mut b = sample().to_bytes();
        b[0] = 0x45;
        assert_eq!(Ipv6Header::parse(&b).unwrap_err(), ParseError::BadVersion(4));
    }

    #[test]
    fn field_bit_packing() {
        // traffic class straddles bytes 0 and 1; flow label takes 20 bits.
        let h = sample();
        let b = h.to_bytes();
        assert_eq!((b[0] << 4) | (b[1] >> 4), 0xa5);
        let fl = (u32::from(b[1] & 0x0f) << 16) | (u32::from(b[2]) << 8) | u32::from(b[3]);
        assert_eq!(fl, 0xf_3c2d);
    }

    #[test]
    fn next_header_round_trip_all_values() {
        for v in 0..=255u8 {
            let nh = NextHeader::from(v);
            assert_eq!(u8::from(nh), v);
        }
    }

    #[test]
    fn extension_classification() {
        assert!(NextHeader::HopByHop.is_extension());
        assert!(NextHeader::Routing.is_extension());
        assert!(NextHeader::Fragment.is_extension());
        assert!(NextHeader::DestinationOptions.is_extension());
        assert!(!NextHeader::Udp.is_extension());
        assert!(!NextHeader::Icmpv6.is_extension());
        assert!(!NextHeader::NoNextHeader.is_extension());
    }

    #[test]
    #[should_panic(expected = "flow label")]
    fn oversized_flow_label_panics() {
        let mut h = sample();
        h.flow_label = 1 << 20;
        let _ = h.to_bytes();
    }
}
