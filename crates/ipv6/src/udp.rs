//! UDP over IPv6 (RFC 768 + RFC 2460 §8.1).
//!
//! RIPng rides on UDP port 521; this module provides the header codec and
//! the mandatory-under-IPv6 checksum handling.

use crate::addr::Ipv6Address;
use crate::checksum::pseudo_header_checksum;
use crate::error::ParseError;

/// Protocol number of UDP in the IPv6 next-header field.
pub(crate) const PROTOCOL: u8 = 17;

/// The 8-byte UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length of header plus data.
    pub length: u16,
    /// Internet checksum over pseudo-header, header and data.
    pub checksum: u16,
}

impl UdpHeader {
    /// Wire length of the UDP header: 8 bytes.
    pub(crate) const LEN: usize = 8;

    /// Parses the header from the front of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Truncated`] if fewer than 8 bytes are available.
    pub(crate) fn parse(bytes: &[u8]) -> Result<Self, ParseError> {
        if bytes.len() < Self::LEN {
            return Err(ParseError::Truncated {
                what: "udp header",
                needed: Self::LEN,
                got: bytes.len(),
            });
        }
        Ok(UdpHeader {
            src_port: u16::from_be_bytes([bytes[0], bytes[1]]),
            dst_port: u16::from_be_bytes([bytes[2], bytes[3]]),
            length: u16::from_be_bytes([bytes[4], bytes[5]]),
            checksum: u16::from_be_bytes([bytes[6], bytes[7]]),
        })
    }

    /// Serializes the header.
    pub(crate) fn to_bytes(self) -> [u8; Self::LEN] {
        let mut b = [0u8; Self::LEN];
        b[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        b[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        b[4..6].copy_from_slice(&self.length.to_be_bytes());
        b[6..8].copy_from_slice(&self.checksum.to_be_bytes());
        b
    }
}

/// A UDP datagram: header plus data, with IPv6-correct checksum handling.
///
/// # Examples
///
/// ```
/// use taco_ipv6::udp::UdpDatagram;
/// use taco_ipv6::Ipv6Address;
///
/// # fn main() -> Result<(), taco_ipv6::ParseError> {
/// let src: Ipv6Address = "fe80::1".parse()?;
/// let dst: Ipv6Address = "ff02::9".parse()?;
/// let d = UdpDatagram::new(521, 521, b"ripng".to_vec(), &src, &dst);
/// let bytes = d.to_bytes();
/// let parsed = UdpDatagram::parse(&bytes, &src, &dst)?;
/// assert_eq!(parsed.data(), b"ripng");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    header: UdpHeader,
    data: Vec<u8>,
}

impl UdpDatagram {
    /// Builds a datagram and computes the mandatory checksum over the IPv6
    /// pseudo-header formed from `src`/`dst`.
    pub fn new(
        src_port: u16,
        dst_port: u16,
        data: Vec<u8>,
        src: &Ipv6Address,
        dst: &Ipv6Address,
    ) -> Self {
        let length = (UdpHeader::LEN + data.len()) as u16;
        let mut header = UdpHeader { src_port, dst_port, length, checksum: 0 };
        let mut buf = Vec::with_capacity(length as usize);
        buf.extend_from_slice(&header.to_bytes());
        buf.extend_from_slice(&data);
        let mut c = pseudo_header_checksum(src, dst, PROTOCOL, &buf);
        if c == 0 {
            // RFC 2460 §8.1: a computed checksum of zero is sent as all ones.
            c = 0xffff;
        }
        header.checksum = c;
        UdpDatagram { header, data }
    }

    /// Parses and checksum-verifies a datagram.
    ///
    /// # Errors
    ///
    /// * [`ParseError::Truncated`] / [`ParseError::LengthMismatch`] on size
    ///   problems;
    /// * [`ParseError::BadField`] if the checksum field is zero (illegal
    ///   under IPv6);
    /// * [`ParseError::BadChecksum`] if verification fails.
    pub fn parse(bytes: &[u8], src: &Ipv6Address, dst: &Ipv6Address) -> Result<Self, ParseError> {
        let header = UdpHeader::parse(bytes)?;
        let declared = usize::from(header.length);
        if declared < UdpHeader::LEN || bytes.len() < declared {
            return Err(ParseError::LengthMismatch { declared, actual: bytes.len() });
        }
        if header.checksum == 0 {
            return Err(ParseError::BadField { field: "udp checksum", value: 0 });
        }
        if pseudo_header_checksum(src, dst, PROTOCOL, &bytes[..declared]) != 0 {
            return Err(ParseError::BadChecksum { what: "udp" });
        }
        Ok(UdpDatagram { header, data: bytes[UdpHeader::LEN..declared].to_vec() })
    }

    /// The UDP header (checksum already filled in).
    pub fn header(&self) -> &UdpHeader {
        &self.header
    }

    /// The application data.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Serializes header plus data.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(UdpHeader::LEN + self.data.len());
        out.extend_from_slice(&self.header.to_bytes());
        out.extend_from_slice(&self.data);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (Ipv6Address, Ipv6Address) {
        ("2001:db8::a".parse().unwrap(), "2001:db8::b".parse().unwrap())
    }

    #[test]
    fn header_round_trip() {
        let h = UdpHeader { src_port: 521, dst_port: 521, length: 32, checksum: 0xbeef };
        assert_eq!(UdpHeader::parse(&h.to_bytes()).unwrap(), h);
    }

    #[test]
    fn datagram_round_trip_verifies() {
        let (s, d) = addrs();
        let dgram = UdpDatagram::new(1000, 521, vec![9u8; 25], &s, &d);
        let parsed = UdpDatagram::parse(&dgram.to_bytes(), &s, &d).unwrap();
        assert_eq!(parsed, dgram);
    }

    #[test]
    fn corrupted_data_fails_checksum() {
        let (s, d) = addrs();
        let mut bytes = UdpDatagram::new(1, 2, vec![1, 2, 3], &s, &d).to_bytes();
        bytes[9] ^= 0xff;
        assert_eq!(
            UdpDatagram::parse(&bytes, &s, &d).unwrap_err(),
            ParseError::BadChecksum { what: "udp" }
        );
    }

    #[test]
    fn wrong_pseudo_header_fails_checksum() {
        let (s, d) = addrs();
        let bytes = UdpDatagram::new(1, 2, vec![1, 2, 3], &s, &d).to_bytes();
        let other: Ipv6Address = "2001:db8::c".parse().unwrap();
        assert!(UdpDatagram::parse(&bytes, &s, &other).is_err());
    }

    #[test]
    fn zero_checksum_rejected() {
        let (s, d) = addrs();
        let mut bytes = UdpDatagram::new(1, 2, vec![], &s, &d).to_bytes();
        bytes[6] = 0;
        bytes[7] = 0;
        assert!(matches!(
            UdpDatagram::parse(&bytes, &s, &d),
            Err(ParseError::BadField { field: "udp checksum", .. })
        ));
    }

    #[test]
    fn empty_payload_ok() {
        let (s, d) = addrs();
        let dgram = UdpDatagram::new(5, 6, vec![], &s, &d);
        assert_eq!(dgram.header().length, 8);
        assert!(UdpDatagram::parse(&dgram.to_bytes(), &s, &d).is_ok());
    }

    #[test]
    fn bogus_length_rejected() {
        let (s, d) = addrs();
        let mut bytes = UdpDatagram::new(5, 6, vec![0; 4], &s, &d).to_bytes();
        bytes[4] = 0;
        bytes[5] = 4; // < header size
        assert!(matches!(
            UdpDatagram::parse(&bytes, &s, &d),
            Err(ParseError::LengthMismatch { .. })
        ));
    }
}
