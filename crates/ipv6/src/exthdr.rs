//! IPv6 extension headers (RFC 2460 §4).
//!
//! The paper copies *entire* datagrams into processor memory precisely
//! because "in IPv6 the IP header can be accompanied by a variable number of
//! extension headers that also have to be taken into consideration".  This
//! module models the headers a router can meet: hop-by-hop options,
//! destination options, the routing header and the fragment header.

use crate::error::ParseError;
use crate::header::NextHeader;

/// A hop-by-hop or destination options header.
///
/// Options are stored as raw TLV bytes; the router does not interpret them,
/// it only needs to skip the header (and, for hop-by-hop, acknowledge that it
/// looked).  On the wire the header is always padded to a multiple of 8
/// bytes; `OptionsHeader` encoding inserts PadN options as needed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OptionsHeader {
    /// Raw option TLVs (excluding the 2-byte header prologue and any final
    /// padding).
    pub options: Vec<u8>,
}

impl OptionsHeader {
    /// Creates an empty options header (it will be wire-encoded as 8 bytes of
    /// padding).
    pub fn new() -> Self {
        Self::default()
    }

    /// Wire length including padding: smallest multiple of 8 covering the
    /// 2-byte prologue plus the options.
    pub fn wire_len(&self) -> usize {
        (2 + self.options.len()).div_ceil(8) * 8
    }

    fn encode(&self, next: u8, out: &mut Vec<u8>) {
        let len = self.wire_len();
        out.push(next);
        out.push((len / 8 - 1) as u8);
        out.extend_from_slice(&self.options);
        let pad = len - 2 - self.options.len();
        match pad {
            0 => {}
            1 => out.push(0), // Pad1
            n => {
                // PadN: type 1, length n-2, zero body.
                out.push(1);
                out.push((n - 2) as u8);
                out.extend(std::iter::repeat_n(0, n - 2));
            }
        }
    }

    /// Decodes one whole header, as [`span`] measured it.
    fn decode(header: &[u8]) -> Self {
        let mut options = header[2..].to_vec();
        if let Some(end) = Self::last_non_pad_end(&options) {
            options.truncate(end);
        }
        OptionsHeader { options }
    }

    /// Walks the TLV list and returns the byte offset just past the last
    /// non-padding option, or `None` if the bytes are not well-formed TLVs
    /// (in which case they are kept verbatim).
    fn last_non_pad_end(options: &[u8]) -> Option<usize> {
        let mut i = 0usize;
        let mut end = 0usize;
        while i < options.len() {
            match options[i] {
                0 => i += 1, // Pad1
                ty => {
                    let len = *options.get(i + 1)? as usize;
                    if i + 2 + len > options.len() {
                        return None;
                    }
                    i += 2 + len;
                    if ty != 1 {
                        end = i; // not PadN: real payload extends here
                    }
                }
            }
        }
        Some(end)
    }
}

/// A type 0 routing header (RFC 2460 §4.4), carrying a list of intermediate
/// addresses.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RoutingHeader {
    /// Routing type (0 for the classic source route).
    pub routing_type: u8,
    /// Number of listed nodes still to be visited.
    pub segments_left: u8,
    /// The 16-byte addresses, stored raw.
    pub addresses: Vec<[u8; 16]>,
}

impl RoutingHeader {
    /// Wire length: 8-byte prologue plus 16 bytes per address.
    pub fn wire_len(&self) -> usize {
        8 + 16 * self.addresses.len()
    }

    fn encode(&self, next: u8, out: &mut Vec<u8>) {
        out.push(next);
        out.push((2 * self.addresses.len()) as u8);
        out.push(self.routing_type);
        out.push(self.segments_left);
        out.extend_from_slice(&[0u8; 4]); // reserved
        for a in &self.addresses {
            out.extend_from_slice(a);
        }
    }

    /// Decodes one whole header, as [`span`] measured it.
    fn decode(header: &[u8]) -> Self {
        let addresses = header[8..]
            .chunks_exact(16)
            .map(|chunk| chunk.try_into().expect("chunks_exact(16)"))
            .collect();
        RoutingHeader { routing_type: header[2], segments_left: header[3], addresses }
    }
}

/// A fragment header (RFC 2460 §4.5).
///
/// The paper's line cards reassemble fragments, but a router still forwards
/// foreign fragments unchanged, so the codec must understand the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FragmentHeader {
    /// Offset of this fragment in 8-byte units.
    pub offset: u16,
    /// More-fragments flag.
    pub more: bool,
    /// Identification value shared by all fragments of a packet.
    pub id: u32,
}

impl FragmentHeader {
    /// Wire length: always 8 bytes.
    pub const LEN: usize = 8;

    fn encode(&self, next: u8, out: &mut Vec<u8>) {
        out.push(next);
        out.push(0); // reserved
        let off_flags = (self.offset << 3) | u16::from(self.more);
        out.extend_from_slice(&off_flags.to_be_bytes());
        out.extend_from_slice(&self.id.to_be_bytes());
    }

    /// Decodes one whole header, as [`span`] measured it.
    fn decode(header: &[u8]) -> Self {
        let off_flags = u16::from_be_bytes([header[2], header[3]]);
        FragmentHeader {
            offset: off_flags >> 3,
            more: off_flags & 1 == 1,
            id: u32::from_be_bytes([header[4], header[5], header[6], header[7]]),
        }
    }
}

/// One parsed extension header together with its kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtensionHeader {
    /// Hop-by-hop options (next-header value 0).
    HopByHop(OptionsHeader),
    /// Destination options (next-header value 60).
    DestinationOptions(OptionsHeader),
    /// Routing header (next-header value 43).
    Routing(RoutingHeader),
    /// Fragment header (next-header value 44).
    Fragment(FragmentHeader),
}

impl ExtensionHeader {
    /// The [`NextHeader`] value that introduces this header.
    pub fn kind(&self) -> NextHeader {
        match self {
            ExtensionHeader::HopByHop(_) => NextHeader::HopByHop,
            ExtensionHeader::DestinationOptions(_) => NextHeader::DestinationOptions,
            ExtensionHeader::Routing(_) => NextHeader::Routing,
            ExtensionHeader::Fragment(_) => NextHeader::Fragment,
        }
    }

    /// Wire length of this header including padding.
    pub fn wire_len(&self) -> usize {
        match self {
            ExtensionHeader::HopByHop(o) | ExtensionHeader::DestinationOptions(o) => o.wire_len(),
            ExtensionHeader::Routing(r) => r.wire_len(),
            ExtensionHeader::Fragment(_) => FragmentHeader::LEN,
        }
    }

    /// Encodes this header, writing `next` as its next-header field.
    pub(crate) fn encode(&self, next: u8, out: &mut Vec<u8>) {
        match self {
            ExtensionHeader::HopByHop(o) | ExtensionHeader::DestinationOptions(o) => {
                o.encode(next, out)
            }
            ExtensionHeader::Routing(r) => r.encode(next, out),
            ExtensionHeader::Fragment(fh) => fh.encode(next, out),
        }
    }
}

/// Measures the extension header of type `kind` at the front of `bytes`:
/// its next-header byte and its wire length.  Every check a chain walk
/// makes is made here, once — the three `decode`s take a header this
/// function measured and cannot fail.
fn span(kind: NextHeader, bytes: &[u8]) -> Result<(u8, usize), ParseError> {
    let (what, prologue) = match kind {
        NextHeader::Routing => ("routing header", 8),
        NextHeader::Fragment => ("fragment header", FragmentHeader::LEN),
        _ => ("options header", 2),
    };
    if bytes.len() < prologue {
        return Err(ParseError::Truncated { what, needed: prologue, got: bytes.len() });
    }
    let ext_len = usize::from(bytes[1]);
    let len = if kind == NextHeader::Fragment { FragmentHeader::LEN } else { (ext_len + 1) * 8 };
    if bytes.len() < len {
        return Err(ParseError::Truncated { what, needed: len, got: bytes.len() });
    }
    if kind == NextHeader::Routing && ext_len % 2 != 0 {
        return Err(ParseError::BadField { field: "routing hdr ext len", value: ext_len as u64 });
    }
    Ok((bytes[0], len))
}

/// Walks an extension-header chain starting with header type `first`,
/// handing each header's kind and wire bytes to `visit`.
///
/// Returns the next-header value of the upper-layer protocol and the byte
/// offset at which the upper-layer payload starts.  With a `visit` that
/// does nothing this is the borrowing validator
/// [`DatagramView::parse`](crate::DatagramView::parse) runs; with one that
/// decodes it is [`parse_chain`] — one walk, one set of checks.
///
/// # Errors
///
/// Truncation and malformed-length errors of the individual headers, and
/// [`ParseError::BadField`] for a hop-by-hop header anywhere but first
/// (RFC 8200 §4.1), its value the header's byte offset in the chain.
pub(crate) fn walk_chain<'a>(
    first: NextHeader,
    bytes: &'a [u8],
    mut visit: impl FnMut(NextHeader, &'a [u8]),
) -> Result<(NextHeader, usize), ParseError> {
    let mut kind = first;
    let mut offset = 0usize;
    while kind.is_extension() {
        if kind == NextHeader::HopByHop && offset > 0 {
            return Err(ParseError::BadField { field: "hop-by-hop offset", value: offset as u64 });
        }
        let rest = &bytes[offset..];
        let (next, len) = span(kind, rest)?;
        visit(kind, &rest[..len]);
        kind = NextHeader::from(next);
        offset += len;
    }
    Ok((kind, offset))
}

/// Walks an extension-header chain starting with header type `first`.
///
/// Returns the parsed chain, the next-header value of the upper-layer
/// protocol, and the byte offset at which the upper-layer payload starts.
///
/// # Errors
///
/// Propagates truncation and malformed-length errors from the individual
/// header codecs; a hop-by-hop header anywhere but first is a
/// [`ParseError::BadField`].
pub fn parse_chain(
    first: NextHeader,
    bytes: &[u8],
) -> Result<(Vec<ExtensionHeader>, NextHeader, usize), ParseError> {
    let mut chain = Vec::new();
    let (upper, consumed) = walk_chain(first, bytes, |kind, header| {
        chain.push(match kind {
            NextHeader::HopByHop => ExtensionHeader::HopByHop(OptionsHeader::decode(header)),
            NextHeader::DestinationOptions => {
                ExtensionHeader::DestinationOptions(OptionsHeader::decode(header))
            }
            NextHeader::Routing => ExtensionHeader::Routing(RoutingHeader::decode(header)),
            NextHeader::Fragment => ExtensionHeader::Fragment(FragmentHeader::decode(header)),
            _ => unreachable!("walk_chain visits extension headers only"),
        });
    })?;
    Ok((chain, upper, consumed))
}

/// Encodes a chain of extension headers followed by upper-layer protocol
/// `last`, returning the bytes and the next-header value to put in the fixed
/// IPv6 header.
pub fn encode_chain(chain: &[ExtensionHeader], last: NextHeader) -> (Vec<u8>, NextHeader) {
    if chain.is_empty() {
        return (Vec::new(), last);
    }
    let mut out = Vec::new();
    for (i, hdr) in chain.iter().enumerate() {
        let next: u8 = if i + 1 < chain.len() { chain[i + 1].kind().into() } else { last.into() };
        hdr.encode(next, &mut out);
    }
    (out, chain[0].kind())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_options_header_is_8_bytes() {
        let o = OptionsHeader::new();
        assert_eq!(o.wire_len(), 8);
        let mut buf = Vec::new();
        o.encode(17, &mut buf);
        assert_eq!(buf.len(), 8);
        assert_eq!(buf[0], 17);
        assert_eq!(buf[1], 0);
    }

    #[test]
    fn options_round_trip_with_padding() {
        for n in 0..20 {
            let o = OptionsHeader { options: (0..n).map(|i| i as u8 | 0x80).collect() };
            let mut buf = Vec::new();
            o.encode(58, &mut buf);
            assert_eq!(buf.len() % 8, 0);
            assert_eq!(span(NextHeader::HopByHop, &buf), Ok((58, buf.len())));
            let dec = OptionsHeader::decode(&buf);
            // Decoded options include padding bytes; the prefix must match.
            assert_eq!(&dec.options[..o.options.len()], &o.options[..]);
        }
    }

    #[test]
    fn routing_header_round_trip() {
        let r = RoutingHeader {
            routing_type: 0,
            segments_left: 2,
            addresses: vec![[1u8; 16], [2u8; 16]],
        };
        let mut buf = Vec::new();
        r.encode(6, &mut buf);
        assert_eq!(buf.len(), r.wire_len());
        assert_eq!(span(NextHeader::Routing, &buf), Ok((6, 40)));
        assert_eq!(RoutingHeader::decode(&buf), r);
    }

    #[test]
    fn fragment_header_round_trip() {
        let fh = FragmentHeader { offset: 185, more: true, id: 0xdead_beef };
        let mut buf = Vec::new();
        fh.encode(17, &mut buf);
        assert_eq!(span(NextHeader::Fragment, &buf), Ok((17, 8)));
        assert_eq!(FragmentHeader::decode(&buf), fh);
    }

    #[test]
    fn chain_round_trip() {
        let chain = vec![
            ExtensionHeader::HopByHop(OptionsHeader::new()),
            ExtensionHeader::Routing(RoutingHeader {
                routing_type: 0,
                segments_left: 1,
                addresses: vec![[9u8; 16]],
            }),
            ExtensionHeader::Fragment(FragmentHeader { offset: 0, more: false, id: 7 }),
        ];
        let (bytes, first) = encode_chain(&chain, NextHeader::Udp);
        assert_eq!(first, NextHeader::HopByHop);
        let (parsed, upper, consumed) = parse_chain(first, &bytes).unwrap();
        assert_eq!(parsed, chain);
        assert_eq!(upper, NextHeader::Udp);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn empty_chain() {
        let (bytes, first) = encode_chain(&[], NextHeader::Icmpv6);
        assert!(bytes.is_empty());
        assert_eq!(first, NextHeader::Icmpv6);
        let (parsed, upper, consumed) = parse_chain(first, &[]).unwrap();
        assert!(parsed.is_empty());
        assert_eq!(upper, NextHeader::Icmpv6);
        assert_eq!(consumed, 0);
    }

    #[test]
    fn hop_by_hop_comes_first_or_not_at_all() {
        let hbh = || ExtensionHeader::HopByHop(OptionsHeader::new());
        let dst = || ExtensionHeader::DestinationOptions(OptionsHeader::new());
        let (bytes, first) = encode_chain(&[dst(), hbh()], NextHeader::Udp);
        let err = parse_chain(first, &bytes).unwrap_err();
        assert_eq!(err, ParseError::BadField { field: "hop-by-hop offset", value: 8 });
        let (bytes, first) = encode_chain(&[hbh(), hbh()], NextHeader::Udp);
        assert!(parse_chain(first, &bytes).is_err(), "at most once");
        let (bytes, first) = encode_chain(&[hbh(), dst()], NextHeader::Udp);
        assert!(parse_chain(first, &bytes).is_ok());
    }

    #[test]
    fn truncated_chain_errors() {
        let chain = vec![ExtensionHeader::HopByHop(OptionsHeader::new())];
        let (bytes, first) = encode_chain(&chain, NextHeader::Udp);
        let err = parse_chain(first, &bytes[..4]).unwrap_err();
        assert!(matches!(err, ParseError::Truncated { .. }));
    }

    #[test]
    fn odd_routing_length_rejected() {
        let mut buf = vec![17u8, 1, 0, 0, 0, 0, 0, 0];
        buf.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            span(NextHeader::Routing, &buf),
            Err(ParseError::BadField { field: "routing hdr ext len", .. })
        ));
    }
}
