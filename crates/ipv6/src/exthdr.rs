//! IPv6 extension headers (RFC 8200 §4).
//!
//! The paper copies *entire* datagrams into processor memory precisely
//! because "in IPv6 the IP header can be accompanied by a variable number of
//! extension headers that also have to be taken into consideration".  A
//! router carries the headers it meets — hop-by-hop options, destination
//! options, the routing header and the fragment header — intact and
//! interprets none of them, so this module measures a chain and nothing
//! more: [`walk_chain`] is the one validator, and a chain it accepts is kept
//! as the bytes it arrived in.

use crate::error::ParseError;
use crate::header::NextHeader;

/// Wire length of a fragment header: always 8 bytes.
const FRAGMENT_LEN: usize = 8;

/// Measures the extension header of type `kind` at the front of `bytes`:
/// its next-header byte and its wire length.  Every check a chain walk
/// makes on one header is made here, once.
fn span(kind: NextHeader, bytes: &[u8]) -> Result<(u8, usize), ParseError> {
    let (what, prologue) = match kind {
        NextHeader::Routing => ("routing header", 8),
        NextHeader::Fragment => ("fragment header", FRAGMENT_LEN),
        _ => ("options header", 2),
    };
    if bytes.len() < prologue {
        return Err(ParseError::Truncated { what, needed: prologue, got: bytes.len() });
    }
    let ext_len = usize::from(bytes[1]);
    let len = if kind == NextHeader::Fragment { FRAGMENT_LEN } else { (ext_len + 1) * 8 };
    if bytes.len() < len {
        return Err(ParseError::Truncated { what, needed: len, got: bytes.len() });
    }
    if kind == NextHeader::Routing && ext_len % 2 != 0 {
        return Err(ParseError::BadField { field: "routing hdr ext len", value: ext_len as u64 });
    }
    Ok((bytes[0], len))
}

/// Walks the extension-header chain at the front of `bytes`, starting with
/// header type `first`, handing each header's kind and wire bytes to
/// `visit`.
///
/// Returns the next-header value of the upper-layer protocol and the byte
/// offset at which the upper-layer payload starts, so the chain is
/// `bytes[..offset]`.  This is the crate's one chain validator:
/// [`DatagramView::parse`](crate::DatagramView::parse) runs it with a
/// `visit` that does nothing.
///
/// # Errors
///
/// Truncation and malformed-length errors of the individual headers, and
/// [`ParseError::BadField`] for a hop-by-hop header anywhere but first
/// (RFC 8200 §4.1), its value the header's byte offset in the chain.
///
/// # Examples
///
/// ```
/// use taco_ipv6::exthdr::walk_chain;
/// use taco_ipv6::NextHeader;
///
/// // A hop-by-hop header of six Pad1 options, then a fragment header.
/// let chain = [44, 0, 0, 0, 0, 0, 0, 0, 17, 0, 0, 0, 0, 0, 0, 7];
/// let mut kinds = Vec::new();
/// let walked = walk_chain(NextHeader::HopByHop, &chain, |kind, _| kinds.push(kind));
/// assert_eq!(walked, Ok((NextHeader::Udp, 16)));
/// assert_eq!(kinds, [NextHeader::HopByHop, NextHeader::Fragment]);
/// ```
pub fn walk_chain<'a>(
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

#[cfg(test)]
mod tests {
    use super::*;
    use NextHeader::{DestinationOptions, Fragment, HopByHop, Routing, Udp};

    /// An 8-byte options header of six Pad1 options, followed by `next`.
    fn pad1s(next: NextHeader) -> [u8; 8] {
        [next.into(), 0, 0, 0, 0, 0, 0, 0]
    }

    /// A hop-by-hop header (one PadN), a type 0 routing header with one
    /// address and a fragment header, followed by UDP.
    fn three_headers() -> Vec<u8> {
        let mut chain = vec![43, 0, 1, 4, 0, 0, 0, 0];
        chain.extend([44, 2, 0, 1, 0, 0, 0, 0]);
        chain.extend([9; 16]);
        chain.extend([17, 0, 0, 0, 0, 0, 0, 7]);
        chain
    }

    #[test]
    fn a_walk_visits_every_header_and_stops_at_the_upper_layer() {
        let chain = three_headers();
        let mut seen = Vec::new();
        let walked = walk_chain(HopByHop, &chain, |kind, header| seen.push((kind, header.len())));
        assert_eq!(walked, Ok((Udp, 40)));
        assert_eq!(seen, [(HopByHop, 8), (Routing, 24), (Fragment, 8)]);
    }

    #[test]
    fn no_chain_is_an_empty_walk() {
        let walked = walk_chain(NextHeader::Icmpv6, &[1, 2, 3], |_, _| panic!("no header"));
        assert_eq!(walked, Ok((NextHeader::Icmpv6, 0)));
    }

    #[test]
    fn an_options_header_is_its_length_byte_whatever_its_options() {
        for units in 0..4u8 {
            let len = 8 * (usize::from(units) + 1);
            // Pad1 runs, PadN and an unknown TLV type measure alike.
            for fill in [0u8, 1, 0x3e] {
                let mut header = vec![58, units];
                header.resize(len, fill);
                assert_eq!(span(HopByHop, &header), Ok((58, len)));
                assert_eq!(span(DestinationOptions, &header), Ok((58, len)));
            }
        }
    }

    #[test]
    fn a_fragment_header_is_eight_bytes_whatever_its_second_byte() {
        assert_eq!(span(Fragment, &[17, 0xff, 0x05, 0xc9, 0xde, 0xad, 0xbe, 0xef]), Ok((17, 8)));
    }

    #[test]
    fn hop_by_hop_comes_first_or_not_at_all() {
        let chain = |first: [u8; 8], second: [u8; 8]| [first, second].concat();
        let late = chain(pad1s(HopByHop), pad1s(Udp));
        let err = walk_chain(DestinationOptions, &late, |_, _| {}).unwrap_err();
        assert_eq!(err, ParseError::BadField { field: "hop-by-hop offset", value: 8 });
        let twice = chain(pad1s(HopByHop), pad1s(Udp));
        assert!(walk_chain(HopByHop, &twice, |_, _| {}).is_err(), "at most once");
        let first = chain(pad1s(DestinationOptions), pad1s(Udp));
        assert_eq!(walk_chain(HopByHop, &first, |_, _| {}), Ok((Udp, 16)));
    }

    #[test]
    fn truncated_chain_errors() {
        let err = walk_chain(HopByHop, &pad1s(Udp)[..4], |_, _| {}).unwrap_err();
        assert!(matches!(err, ParseError::Truncated { needed: 8, got: 4, .. }));
        let chain = three_headers();
        let err = walk_chain(HopByHop, &chain[..39], |_, _| {}).unwrap_err();
        assert!(matches!(err, ParseError::Truncated { what: "fragment header", .. }));
    }

    #[test]
    fn odd_routing_length_rejected() {
        let mut buf = vec![17u8, 1, 0, 0, 0, 0, 0, 0];
        buf.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            span(Routing, &buf),
            Err(ParseError::BadField { field: "routing hdr ext len", .. })
        ));
    }
}
