//! Complete IPv6 datagrams: fixed header + extension chain + payload.
//!
//! The extension chain is carried as the bytes it arrived in, checked by
//! [`walk_chain`] and never decoded: the router interprets none of its
//! headers, so a datagram that passes [`DatagramView::parse`] serialises
//! back to the frame it was parsed from, less any link-layer padding.

use crate::addr::Ipv6Address;
use crate::error::ParseError;
use crate::exthdr::walk_chain;
use crate::header::{Ipv6Header, NextHeader};

/// A wire frame that passed every check [`Datagram::parse`] makes, still in
/// the buffer it arrived in: the fixed header by value, the extension chain
/// and the payload as slices of the frame.
///
/// This is how the forwarding path reads a datagram — the paper's processor
/// is handed a pointer to a datagram the line card assembled and never
/// copies it — and it is the only validator: [`Datagram::parse`] is
/// `DatagramView::parse` followed by [`DatagramView::to_owned`].
///
/// # Examples
///
/// ```
/// use taco_ipv6::{Datagram, DatagramView, NextHeader};
///
/// # fn main() -> Result<(), taco_ipv6::ParseError> {
/// let mut frame = Datagram::builder("2001:db8::1".parse()?, "2001:db8::99".parse()?)
///     .payload(NextHeader::Udp, vec![7; 11])
///     .build()
///     .to_bytes();
/// frame.extend([0; 5]); // link-layer padding
/// let view = DatagramView::parse(&frame)?;
/// assert_eq!(view.wire_len(), 40 + 11);
/// assert_eq!(view.payload(), &[7; 11]);
/// assert_eq!(view.to_owned(), Datagram::parse(&frame)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatagramView<'a> {
    header: Ipv6Header,
    upper: NextHeader,
    chain: &'a [u8],
    payload: &'a [u8],
}

impl<'a> DatagramView<'a> {
    /// Validates a datagram in place, allocating nothing.
    ///
    /// # Errors
    ///
    /// * header/extension errors from the underlying codecs;
    /// * [`ParseError::LengthMismatch`] if the buffer is shorter than the
    ///   declared payload length (extra trailing bytes are ignored, as a
    ///   link layer may pad frames).
    pub fn parse(bytes: &'a [u8]) -> Result<Self, ParseError> {
        let header = Ipv6Header::parse(bytes)?;
        let declared = usize::from(header.payload_len);
        let rest = &bytes[Ipv6Header::LEN..];
        if rest.len() < declared {
            return Err(ParseError::LengthMismatch { declared, actual: rest.len() });
        }
        let body = &rest[..declared];
        let (upper, consumed) = walk_chain(header.next_header, body, |_, _| {})?;
        let (chain, payload) = body.split_at(consumed);
        Ok(DatagramView { header, upper, chain, payload })
    }

    /// The fixed header.
    pub fn header(&self) -> &Ipv6Header {
        &self.header
    }

    /// The upper-layer protocol carried after the extension chain.
    pub fn upper_protocol(&self) -> NextHeader {
        self.upper
    }

    /// The extension chain's wire bytes (empty when there is none).
    pub fn extension_bytes(&self) -> &'a [u8] {
        self.chain
    }

    /// The upper-layer payload bytes.
    pub fn payload(&self) -> &'a [u8] {
        self.payload
    }

    /// The datagram's on-the-wire size in bytes; whatever the frame holds
    /// beyond it is link-layer padding.
    pub fn wire_len(&self) -> usize {
        Ipv6Header::LEN + usize::from(self.header.payload_len)
    }

    /// Copies the datagram out of the frame.
    pub fn to_owned(self) -> Datagram {
        Datagram {
            header: self.header,
            chain: self.chain.to_vec(),
            upper: self.upper,
            payload: self.payload.to_vec(),
        }
    }
}

/// A complete IPv6 datagram as the line cards hand it to the processor: a
/// value, copied out of a frame by [`Datagram::parse`] or made by
/// [`Datagram::builder`], and never changed after.
///
/// However it was made, these hold by construction:
///
/// * `header.payload_len` equals the extension chain's length plus the
///   payload's;
/// * `header.next_header` names the first extension header, or the
///   upper-layer protocol if the chain is empty;
/// * the chain is bytes [`walk_chain`] accepted (a built datagram has
///   none), so [`Datagram::to_bytes`] writes the frame a parsed one came
///   from, byte for byte.
///
/// # Examples
///
/// ```
/// use taco_ipv6::{Datagram, NextHeader};
///
/// # fn main() -> Result<(), taco_ipv6::ParseError> {
/// let d = Datagram::builder("2001:db8::1".parse()?, "2001:db8::99".parse()?)
///     .hop_limit(32)
///     .payload(NextHeader::Udp, b"rip payload".to_vec())
///     .build();
/// assert_eq!(d.upper_protocol(), NextHeader::Udp);
/// assert_eq!(d.wire_len(), 40 + 11);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    header: Ipv6Header,
    chain: Vec<u8>,
    upper: NextHeader,
    payload: Vec<u8>,
}

impl Datagram {
    /// Starts building a datagram from `src` to `dst`.
    pub fn builder(src: Ipv6Address, dst: Ipv6Address) -> DatagramBuilder {
        DatagramBuilder {
            src,
            dst,
            traffic_class: 0,
            flow_label: 0,
            hop_limit: 64,
            upper: NextHeader::NoNextHeader,
            payload: Vec::new(),
        }
    }

    /// Parses a datagram from wire bytes: [`DatagramView::parse`], then a
    /// copy out of the buffer.
    ///
    /// # Errors
    ///
    /// Those of [`DatagramView::parse`].
    pub fn parse(bytes: &[u8]) -> Result<Self, ParseError> {
        DatagramView::parse(bytes).map(|view| view.to_owned())
    }

    /// The fixed header.
    pub fn header(&self) -> &Ipv6Header {
        &self.header
    }

    /// The extension chain's wire bytes (empty when there is none).
    pub fn extension_bytes(&self) -> &[u8] {
        &self.chain
    }

    /// The upper-layer protocol carried after the extension chain.
    pub fn upper_protocol(&self) -> NextHeader {
        self.upper
    }

    /// The upper-layer payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Total on-the-wire size in bytes.
    pub fn wire_len(&self) -> usize {
        Ipv6Header::LEN + usize::from(self.header.payload_len)
    }

    /// Serializes the datagram: the fixed header, the chain and the payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&self.header.to_bytes());
        out.extend_from_slice(&self.chain);
        out.extend_from_slice(&self.payload);
        out
    }
}

/// Builder returned by [`Datagram::builder`]: a datagram with no extension
/// chain (one with a chain is parsed from its frame).
///
/// Field setters may be chained in any order; [`DatagramBuilder::build`]
/// computes the length and next-header fields.
#[derive(Debug, Clone)]
pub struct DatagramBuilder {
    src: Ipv6Address,
    dst: Ipv6Address,
    traffic_class: u8,
    flow_label: u32,
    hop_limit: u8,
    upper: NextHeader,
    payload: Vec<u8>,
}

impl DatagramBuilder {
    /// Sets the traffic class (default 0).
    pub fn traffic_class(mut self, tc: u8) -> Self {
        self.traffic_class = tc;
        self
    }

    /// Sets the flow label (default 0).
    ///
    /// # Panics
    ///
    /// [`DatagramBuilder::build`] will panic if the value exceeds 20 bits.
    pub fn flow_label(mut self, fl: u32) -> Self {
        self.flow_label = fl;
        self
    }

    /// Sets the hop limit (default 64).
    pub fn hop_limit(mut self, hl: u8) -> Self {
        self.hop_limit = hl;
        self
    }

    /// Sets the upper-layer protocol and payload.
    pub fn payload(mut self, proto: NextHeader, payload: Vec<u8>) -> Self {
        self.upper = proto;
        self.payload = payload;
        self
    }

    /// Finishes the datagram, computing `payload_len` and `next_header`.
    pub fn build(self) -> Datagram {
        let header = Ipv6Header {
            traffic_class: self.traffic_class,
            flow_label: self.flow_label,
            payload_len: self.payload.len() as u16,
            next_header: self.upper,
            hop_limit: self.hop_limit,
            src: self.src,
            dst: self.dst,
        };
        Datagram { header, chain: Vec::new(), upper: self.upper, payload: self.payload }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv6Address {
        s.parse().unwrap()
    }

    fn simple() -> Datagram {
        Datagram::builder(a("2001:db8::1"), a("2001:db8::2"))
            .payload(NextHeader::Udp, vec![1, 2, 3, 4])
            .build()
    }

    /// The frame of a datagram from `fe80::1` to `ff02::9` carrying `chain`,
    /// its first header `first`, and then `payload` as UDP.
    fn frame(first: NextHeader, chain: &[u8], payload: &[u8]) -> Vec<u8> {
        let header = Ipv6Header {
            traffic_class: 0,
            flow_label: 0,
            payload_len: (chain.len() + payload.len()) as u16,
            next_header: first,
            hop_limit: 255,
            src: a("fe80::1"),
            dst: a("ff02::9"),
        };
        [&header.to_bytes()[..], chain, payload].concat()
    }

    #[test]
    fn round_trip_plain() {
        let d = simple();
        assert_eq!(Datagram::parse(&d.to_bytes()).unwrap(), d);
    }

    #[test]
    fn round_trip_with_extensions() {
        let mut chain = vec![43, 0, 1, 4, 0, 0, 0, 0]; // hop-by-hop, one PadN
        chain.extend([44, 2, 0, 1, 0, 0, 0, 0]); // routing type 0, one address
        chain.extend([3; 16]);
        chain.extend([17, 0, 0, 0, 0, 0, 0, 42]); // fragment
        let f = frame(NextHeader::HopByHop, &chain, &[0xab; 64]);
        let parsed = Datagram::parse(&f).unwrap();
        assert_eq!(parsed.to_bytes(), f);
        assert_eq!(parsed.extension_bytes(), &chain[..]);
        assert_eq!(parsed.upper_protocol(), NextHeader::Udp);
        assert_eq!(parsed.header().next_header, NextHeader::HopByHop);
        assert_eq!(parsed.payload(), &[0xab; 64]);
    }

    /// Legal padding is carried as it arrived, not re-padded: six Pad1
    /// options once came back as one PadN.
    #[test]
    fn a_hop_by_hop_header_of_pad1_options_round_trips() {
        let f = frame(NextHeader::HopByHop, &[17, 0, 0, 0, 0, 0, 0, 0], &[5; 3]);
        assert_eq!(Datagram::parse(&f).unwrap().to_bytes(), f);
    }

    /// A hop-by-hop header padded to 16 bytes where 8 would do once came
    /// back 8 bytes shorter than its own payload length, and then failed to
    /// parse.
    #[test]
    fn an_over_padded_options_header_round_trips() {
        let mut chain = vec![17, 1, 1, 12];
        chain.extend([0; 12]);
        let f = frame(NextHeader::HopByHop, &chain, &[0xab; 12]);
        let parsed = Datagram::parse(&f).unwrap();
        assert_eq!(parsed.to_bytes(), f);
        assert_eq!(Datagram::parse(&parsed.to_bytes()), Ok(parsed));
    }

    #[test]
    fn payload_len_consistency() {
        let d = simple();
        assert_eq!(usize::from(d.header().payload_len), 4);
        assert_eq!(d.wire_len(), 44);
        assert_eq!(d.to_bytes().len(), d.wire_len());
        assert!(d.extension_bytes().is_empty());
    }

    #[test]
    fn trailing_padding_ignored() {
        let mut bytes = simple().to_bytes();
        bytes.extend_from_slice(&[0u8; 10]); // link-layer pad
        let parsed = Datagram::parse(&bytes).unwrap();
        assert_eq!(parsed.payload(), &[1, 2, 3, 4]);
        assert_eq!(parsed.to_bytes(), simple().to_bytes());
    }

    #[test]
    fn short_buffer_rejected() {
        let bytes = simple().to_bytes();
        let err = Datagram::parse(&bytes[..bytes.len() - 1]).unwrap_err();
        assert_eq!(err, ParseError::LengthMismatch { declared: 4, actual: 3 });
    }

    #[test]
    fn no_next_header_datagram() {
        let d = Datagram::builder(a("::1"), a("::2")).build();
        assert_eq!(d.header().next_header, NextHeader::NoNextHeader);
        assert_eq!(d.wire_len(), 40);
        assert_eq!(Datagram::parse(&d.to_bytes()).unwrap(), d);
    }
}
