//! Complete IPv6 datagrams: fixed header + extension chain + payload.

use crate::addr::Ipv6Address;
use crate::error::ParseError;
use crate::exthdr::{encode_chain, parse_chain, walk_chain, ExtensionHeader};
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

    /// Copies the datagram out of the frame, decoding its extension chain.
    pub fn to_owned(self) -> Datagram {
        let (extensions, ..) = parse_chain(self.header.next_header, self.chain)
            .expect("DatagramView::parse walked this chain");
        Datagram {
            header: self.header,
            extensions,
            upper: self.upper,
            payload: self.payload.to_vec(),
        }
    }
}

/// A complete IPv6 datagram as the line cards hand it to the processor.
///
/// Invariants maintained by construction and parsing:
///
/// * `header.payload_len` always equals the encoded extension chain length
///   plus the payload length;
/// * `header.next_header` always names the first extension header, or the
///   upper-layer protocol if the chain is empty.
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
    extensions: Vec<ExtensionHeader>,
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
            extensions: Vec::new(),
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

    /// The fixed header (payload length and next header reflect the current
    /// contents).
    pub fn header(&self) -> &Ipv6Header {
        &self.header
    }

    /// The parsed extension-header chain, in wire order.
    pub fn extensions(&self) -> &[ExtensionHeader] {
        &self.extensions
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

    /// Serializes the datagram.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (ext_bytes, _) = encode_chain(&self.extensions, self.upper);
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&self.header.to_bytes());
        out.extend_from_slice(&ext_bytes);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decrements the hop limit, returning `false` (and leaving the datagram
    /// untouched) if it is already zero — the condition under which a router
    /// must drop the packet and emit an ICMPv6 *time exceeded*.
    pub fn decrement_hop_limit(&mut self) -> bool {
        if self.header.hop_limit == 0 {
            return false;
        }
        self.header.hop_limit -= 1;
        true
    }

    /// Replaces the payload, fixing up `payload_len`.
    pub fn set_payload(&mut self, payload: Vec<u8>) {
        self.payload = payload;
        self.refresh_len();
    }

    fn refresh_len(&mut self) {
        let (ext_bytes, first) = encode_chain(&self.extensions, self.upper);
        self.header.next_header = first;
        self.header.payload_len = (ext_bytes.len() + self.payload.len()) as u16;
    }
}

/// Builder returned by [`Datagram::builder`].
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
    extensions: Vec<ExtensionHeader>,
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

    /// Appends an extension header to the chain.
    pub fn extension(mut self, ext: ExtensionHeader) -> Self {
        self.extensions.push(ext);
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
        let (ext_bytes, first) = encode_chain(&self.extensions, self.upper);
        let header = Ipv6Header {
            traffic_class: self.traffic_class,
            flow_label: self.flow_label,
            payload_len: (ext_bytes.len() + self.payload.len()) as u16,
            next_header: first,
            hop_limit: self.hop_limit,
            src: self.src,
            dst: self.dst,
        };
        Datagram { header, extensions: self.extensions, upper: self.upper, payload: self.payload }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exthdr::{FragmentHeader, OptionsHeader, RoutingHeader};

    fn a(s: &str) -> Ipv6Address {
        s.parse().unwrap()
    }

    fn simple() -> Datagram {
        Datagram::builder(a("2001:db8::1"), a("2001:db8::2"))
            .payload(NextHeader::Udp, vec![1, 2, 3, 4])
            .build()
    }

    #[test]
    fn round_trip_plain() {
        let d = simple();
        assert_eq!(Datagram::parse(&d.to_bytes()).unwrap(), d);
    }

    #[test]
    fn round_trip_with_extensions() {
        let d = Datagram::builder(a("fe80::1"), a("ff02::9"))
            .hop_limit(255)
            .extension(ExtensionHeader::HopByHop(OptionsHeader::new()))
            .extension(ExtensionHeader::Routing(RoutingHeader {
                routing_type: 0,
                segments_left: 1,
                addresses: vec![[3u8; 16]],
            }))
            .extension(ExtensionHeader::Fragment(FragmentHeader { offset: 0, more: false, id: 42 }))
            .payload(NextHeader::Udp, vec![0xab; 64])
            .build();
        let parsed = Datagram::parse(&d.to_bytes()).unwrap();
        assert_eq!(parsed, d);
        assert_eq!(parsed.extensions().len(), 3);
        assert_eq!(parsed.upper_protocol(), NextHeader::Udp);
        assert_eq!(parsed.header().next_header, NextHeader::HopByHop);
    }

    #[test]
    fn payload_len_consistency() {
        let d = simple();
        assert_eq!(usize::from(d.header().payload_len), 4);
        assert_eq!(d.wire_len(), 44);
        assert_eq!(d.to_bytes().len(), d.wire_len());
    }

    #[test]
    fn trailing_padding_ignored() {
        let mut bytes = simple().to_bytes();
        bytes.extend_from_slice(&[0u8; 10]); // link-layer pad
        let parsed = Datagram::parse(&bytes).unwrap();
        assert_eq!(parsed.payload(), &[1, 2, 3, 4]);
    }

    #[test]
    fn short_buffer_rejected() {
        let bytes = simple().to_bytes();
        let err = Datagram::parse(&bytes[..bytes.len() - 1]).unwrap_err();
        assert_eq!(err, ParseError::LengthMismatch { declared: 4, actual: 3 });
    }

    #[test]
    fn hop_limit_decrement() {
        let mut d = simple();
        assert_eq!(d.header().hop_limit, 64);
        assert!(d.decrement_hop_limit());
        assert_eq!(d.header().hop_limit, 63);

        let mut z = Datagram::builder(a("::1"), a("::2"))
            .hop_limit(0)
            .payload(NextHeader::Udp, vec![])
            .build();
        assert!(!z.decrement_hop_limit());
        assert_eq!(z.header().hop_limit, 0);
    }

    #[test]
    fn set_payload_refreshes_len() {
        let mut d = simple();
        d.set_payload(vec![0u8; 100]);
        assert_eq!(usize::from(d.header().payload_len), 100);
        let rt = Datagram::parse(&d.to_bytes()).unwrap();
        assert_eq!(rt.payload().len(), 100);
    }

    #[test]
    fn no_next_header_datagram() {
        let d = Datagram::builder(a("::1"), a("::2")).build();
        assert_eq!(d.header().next_header, NextHeader::NoNextHeader);
        assert_eq!(d.wire_len(), 40);
        assert_eq!(Datagram::parse(&d.to_bytes()).unwrap(), d);
    }
}
