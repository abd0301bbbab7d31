#![warn(missing_docs)]

//! IPv6 packet substrate for the TACO protocol-processor evaluation framework.
//!
//! The paper's router receives *fully assembled, decapsulated IPv6 datagrams*
//! from its line cards, validates them, performs a longest-prefix-match
//! routing lookup, rewrites the hop limit and forwards them.  It also
//! terminates RIPng (RFC 2080) control traffic carried over UDP.  This crate
//! implements everything the router needs to see on the wire:
//!
//! * [`Ipv6Address`] / [`Ipv6Prefix`] — 128-bit addresses and CIDR prefixes
//!   with the bit-level accessors the longest-prefix-match engines need;
//! * [`Ipv6Header`] — the fixed header, parsed and built;
//! * [`exthdr`] — the one validator of the variable-length extension chains
//!   that motivated the paper's decision to copy whole datagrams into
//!   processor memory; a chain is checked and carried as bytes, never
//!   decoded, since the router interprets none of its headers;
//! * [`Datagram`] — a full packet, parsed from a frame or built, that
//!   serialises back to the frame it came from, and [`DatagramView`] — the
//!   same checks over a frame left where it is;
//! * [`checksum`] — the RFC 1071 Internet checksum and the IPv6 pseudo-header
//!   sum used by UDP and ICMPv6 (the TACO `Checksum` functional unit computes
//!   exactly this);
//! * [`udp::UdpDatagram`] and the [`icmpv6`] error frames the router writes;
//! * [`ripng`] — the RIPng message codec used by the routing engine.
//!
//! # Examples
//!
//! Build a minimal UDP-over-IPv6 datagram and parse it back:
//!
//! ```
//! use taco_ipv6::{Datagram, Ipv6Address, NextHeader};
//!
//! # fn main() -> Result<(), taco_ipv6::ParseError> {
//! let src: Ipv6Address = "2001:db8::1".parse()?;
//! let dst: Ipv6Address = "2001:db8::2".parse()?;
//! let dgram = Datagram::builder(src, dst)
//!     .hop_limit(64)
//!     .payload(NextHeader::UDP, vec![0u8; 8])
//!     .build();
//! let bytes = dgram.to_bytes();
//! let parsed = Datagram::parse(&bytes)?;
//! assert_eq!(parsed.header().dst, dst);
//! # Ok(())
//! # }
//! ```

pub mod addr;
pub mod checksum;
pub mod error;
pub mod exthdr;
pub mod header;
pub mod icmpv6;
pub mod packet;
pub mod prefix;
pub mod ripng;
pub mod udp;

pub use addr::Ipv6Address;
pub use error::ParseError;
pub use header::{Ipv6Header, NextHeader};
pub use packet::{Datagram, DatagramBuilder, DatagramView};
pub use prefix::Ipv6Prefix;
