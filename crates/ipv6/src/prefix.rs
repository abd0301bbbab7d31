//! CIDR prefixes over [`Ipv6Address`].

use std::fmt;
use std::str::FromStr;

use crate::addr::Ipv6Address;
use crate::error::ParseError;

/// An IPv6 network prefix: an address plus a prefix length in `0..=128`.
///
/// The stored address is always *canonical* — bits beyond the prefix length
/// are zero — so two prefixes covering the same network compare equal
/// regardless of how they were written.
///
/// # Examples
///
/// ```
/// use taco_ipv6::{Ipv6Address, Ipv6Prefix};
///
/// # fn main() -> Result<(), taco_ipv6::ParseError> {
/// let p: Ipv6Prefix = "2001:db8::/32".parse()?;
/// let host: Ipv6Address = "2001:db8:1234::1".parse()?;
/// assert!(p.contains(&host));
/// assert_eq!(p.to_string(), "2001:db8::/32");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv6Prefix {
    addr: Ipv6Address,
    len: u8,
}

impl Ipv6Prefix {
    /// The default route `::/0`, which matches every address.
    pub const DEFAULT_ROUTE: Ipv6Prefix = Ipv6Prefix { addr: Ipv6Address::UNSPECIFIED, len: 0 };

    /// Creates a prefix, canonicalizing the address by clearing host bits.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::BadPrefixLen`] if `len > 128`.
    pub fn new(addr: Ipv6Address, len: u8) -> Result<Self, ParseError> {
        if len > 128 {
            return Err(ParseError::BadPrefixLen(len));
        }
        Ok(Ipv6Prefix { addr: addr.truncated(len), len })
    }

    /// Creates a host prefix (`/128`) for a single address.
    pub fn host(addr: Ipv6Address) -> Self {
        Ipv6Prefix { addr, len: 128 }
    }

    /// The canonical network address (host bits zero).
    pub fn addr(&self) -> Ipv6Address {
        self.addr
    }

    /// The prefix length in bits.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Returns `true` for the zero-length default route `::/0`.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if `addr` falls inside this prefix.
    pub fn contains(&self, addr: &Ipv6Address) -> bool {
        self.addr.common_prefix_len(addr) >= self.len
    }

    /// Returns `true` if `other` is fully covered by `self`
    /// (`self` is shorter or equal and the leading bits agree).
    pub fn covers(&self, other: &Ipv6Prefix) -> bool {
        self.len <= other.len && self.contains(&other.addr)
    }

    /// The 128-bit mask with the first `len` bits set, as four 32-bit words.
    ///
    /// This is the constant the router microcode loads into the Masker /
    /// Matcher functional units before a sequential-table compare.
    pub fn mask_words(&self) -> [u32; 4] {
        let mut words = [0u32; 4];
        let mut remaining = self.len as u32;
        for w in &mut words {
            let take = remaining.min(32);
            *w = if take == 0 { 0 } else { (!0u32) << (32 - take) };
            remaining -= take;
        }
        words
    }
}

impl Default for Ipv6Prefix {
    fn default() -> Self {
        Self::DEFAULT_ROUTE
    }
}

impl fmt::Debug for Ipv6Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ipv6Prefix({self})")
    }
}

impl fmt::Display for Ipv6Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl FromStr for Ipv6Prefix {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_part, len_part) = s.split_once('/').ok_or(ParseError::BadAddressSyntax)?;
        let addr: Ipv6Address = addr_part.parse()?;
        let len: u8 = len_part.parse().map_err(|_| ParseError::BadAddressSyntax)?;
        Ipv6Prefix::new(addr, len)
    }
}

impl From<Ipv6Address> for Ipv6Prefix {
    fn from(addr: Ipv6Address) -> Self {
        Ipv6Prefix::host(addr)
    }
}

/// Orders prefixes by address first, then by length: the order the
/// balanced-tree routing table stores its routes in.  For canonical prefixes
/// it is interval order, by start and then the enclosing interval first,
/// which is the order the table's segment sweep visits them in.
impl PartialOrd for Ipv6Prefix {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ipv6Prefix {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.addr.cmp(&other.addr).then(self.len.cmp(&other.len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Ipv6Address {
        s.parse().unwrap()
    }

    #[test]
    fn canonicalizes_host_bits() {
        let x = Ipv6Prefix::new(a("2001:db8::ffff"), 32).unwrap();
        assert_eq!(x.addr(), a("2001:db8::"));
        assert_eq!(x, p("2001:db8::/32"));
    }

    #[test]
    fn rejects_overlong() {
        assert_eq!(
            Ipv6Prefix::new(Ipv6Address::UNSPECIFIED, 129),
            Err(ParseError::BadPrefixLen(129))
        );
        assert!("::/129".parse::<Ipv6Prefix>().is_err());
        assert!("2001:db8::".parse::<Ipv6Prefix>().is_err()); // missing /len
        assert!("2001:db8::/abc".parse::<Ipv6Prefix>().is_err());
    }

    #[test]
    fn contains_edge_cases() {
        assert!(Ipv6Prefix::DEFAULT_ROUTE.contains(&a("1234::1")));
        assert!(p("2001:db8::/32").contains(&a("2001:db8:ffff::1")));
        assert!(!p("2001:db8::/32").contains(&a("2001:db9::1")));
        let host = Ipv6Prefix::host(a("::7"));
        assert!(host.contains(&a("::7")));
        assert!(!host.contains(&a("::8")));
    }

    #[test]
    fn covers_relation() {
        assert!(p("2001:db8::/32").covers(&p("2001:db8:1::/48")));
        assert!(!p("2001:db8:1::/48").covers(&p("2001:db8::/32")));
        assert!(p("::/0").covers(&p("ffff::/16")));
        let q = p("2001:db8::/32");
        assert!(q.covers(&q));
    }

    #[test]
    fn mask_words_shapes() {
        assert_eq!(p("::/0").mask_words(), [0, 0, 0, 0]);
        assert_eq!(p("2001:db8::/32").mask_words(), [0xffff_ffff, 0, 0, 0]);
        assert_eq!(p("2001:db8::/48").mask_words(), [0xffff_ffff, 0xffff_0000, 0, 0]);
        assert_eq!(Ipv6Prefix::host(a("::1")).mask_words(), [0xffff_ffff; 4]);
        assert_eq!(p("8000::/1").mask_words(), [0x8000_0000, 0, 0, 0]);
    }

    #[test]
    fn display_round_trip() {
        for s in ["::/0", "2001:db8::/32", "fe80::/10", "::1/128"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn ordering_is_addr_then_len() {
        let mut v = vec![p("2001:db8::/48"), p("2001:db8::/32"), p("::/0")];
        v.sort();
        assert_eq!(v, vec![p("::/0"), p("2001:db8::/32"), p("2001:db8::/48")]);
    }
}
