//! 128-bit IPv6 addresses.
//!
//! [`Ipv6Address`] is a thin newtype over `[u8; 16]` that adds the accessors
//! the rest of the framework needs: word-level views matching the 32-bit
//! datapath of the TACO functional units, bit extraction for the PATRICIA
//! and range-tree lookup engines, and scope classification for the router's input
//! validation microcode.

use std::fmt;
use std::net::Ipv6Addr;
use std::str::FromStr;

use crate::error::ParseError;

/// A 128-bit IPv6 address.
///
/// Stored in network byte order.  The TACO datapath is 32 bits wide, so the
/// address is frequently handled as four big-endian words — see
/// [`Ipv6Address::to_words`].
///
/// # Examples
///
/// ```
/// use taco_ipv6::Ipv6Address;
///
/// # fn main() -> Result<(), taco_ipv6::ParseError> {
/// let a: Ipv6Address = "2001:db8::42".parse()?;
/// assert_eq!(a.to_words()[0], 0x2001_0db8);
/// assert!(!a.bit(0) && a.bit(2)); // first nibble 0x2 = 0b0010
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ipv6Address([u8; 16]);

impl Ipv6Address {
    /// The unspecified address `::`.
    pub const UNSPECIFIED: Ipv6Address = Ipv6Address([0; 16]);

    /// The loopback address `::1`.
    pub const LOOPBACK: Ipv6Address = Ipv6Address([0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]);

    /// The all-RIPng-routers multicast group `ff02::9` (RFC 2080 §2.5.1).
    pub const ALL_RIPNG_ROUTERS: Ipv6Address =
        Ipv6Address([0xff, 0x02, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9]);

    /// Creates an address from 16 bytes in network order.
    pub const fn new(octets: [u8; 16]) -> Self {
        Ipv6Address(octets)
    }

    /// Creates an address from four 32-bit words, most significant first.
    ///
    /// This mirrors how the TACO functional units see an address: as four
    /// consecutive 32-bit operands.
    pub fn from_words(words: [u32; 4]) -> Self {
        let mut o = [0u8; 16];
        for (i, w) in words.iter().enumerate() {
            o[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        Ipv6Address(o)
    }

    /// Creates an address from eight 16-bit segments, most significant first
    /// (the grouping used by the textual representation).
    pub fn from_segments(segs: [u16; 8]) -> Self {
        let mut o = [0u8; 16];
        for (i, s) in segs.iter().enumerate() {
            o[i * 2..i * 2 + 2].copy_from_slice(&s.to_be_bytes());
        }
        Ipv6Address(o)
    }

    /// Returns the 16 raw octets in network order.
    pub const fn octets(&self) -> [u8; 16] {
        self.0
    }

    /// Returns the address as four 32-bit words, most significant first.
    pub fn to_words(self) -> [u32; 4] {
        let mut w = [0u32; 4];
        for (i, item) in w.iter_mut().enumerate() {
            *item = u32::from_be_bytes([
                self.0[i * 4],
                self.0[i * 4 + 1],
                self.0[i * 4 + 2],
                self.0[i * 4 + 3],
            ]);
        }
        w
    }

    /// Returns the address as eight 16-bit segments, most significant first.
    pub fn to_segments(self) -> [u16; 8] {
        let mut s = [0u16; 8];
        for (i, item) in s.iter_mut().enumerate() {
            *item = u16::from_be_bytes([self.0[i * 2], self.0[i * 2 + 1]]);
        }
        s
    }

    /// Returns bit `index` of the address, where bit 0 is the most
    /// significant bit of the first octet.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 128`.
    pub fn bit(&self, index: u8) -> bool {
        assert!(index < 128, "bit index {index} out of range");
        let byte = self.0[(index / 8) as usize];
        (byte >> (7 - index % 8)) & 1 == 1
    }

    /// Returns a copy of the address with bit `index` set to `value`
    /// (bit 0 = most significant).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 128`.
    pub fn with_bit(mut self, index: u8, value: bool) -> Self {
        assert!(index < 128, "bit index {index} out of range");
        let mask = 1u8 << (7 - index % 8);
        if value {
            self.0[(index / 8) as usize] |= mask;
        } else {
            self.0[(index / 8) as usize] &= !mask;
        }
        self
    }

    /// Length of the longest common leading bit string shared with `other`,
    /// in bits (0..=128).
    ///
    /// This is the primitive the PATRICIA and range-tree longest-prefix-match
    /// engines are built on.
    #[inline] // the linear scans call it per entry from another crate
    pub fn common_prefix_len(&self, other: &Ipv6Address) -> u8 {
        // One XOR of the two 128-bit words; equal addresses leave zero,
        // whose `leading_zeros` is the full 128.
        (u128::from_be_bytes(self.0) ^ u128::from_be_bytes(other.0)).leading_zeros() as u8
    }

    /// Returns `true` for multicast addresses (`ff00::/8`).
    pub fn is_multicast(&self) -> bool {
        self.0[0] == 0xff
    }

    /// Returns `true` for link-local unicast addresses (`fe80::/10`).
    pub fn is_link_local(&self) -> bool {
        self.0[0] == 0xfe && (self.0[1] & 0xc0) == 0x80
    }

    /// Returns `true` for the unspecified address `::`.
    pub fn is_unspecified(&self) -> bool {
        *self == Self::UNSPECIFIED
    }

    /// Returns `true` for the loopback address `::1`.
    pub fn is_loopback(&self) -> bool {
        *self == Self::LOOPBACK
    }

    /// Returns a copy with all bits after the first `len` bits cleared.
    ///
    /// # Panics
    ///
    /// Panics if `len > 128`.
    pub fn truncated(mut self, len: u8) -> Self {
        assert!(len <= 128, "prefix length {len} out of range");
        let full = (len / 8) as usize;
        let rem = len % 8;
        if full < 16 {
            if rem > 0 {
                self.0[full] &= 0xffu8 << (8 - rem);
                for b in &mut self.0[full + 1..] {
                    *b = 0;
                }
            } else {
                for b in &mut self.0[full..] {
                    *b = 0;
                }
            }
        }
        self
    }
}

impl fmt::Debug for Ipv6Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ipv6Address({self})")
    }
}

impl fmt::Display for Ipv6Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Delegate to std's RFC 5952 formatting.
        Ipv6Addr::from(self.0).fmt(f)
    }
}

impl FromStr for Ipv6Address {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let std_addr: Ipv6Addr = s.parse().map_err(|_| ParseError::BadAddressSyntax)?;
        Ok(Ipv6Address(std_addr.octets()))
    }
}

impl From<Ipv6Addr> for Ipv6Address {
    fn from(a: Ipv6Addr) -> Self {
        Ipv6Address(a.octets())
    }
}

impl From<Ipv6Address> for Ipv6Addr {
    fn from(a: Ipv6Address) -> Self {
        Ipv6Addr::from(a.0)
    }
}

impl From<[u8; 16]> for Ipv6Address {
    fn from(o: [u8; 16]) -> Self {
        Ipv6Address(o)
    }
}

impl From<Ipv6Address> for [u8; 16] {
    fn from(a: Ipv6Address) -> Self {
        a.0
    }
}

impl AsRef<[u8]> for Ipv6Address {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv6Address {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["::", "::1", "2001:db8::1", "fe80::dead:beef", "ff02::9"] {
            assert_eq!(a(s).to_string(), s);
        }
    }

    #[test]
    fn words_round_trip() {
        let addr = a("2001:db8:aaaa:bbbb:cccc:dddd:eeee:ffff");
        assert_eq!(Ipv6Address::from_words(addr.to_words()), addr);
        assert_eq!(addr.to_words(), [0x2001_0db8, 0xaaaa_bbbb, 0xcccc_dddd, 0xeeee_ffff]);
    }

    #[test]
    fn segments_round_trip() {
        let addr = a("1:2:3:4:5:6:7:8");
        assert_eq!(addr.to_segments(), [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(Ipv6Address::from_segments(addr.to_segments()), addr);
    }

    #[test]
    fn bit_extraction_msb_first() {
        let addr = a("8000::"); // only bit 0 set
        assert!(addr.bit(0));
        for i in 1..128 {
            assert!(!addr.bit(i), "bit {i}");
        }
        let last = a("::1"); // only bit 127 set
        assert!(last.bit(127));
        assert!(!last.bit(126));
    }

    #[test]
    fn with_bit_sets_and_clears() {
        let addr = Ipv6Address::UNSPECIFIED.with_bit(0, true).with_bit(127, true);
        assert_eq!(addr, a("8000::1"));
        assert_eq!(addr.with_bit(0, false), a("::1"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        let _ = Ipv6Address::UNSPECIFIED.bit(128);
    }

    #[test]
    fn common_prefix_len_cases() {
        assert_eq!(a("2001:db8::").common_prefix_len(&a("2001:db8::")), 128);
        assert_eq!(a("8000::").common_prefix_len(&a("::")), 0);
        assert_eq!(a("2001:db8::").common_prefix_len(&a("2001:db9::")), 31);
        assert_eq!(a("ffff::").common_prefix_len(&a("fffe::")), 15);
    }

    #[test]
    fn scope_classification() {
        assert!(a("ff02::9").is_multicast());
        assert!(!a("2001:db8::1").is_multicast());
        assert!(a("fe80::1").is_link_local());
        assert!(!a("fec0::1").is_link_local());
        assert!(Ipv6Address::UNSPECIFIED.is_unspecified());
        assert!(Ipv6Address::LOOPBACK.is_loopback());
    }

    #[test]
    fn truncated_clears_host_bits() {
        let addr = a("2001:db8:ffff:ffff::1");
        assert_eq!(addr.truncated(32), a("2001:db8::"));
        assert_eq!(addr.truncated(35), a("2001:db8:e000::"));
        assert_eq!(addr.truncated(0), Ipv6Address::UNSPECIFIED);
        assert_eq!(addr.truncated(128), addr);
    }

    #[test]
    fn std_conversions() {
        let std_addr: Ipv6Addr = "2001:db8::7".parse().unwrap();
        let ours: Ipv6Address = std_addr.into();
        let back: Ipv6Addr = ours.into();
        assert_eq!(std_addr, back);
    }

    #[test]
    fn well_known_constants() {
        assert_eq!(Ipv6Address::ALL_RIPNG_ROUTERS, a("ff02::9"));
        assert_eq!(Ipv6Address::LOOPBACK, a("::1"));
    }
}
