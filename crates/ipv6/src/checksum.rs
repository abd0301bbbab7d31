//! RFC 1071 Internet checksum and the IPv6 pseudo-header sum.
//!
//! The TACO processor has a dedicated `Checksum` functional unit; this module
//! is the behavioural reference for it.  The incremental [`Checksum`]
//! accumulator mirrors how the FU is fed 32-bit operands one move at a time.

use crate::addr::Ipv6Address;

/// Incremental one's-complement checksum accumulator.
///
/// Feed it bytes or words, then call [`Checksum::finish`] to obtain the
/// folded, complemented 16-bit checksum.
///
/// # Examples
///
/// ```
/// use taco_ipv6::checksum::Checksum;
///
/// let mut c = Checksum::new();
/// c.add_bytes(&[0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7]);
/// // Classic example from RFC 1071 §3.
/// assert_eq!(c.finish(), !0xddf2u16);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checksum {
    sum: u32,
}

impl Checksum {
    /// Creates an accumulator with a zero partial sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a 16-bit word to the running sum.
    pub(crate) fn add_u16(&mut self, word: u16) {
        self.sum += u32::from(word);
    }

    /// Adds a 32-bit word (as two 16-bit halves) to the running sum.
    ///
    /// This is the granularity at which the TACO `Checksum` FU is triggered.
    pub fn add_u32(&mut self, word: u32) {
        self.add_u16((word >> 16) as u16);
        self.add_u16(word as u16);
    }

    /// Adds a byte slice, padding an odd trailing byte with zero as the RFC
    /// requires.
    pub fn add_bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(2);
        for c in &mut chunks {
            self.add_u16(u16::from_be_bytes([c[0], c[1]]));
        }
        if let [last] = chunks.remainder() {
            self.add_u16(u16::from_be_bytes([*last, 0]));
        }
    }

    /// Adds the IPv6 pseudo-header of RFC 2460 §8.1.
    ///
    /// `upper_len` is the upper-layer packet length and `next_header` the
    /// final next-header value (e.g. 17 for UDP, 58 for ICMPv6).
    pub(crate) fn add_pseudo_header(
        &mut self,
        src: &Ipv6Address,
        dst: &Ipv6Address,
        upper_len: u32,
        next_header: u8,
    ) {
        self.add_bytes(&src.octets());
        self.add_bytes(&dst.octets());
        self.add_u32(upper_len);
        self.add_u32(u32::from(next_header));
    }

    /// Folds carries and returns the one's-complement of the sum.
    ///
    /// A result of `0` is transmitted as `0xffff` by UDP; that substitution
    /// is the caller's business (see [`udp`](crate::udp)).
    pub fn finish(mut self) -> u16 {
        while self.sum > 0xffff {
            self.sum = (self.sum & 0xffff) + (self.sum >> 16);
        }
        !(self.sum as u16)
    }
}

/// Computes the RFC 1071 checksum of `bytes` in one call.
///
/// # Examples
///
/// ```
/// use taco_ipv6::checksum::checksum;
///
/// // A buffer whose checksum field is already correct sums to zero.
/// let mut buf = vec![0x45, 0x00, 0x00, 0x1c];
/// let c = checksum(&buf);
/// buf.extend_from_slice(&c.to_be_bytes());
/// assert_eq!(checksum(&buf), 0);
/// ```
pub fn checksum(bytes: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(bytes);
    c.finish()
}

/// Computes the checksum of an upper-layer packet including the IPv6
/// pseudo-header.
///
/// `payload` must contain the upper-layer header with its checksum field
/// zeroed (when computing) or filled in (when verifying, in which case a
/// return value of `0` means "valid").
pub fn pseudo_header_checksum(
    src: &Ipv6Address,
    dst: &Ipv6Address,
    next_header: u8,
    payload: &[u8],
) -> u16 {
    let mut c = Checksum::new();
    c.add_pseudo_header(src, dst, payload.len() as u32, next_header);
    c.add_bytes(payload);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_checksum_is_all_ones() {
        assert_eq!(checksum(&[]), 0xffff);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xab]), checksum(&[0xab, 0x00]));
    }

    #[test]
    fn verification_of_correct_buffer_yields_zero() {
        let data = [0x12u8, 0x34, 0x56, 0x78, 0x9a, 0xbc];
        let c = checksum(&data);
        let mut full = data.to_vec();
        full.extend_from_slice(&c.to_be_bytes());
        assert_eq!(checksum(&full), 0);
    }

    #[test]
    fn u32_matches_bytes() {
        let mut a = Checksum::new();
        a.add_u32(0xdead_beef);
        let mut b = Checksum::new();
        b.add_bytes(&[0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn pseudo_header_changes_result() {
        let src: Ipv6Address = "2001:db8::1".parse().unwrap();
        let dst: Ipv6Address = "2001:db8::2".parse().unwrap();
        let plain = checksum(b"hello");
        let with_ph = pseudo_header_checksum(&src, &dst, 17, b"hello");
        assert_ne!(plain, with_ph);
        // Swapping src/dst must not change the sum (addition commutes).
        assert_eq!(with_ph, pseudo_header_checksum(&dst, &src, 17, b"hello"));
    }

    #[test]
    fn order_independence_of_16bit_words() {
        // One's complement addition commutes over 16-bit words.
        let x = checksum(&[1, 2, 3, 4]);
        let y = checksum(&[3, 4, 1, 2]);
        assert_eq!(x, y);
    }

    #[test]
    fn carry_folding() {
        // 0xffff + 0x0001 wraps to 0x0001 in one's complement arithmetic.
        let mut c = Checksum::new();
        c.add_u16(0xffff);
        c.add_u16(0x0001);
        assert_eq!(c.finish(), !0x0001u16);
    }
}
