//! The address and prefix algebra every longest-prefix-match engine is
//! built on, over arbitrary addresses and prefixes (seeded; see
//! `common/mod.rs`).

mod common;

use common::{addr, cases, prefix};
use taco::ipv6::{Ipv6Address, Ipv6Prefix};

const SEED: u64 = 0x1976_0001;
const CASES: u64 = 256;

/// `noise` with its first `p.len()` bits replaced by the prefix's.
fn within(p: &Ipv6Prefix, mut noise: Ipv6Address) -> Ipv6Address {
    for bit in 0..p.len() {
        noise = noise.with_bit(bit, p.addr().bit(bit));
    }
    noise
}

#[test]
fn words_and_segments_round_trip() {
    cases(SEED, CASES, |rng| {
        let a = addr(rng);
        assert_eq!(Ipv6Address::from_words(a.to_words()), a);
        assert_eq!(Ipv6Address::from_segments(a.to_segments()), a);
    });
}

#[test]
fn bit_accessors_agree_with_words() {
    cases(SEED, CASES, |rng| {
        let a = addr(rng);
        let bit = rng.below(128) as u8;
        let word = a.to_words()[usize::from(bit) / 32];
        assert_eq!(a.bit(bit), (word >> (31 - u32::from(bit) % 32)) & 1 == 1, "{a} bit {bit}");
    });
}

#[test]
fn with_bit_is_idempotent_and_invertible() {
    cases(SEED, CASES, |rng| {
        let a = addr(rng);
        let bit = rng.below(128) as u8;
        let v = rng.chance(0.5);
        let set = a.with_bit(bit, v);
        assert_eq!(set.bit(bit), v);
        assert_eq!(set.with_bit(bit, v), set);
        assert_eq!(set.with_bit(bit, a.bit(bit)), a);
    });
}

#[test]
fn common_prefix_len_is_symmetric_and_exact() {
    cases(SEED, CASES, |rng| {
        // Independent addresses differ within a few bits; a shared random
        // prefix makes the long common runs as likely as the short.
        let (a, shared) = (addr(rng), prefix(rng));
        let b = within(&shared, addr(rng));
        let a = within(&shared, a);
        let ab = a.common_prefix_len(&b);
        assert_eq!(ab, b.common_prefix_len(&a));
        assert!(ab >= shared.len() && ab <= 128);
        for bit in 0..ab {
            assert_eq!(a.bit(bit), b.bit(bit), "claimed common bit {bit}");
        }
        if ab < 128 {
            assert_ne!(a.bit(ab), b.bit(ab), "the bit after the common run differs");
        }
    });
}

/// The byte-at-a-time loop `common_prefix_len` was before it became one
/// 128-bit XOR, kept as the reference.
fn common_prefix_len_bytewise(a: &Ipv6Address, b: &Ipv6Address) -> u8 {
    let mut len = 0u8;
    for (x, y) in a.octets().iter().zip(b.octets()) {
        let diff = x ^ y;
        if diff != 0 {
            return len + diff.leading_zeros() as u8;
        }
        len += 8;
    }
    len
}

#[test]
fn common_prefix_len_equals_the_bytewise_loop_at_every_length() {
    cases(SEED, CASES, |rng| {
        let (a, noise) = (addr(rng), addr(rng));
        assert_eq!(a.common_prefix_len(&noise), common_prefix_len_bytewise(&a, &noise));
        // All 129 answers: `b` agrees with `a` on exactly `len` bits, then
        // differs, then is noise.
        for len in 0..=128u8 {
            let mut b = within(&Ipv6Prefix::new(a, len).expect("in range"), noise);
            if len < 128 {
                b = b.with_bit(len, !a.bit(len));
            }
            assert_eq!(a.common_prefix_len(&b), len, "{a} / {b}");
            assert_eq!(common_prefix_len_bytewise(&a, &b), len, "{a} / {b}");
        }
    });
}

#[test]
fn truncated_matches_mask_words() {
    cases(SEED, CASES, |rng| {
        let a = addr(rng);
        let len = rng.range_inclusive(0, 128) as u8;
        let mask = Ipv6Prefix::new(a, len).expect("in range").mask_words();
        let (truncated, words) = (a.truncated(len).to_words(), a.to_words());
        for i in 0..4 {
            assert_eq!(truncated[i], words[i] & mask[i], "{a}/{len} word {i}");
        }
    });
}

#[test]
fn prefix_contains_its_own_addresses() {
    cases(SEED, CASES, |rng| {
        // Noise in the host bits stays inside.
        let p = prefix(rng);
        let a = within(&p, addr(rng));
        assert!(p.contains(&a), "{p} must contain {a}");
        // Canonicalisation: re-deriving the prefix from any member gives p.
        assert_eq!(Ipv6Prefix::new(a, p.len()).expect("in range"), p);
    });
}

#[test]
fn covers_is_a_partial_order() {
    cases(SEED, CASES, |rng| {
        let p = prefix(rng);
        // Half the time `q` is drawn from inside `p`, or `covers` would
        // almost never hold between two independent prefixes.
        let q = if rng.chance(0.5) {
            let len = rng.range_inclusive(u64::from(p.len()), 128) as u8;
            let inside = Ipv6Prefix::new(within(&p, addr(rng)), len).expect("in range");
            assert!(p.covers(&inside), "{p} must cover {inside}");
            inside
        } else {
            prefix(rng)
        };
        assert!(p.covers(&p));
        if p.covers(&q) && q.covers(&p) {
            assert_eq!(p, q);
        }
        if p.covers(&q) {
            assert!(p.contains(&q.addr()), "{p} covers {q}");
            assert!(p.len() <= q.len());
        }
    });
}

#[test]
fn display_parse_round_trip() {
    cases(SEED, CASES, |rng| {
        let (p, a) = (prefix(rng), addr(rng));
        assert_eq!(p.to_string().parse::<Ipv6Prefix>().expect("parses"), p);
        assert_eq!(a.to_string().parse::<Ipv6Address>().expect("parses"), a);
        // Runs of zero segments are what `::` compression is for.
        let mut segments = a.to_segments();
        for segment in &mut segments {
            if rng.chance(0.5) {
                *segment = 0;
            }
        }
        let sparse = Ipv6Address::from_segments(segments);
        assert_eq!(sparse.to_string().parse::<Ipv6Address>().expect("parses"), sparse);
    });
}
