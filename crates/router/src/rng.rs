//! Minimal deterministic pseudo-random number generation.
//!
//! The workload generator needs reproducible randomness, not cryptographic
//! or statistical sophistication — and it must build with **no external
//! dependencies**, because the repository's tier-1 verification runs in an
//! offline environment where registry crates cannot be resolved.  This
//! module is the in-tree replacement for the `rand` crate: a SplitMix64
//! generator (Steele, Lea & Flood, "Fast splittable pseudorandom number
//! generators", OOPSLA 2014) with the handful of derived samplers the
//! traffic generator uses.
//!
//! SplitMix64 is a good fit here: one `u64` of state, equidistributed
//! output for every seed (including 0), and a trivially auditable
//! xorshift-multiply finalizer.

/// The Weyl increment γ every step adds to the state.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A SplitMix64 pseudo-random number generator.
///
/// Identical seeds produce identical streams on every platform — the
/// property every test and benchmark in this repository relies on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator seeded with `seed` (any value, including 0).
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The outcomes of the next `n` fair coin tosses in the low `n` bits of
    /// a `u128`, first toss most significant (bit `n - 1`), a set bit for
    /// `true`; the bits above `n` are zero.
    ///
    /// This is the one way to draw many coins, and it consumes **exactly**
    /// the stream `n` sequential [`chance`](Self::chance)`(0.5)` calls — or
    /// `n` sequential [`below`](Self::below)`(2) == 0` calls — consume, one
    /// step per toss, with the same outcomes:
    ///
    /// * `chance(0.5)` is `(x >> 11) as f64 · 2⁻⁵³ < 0.5`.  `x >> 11` has at
    ///   most 53 bits, so the conversion and the scaling by a power of two
    ///   are exact in `f64`, and the comparison is `x >> 11 < 2⁵²`, that is
    ///   `x >> 63 == 0`.
    /// * `below(2)` is Lemire's multiply-shift with `n = 2`: the result
    ///   `(x · 2) >> 64` is `x >> 63`, and its rejection threshold
    ///   `2⁶⁴ mod 2 = 0` never rejects, so it is one step and
    ///   `below(2) == 0` is again `x >> 63 == 0`.
    ///
    /// So a toss is the complement of its step's top bit.  Step `i`'s
    /// output is a pure function of `state + i·γ` (γ the Weyl increment),
    /// so all that one toss hands the next is a one-cycle add: the `n`
    /// mixes have no serial dependency on one another and the loop
    /// pipelines — which a `chance(0.5)` per toss, with its `u64 → f64`
    /// conversion, clamp and float compare, does not.
    ///
    /// The same independence lets a CPU with AVX-512 DQ mix eight steps per
    /// 512-bit vector (`avx512::coin_tosses`); every other CPU folds one step
    /// at a time, and that fold is the reference the kernel is tested
    /// against.  The CPU picks, not an option: both give the same bits.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds 128.
    pub(crate) fn coin_tosses(&mut self, n: u32) -> u128 {
        assert!(n <= 128, "{n} tosses do not fit a u128");
        #[cfg(target_arch = "x86_64")]
        if avx512::detected() {
            // SAFETY: `detected` has just seen avx512f and avx512dq, the
            // kernel's two target features, on the running CPU.
            return unsafe { avx512::coin_tosses(&mut self.state, n) };
        }
        self.coin_tosses_fold(n)
    }

    /// [`coin_tosses`](Self::coin_tosses) one step at a time.
    fn coin_tosses_fold(&mut self, n: u32) -> u128 {
        (0..n).fold(0u128, |tosses, _| tosses << 1 | u128::from(!self.next_u64() >> 63))
    }

    /// Fills `buf` with uniformly distributed bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// A uniform value in `0..n` (Lemire's unbiased multiply-shift method).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        let mut x = self.next_u64();
        let mut m = u128::from(x) * u128::from(n);
        let mut low = m as u64;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                x = self.next_u64();
                m = u128::from(x) * u128::from(n);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform value in `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "inverted range");
        match hi - lo {
            u64::MAX => self.next_u64(),
            span => lo + self.below(span + 1),
        }
    }

    /// A uniform float in `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        (self.next_u64() >> 11) as f64 * SCALE
    }

    /// `true` with probability `p` (clamped to `0.0..=1.0`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }
}

/// The host-bit kernel behind [`SplitMix64::coin_tosses`] on CPUs with
/// AVX-512 DQ, whose 64-bit `mullo` mixes eight steps per `__m512i`.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    use super::GAMMA;

    /// Whether the running CPU has the kernel's two target features.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
    }

    /// `n <= 128` tosses of the generator whose state is `*state`, packed
    /// as `coin_tosses` packs them, with the state advanced by `n` steps.
    ///
    /// Block `b` covers steps `8b + 1 ..= 8b + 8`, lane `7 - j` holding step
    /// `8b + j + 1`, so the block's sign-bit mask has its first step in the
    /// top bit and the mask's complement is the block's eight tosses in
    /// order.  A toss reads only the top bit of the mix, which the final
    /// `z ^ z >> 31` leaves alone, so that xor-shift is skipped.  Steps of a
    /// partial last block past `n` are mixed and shifted out, not stepped.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn coin_tosses(state: &mut u64, n: u32) -> u128 {
        if n == 0 {
            return 0;
        }
        let s = *state;
        let step = |k: u64| s.wrapping_add(k.wrapping_mul(GAMMA)) as i64;
        let mut z = _mm512_set_epi64(
            step(1),
            step(2),
            step(3),
            step(4),
            step(5),
            step(6),
            step(7),
            step(8),
        );
        let stride = _mm512_set1_epi64(GAMMA.wrapping_mul(8) as i64);
        let m1 = _mm512_set1_epi64(0xBF58_476D_1CE4_E5B9_u64 as i64);
        let m2 = _mm512_set1_epi64(0x94D0_49BB_1331_11EB_u64 as i64);
        let mut bytes = [0u8; 16];
        for byte in &mut bytes[..n.div_ceil(8) as usize] {
            let x = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<30>(z)), m1);
            let x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64::<27>(x)), m2);
            *byte = !_mm512_movepi64_mask(x);
            z = _mm512_add_epi64(z, stride);
        }
        *state = s.wrapping_add(GAMMA.wrapping_mul(u64::from(n)));
        u128::from_be_bytes(bytes) >> (128 - n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Reference output of splitmix64 for seed 1234567, per the public
        // domain implementation by Sebastiano Vigna.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(43);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = SplitMix64::new(7);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let v = rng.below(5);
            assert!(v < 5);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable: {seen:?}");
    }

    #[test]
    fn range_inclusive_hits_both_ends() {
        let mut rng = SplitMix64::new(11);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..300 {
            let v = rng.range_inclusive(4, 16);
            assert!((4..=16).contains(&v));
            lo_seen |= v == 4;
            hi_seen |= v == 16;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn full_range_does_not_overflow() {
        let mut rng = SplitMix64::new(3);
        let _ = rng.range_inclusive(0, u64::MAX);
    }

    #[test]
    fn unit_floats_and_chance_extremes() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..100 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f), "{f}");
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
        }
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = SplitMix64::new(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        let mut again = [0u8; 13];
        SplitMix64::new(5).fill_bytes(&mut again);
        assert_eq!(buf, again);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn below_zero_rejected() {
        SplitMix64::new(1).below(0);
    }

    /// `n` sequential draws of `coin`, packed the way `coin_tosses` packs.
    fn sequential_tosses(rng: &mut SplitMix64, n: u32, coin: fn(&mut SplitMix64) -> bool) -> u128 {
        (0..n).fold(0, |tosses, _| tosses << 1 | u128::from(coin(rng)))
    }

    #[test]
    fn coin_tosses_are_sequential_chance_and_below_draws() {
        for seed in (0..64u64).map(|i| i.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ i) {
            for n in 0..=128u32 {
                let mut packed = SplitMix64::new(seed);
                let mut by_chance = packed.clone();
                let mut by_below = packed.clone();
                let tosses = packed.coin_tosses(n);
                assert_eq!(
                    tosses,
                    sequential_tosses(&mut by_chance, n, |r| r.chance(0.5)),
                    "chance(0.5): seed {seed:#x}, n {n}"
                );
                assert_eq!(
                    tosses,
                    sequential_tosses(&mut by_below, n, |r| r.below(2) == 0),
                    "below(2) == 0: seed {seed:#x}, n {n}"
                );
                // Same stream position afterwards: n steps, no more.
                let next = packed.next_u64();
                assert_eq!(next, by_chance.next_u64(), "seed {seed:#x}, n {n}");
                assert_eq!(next, by_below.next_u64(), "seed {seed:#x}, n {n}");
            }
        }
    }

    #[test]
    fn the_kernel_equals_the_fold_where_the_cpu_picks_it() {
        // Where the kernel is picked, `coin_tosses` never reaches the fold,
        // so the test above covers the kernel and this one the reference.
        #[cfg(target_arch = "x86_64")]
        if avx512::detected() {
            for seed in (0..64u64).map(|i| i.wrapping_mul(0x9FB2_1C65_1E98_DF25) ^ !i) {
                for n in 0..=128u32 {
                    let mut kernel = SplitMix64::new(seed);
                    let mut fold = kernel.clone();
                    assert_eq!(
                        kernel.coin_tosses(n),
                        fold.coin_tosses_fold(n),
                        "seed {seed:#x}, n {n}"
                    );
                    assert_eq!(kernel, fold, "stream position: seed {seed:#x}, n {n}");
                }
            }
            return;
        }
        eprintln!("no AVX-512 DQ here: coin_tosses is the fold, covered above");
    }

    #[test]
    fn coin_tosses_pack_first_toss_most_significant() {
        let mut rng = SplitMix64::new(21);
        let mut one_by_one = rng.clone();
        let tosses = rng.coin_tosses(128);
        for i in 0..128 {
            assert_eq!(tosses >> (127 - i) & 1 == 1, one_by_one.chance(0.5), "toss {i}");
        }
        // Nothing above the n-th bit, nothing drawn for n = 0.
        let mut rng = SplitMix64::new(22);
        assert_eq!(rng.coin_tosses(5) >> 5, 0);
        let before = rng.clone();
        assert_eq!(rng.coin_tosses(0), 0);
        assert_eq!(rng, before);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn more_tosses_than_bits_rejected() {
        SplitMix64::new(1).coin_tosses(129);
    }
}
