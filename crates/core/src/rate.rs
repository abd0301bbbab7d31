//! Line-rate arithmetic.
//!
//! Table 1's "required speed" column is `cycles-per-datagram ×
//! datagrams-per-second`; this module supplies the second factor.  The
//! paper states the 10 Gbps target but not its traffic assumption, so the
//! packet size is an explicit, documented parameter — the *ratios* between
//! configurations are independent of it.

use std::fmt;

/// A line-rate target: bit rate plus the per-packet wire footprint used to
/// convert it into a packet rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineRate {
    /// Offered load in bits per second.
    pub bits_per_second: f64,
    /// Average bytes one packet occupies on the wire, including link-layer
    /// framing overhead.
    pub packet_bytes: u32,
}

impl LineRate {
    /// The paper's target: 10 Gbps Ethernet, assuming ~1 KiB average
    /// packets (1000 B IPv6 datagram + Ethernet framing).  The paper does
    /// not state a packet size; see `EXPERIMENTS.md` for the sensitivity
    /// discussion.
    pub const TEN_GBE: LineRate = LineRate { bits_per_second: 10e9, packet_bytes: 1040 };

    /// 1 Gbps Ethernet with the same packet assumption.
    pub const GIGE: LineRate = LineRate { bits_per_second: 1e9, packet_bytes: 1040 };

    /// 10 GbE at minimum-size frames (84 bytes on the wire = 14.88 Mpps) —
    /// the adversarial worst case.
    pub const TEN_GBE_MIN_FRAMES: LineRate = LineRate { bits_per_second: 10e9, packet_bytes: 84 };

    /// Creates a custom line rate.
    ///
    /// # Panics
    ///
    /// Panics if `packet_bytes` is zero, or if `bits_per_second` is not a
    /// positive *normal* float — `NaN`, infinities and subnormals all pass
    /// a bare `> 0.0` test (`NaN` by making it false, the others by making
    /// it true) and would poison every downstream frequency figure.
    pub fn new(bits_per_second: f64, packet_bytes: u32) -> Self {
        assert!(
            bits_per_second.is_normal() && bits_per_second > 0.0,
            "rate must be positive and finite"
        );
        assert!(packet_bytes > 0, "packet size must be positive");
        LineRate { bits_per_second, packet_bytes }
    }

    /// Packets per second at this rate.
    pub(crate) fn packets_per_second(&self) -> f64 {
        self.bits_per_second / (8.0 * f64::from(self.packet_bytes))
    }

    /// The clock frequency needed to spend `cycles_per_packet` on every
    /// packet at line rate.
    pub fn required_frequency_hz(&self, cycles_per_packet: f64) -> f64 {
        cycles_per_packet * self.packets_per_second()
    }
}

impl fmt::Display for LineRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} Gbps @ {} B/pkt ({:.2} Mpps)",
            self.bits_per_second / 1e9,
            self.packet_bytes,
            self.packets_per_second() / 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_gbe_packet_rate() {
        let pps = LineRate::TEN_GBE.packets_per_second();
        assert!((pps - 1.202e6).abs() < 1e4, "{pps}");
        let min = LineRate::TEN_GBE_MIN_FRAMES.packets_per_second();
        assert!((min - 14.88e6).abs() < 0.01e6, "{min}");
    }

    #[test]
    fn required_frequency_scales_linearly() {
        let r = LineRate::TEN_GBE;
        let f1 = r.required_frequency_hz(100.0);
        let f2 = r.required_frequency_hz(200.0);
        assert!((f2 / f1 - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = LineRate::new(0.0, 100);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn infinite_rate_rejected() {
        // Regression: `INFINITY > 0.0` is true, so the old check admitted
        // an infinite rate and every derived frequency became infinite.
        let _ = LineRate::new(f64::INFINITY, 100);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nan_rate_rejected() {
        let _ = LineRate::new(f64::NAN, 100);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn subnormal_rate_rejected() {
        // Subnormals are > 0.0 but carry almost no precision; reject them
        // with the rest of the degenerate floats.
        let _ = LineRate::new(f64::MIN_POSITIVE / 2.0, 100);
    }

    #[test]
    fn ordinary_rates_still_accepted() {
        let r = LineRate::new(10e9, 1040);
        assert_eq!(r, LineRate::TEN_GBE);
    }

    #[test]
    fn display_mentions_mpps() {
        assert!(LineRate::TEN_GBE.to_string().contains("Mpps"));
    }
}
