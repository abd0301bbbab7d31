//! Technology profiles: the standard-cell parameters estimates scale with.
//!
//! The paper's estimates target "the 0.18 µm standard cell library that we
//! currently use", for which "the upper limit for TACO clock frequencies
//! ... is near 1 GHz".  [`Technology::cmos_180nm`] encodes that profile;
//! other nodes can be described for what-if exploration.

/// Parameters of one standard-cell technology.
///
/// All values are first-order calibration constants, not foundry data: the
/// goal is to reproduce the *behaviour* of the paper's estimation flow
/// (which frequencies are achievable, how power and area blow up near the
/// ceiling), not sign-off numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    /// Human-readable node name (e.g. `"0.18um"`).
    pub name: &'static str,
    /// Highest achievable clock for a TACO-class datapath, Hz.
    pub max_freq_hz: f64,
    /// Area of one NAND2-equivalent gate at minimum drive, mm².
    pub gate_area_mm2: f64,
    /// Switched capacitance per gate, farads.
    pub cap_per_gate_f: f64,
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Average switching activity factor (fraction of gates toggling per
    /// cycle).
    pub activity: f64,
    /// On-chip SRAM density, mm² per KiB.
    pub sram_mm2_per_kib: f64,
    /// Extra switched capacitance per KiB of SRAM, farads (models the
    /// bit-line energy of one access per cycle, amortised).
    pub sram_cap_per_kib_f: f64,
    /// Program-store density, mm² per KiB (instruction fetch is read-only
    /// and single-ported, so it packs denser than the data SRAM).
    pub rom_mm2_per_kib: f64,
}

impl Technology {
    /// The paper's 0.18 µm standard-cell profile: ceiling a little above
    /// 1 GHz (so the paper's "vicinity of 1 GHz" configuration is possible
    /// while 1.2 GHz and up report *not available*), 1.8 V supply.
    pub fn cmos_180nm() -> Self {
        Technology {
            name: "0.18um",
            max_freq_hz: 1.05e9,
            gate_area_mm2: 12.0e-6,
            cap_per_gate_f: 5.0e-15,
            vdd: 1.8,
            activity: 0.15,
            sram_mm2_per_kib: 0.05,
            sram_cap_per_kib_f: 60.0e-15,
            rom_mm2_per_kib: 0.03,
        }
    }

    /// A hypothetical 0.13 µm shrink, for exploration beyond the paper:
    /// ~1.6× the clock ceiling at ~55% of the area and 1.2 V supply.
    pub fn cmos_130nm() -> Self {
        Technology {
            name: "0.13um",
            max_freq_hz: 1.7e9,
            gate_area_mm2: 6.5e-6,
            cap_per_gate_f: 3.0e-15,
            vdd: 1.2,
            activity: 0.15,
            sram_mm2_per_kib: 0.028,
            sram_cap_per_kib_f: 40.0e-15,
            rom_mm2_per_kib: 0.017,
        }
    }

    /// The gate-sizing inflation factor needed to close timing at `freq_hz`.
    ///
    /// Approaching the node's ceiling requires progressively larger drive
    /// strengths; we model the blow-up as `1 / (1 - (f/f_max)²)`, which is 1
    /// at DC and diverges at the ceiling — reproducing the paper's
    /// observation that "larger gate sizes had to be used in order to reach
    /// the 1 GHz clock speed", with unacceptable power as the consequence.
    ///
    /// Returns `None` when `freq_hz` is at or above the ceiling (Table 1's
    /// "NA" entries).
    pub(crate) fn sizing_factor(&self, freq_hz: f64) -> Option<f64> {
        if !(0.0..self.max_freq_hz).contains(&freq_hz) {
            return None;
        }
        let x = freq_hz / self.max_freq_hz;
        Some(1.0 / (1.0 - x * x))
    }
}

impl Default for Technology {
    fn default() -> Self {
        Self::cmos_180nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_node_ceiling() {
        let t = Technology::cmos_180nm();
        assert!(t.sizing_factor(1.0e9).is_some()); // "vicinity of 1 GHz": possible
        assert!(t.sizing_factor(1.2e9).is_none()); // balanced tree 1-bus: NA
        assert!(t.sizing_factor(2.0e9).is_none()); // sequential 3-bus: NA
        assert!(t.sizing_factor(6.0e9).is_none()); // sequential 1-bus: NA
    }

    #[test]
    fn sizing_grows_monotonically() {
        let t = Technology::cmos_180nm();
        let s100 = t.sizing_factor(100e6).unwrap();
        let s500 = t.sizing_factor(500e6).unwrap();
        let s1000 = t.sizing_factor(1000e6).unwrap();
        assert!(s100 < s500 && s500 < s1000);
        assert!(s100 < 1.02, "low frequencies cost almost nothing: {s100}");
        assert!(s1000 > 5.0, "near-ceiling sizing must hurt: {s1000}");
    }

    #[test]
    fn sizing_at_dc_is_one() {
        let t = Technology::default();
        assert!((t.sizing_factor(0.0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn negative_and_ceiling_rejected() {
        let t = Technology::default();
        assert!(t.sizing_factor(-1.0).is_none());
        assert!(t.sizing_factor(t.max_freq_hz).is_none());
    }

    #[test]
    fn newer_node_is_faster_and_denser() {
        let old = Technology::cmos_180nm();
        let new = Technology::cmos_130nm();
        assert!(new.max_freq_hz > old.max_freq_hz);
        assert!(new.gate_area_mm2 < old.gate_area_mm2);
    }
}
