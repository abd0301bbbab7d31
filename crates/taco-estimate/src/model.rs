//! The estimation model: configuration + target frequency → area, power,
//! feasibility.

use std::fmt;

use taco_isa::MachineConfig;

use crate::gates::total_gates;
use crate::tech::Technology;

/// An external CAM + SRAM chip pair accompanying the processor (the paper's
/// third routing-table case).
///
/// The paper's Table 1 explicitly *excludes* the CAM chip from the
/// processor's area/power cells but discusses it in the text ("the Micron
/// Harmony 1 Mb CAM consumes the average power of 1.5 to 2 Watts"), so the
/// estimate carries it separately.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExternalCam {
    /// Average chip power, watts.
    pub avg_power_w: f64,
    /// Package footprint, mm² (board area, not die area).
    pub footprint_mm2: f64,
}

impl ExternalCam {
    /// The Micron Harmony-class part used in the paper.
    pub fn micron_harmony() -> Self {
        ExternalCam { avg_power_w: 1.75, footprint_mm2: 484.0 }
    }
}

/// A feasible physical estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalEstimate {
    /// The clock this estimate was made for, Hz.
    pub freq_hz: f64,
    /// Logic gates after sizing (NAND2 equivalents).
    pub sized_gates: f64,
    /// The sizing inflation applied (1.0 = minimum drive).
    pub sizing_factor: f64,
    /// Processor die area, mm² (logic + on-chip SRAM).
    pub area_mm2: f64,
    /// Average processor power, watts.
    pub power_w: f64,
    /// External CAM accompanying the processor, if any.
    pub cam: Option<ExternalCam>,
}

impl PhysicalEstimate {
    /// Processor power plus the external CAM's, the quantity behind the
    /// paper's remark that "the total power consumed when using a CAM …
    /// is approximately the same as when using only a TACO processor".
    pub fn total_power_w(&self) -> f64 {
        self.power_w + self.cam.map_or(0.0, |c| c.avg_power_w)
    }
}

impl fmt::Display for PhysicalEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0} MHz: {:.2} mm2, {:.3} W",
            self.freq_hz / 1e6,
            self.area_mm2,
            self.power_w
        )?;
        if let Some(cam) = self.cam {
            write!(f, " (+ CAM {:.2} W)", cam.avg_power_w)?;
        }
        Ok(())
    }
}

/// Result of asking for an estimate at a target frequency.
#[derive(Debug, Clone, PartialEq)]
pub enum Estimate {
    /// The frequency is achievable; here are the numbers.
    Feasible(PhysicalEstimate),
    /// The frequency exceeds the technology — Table 1's "NA".
    Infeasible {
        /// The requested clock, Hz.
        required_hz: f64,
        /// The node's ceiling, Hz.
        achievable_hz: f64,
    },
}

impl Estimate {
    /// The estimate if feasible.
    pub fn feasible(&self) -> Option<&PhysicalEstimate> {
        match self {
            Estimate::Feasible(e) => Some(e),
            Estimate::Infeasible { .. } => None,
        }
    }

    /// Returns `true` for [`Estimate::Feasible`].
    pub fn is_feasible(&self) -> bool {
        matches!(self, Estimate::Feasible(_))
    }
}

impl fmt::Display for Estimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Estimate::Feasible(e) => e.fmt(f),
            Estimate::Infeasible { required_hz, achievable_hz } => write!(
                f,
                "NA ({:.0} MHz exceeds the {:.0} MHz ceiling)",
                required_hz / 1e6,
                achievable_hz / 1e6
            ),
        }
    }
}

/// On-chip buffer SRAM in KiB: the datagram memory of the paper's router.
const SRAM_KIB: f64 = 32.0;

/// The system-level physical estimator (the paper's Matlab model).
///
/// # Examples
///
/// ```
/// use taco_estimate::Estimator;
/// use taco_isa::MachineConfig;
///
/// let est = Estimator::new();
/// let config = MachineConfig::three_bus_three_fu();
/// // 250 MHz (the balanced-tree row): comfortably feasible.
/// let e = est.estimate(&config, 250e6);
/// assert!(e.is_feasible());
/// // 2 GHz (the sequential 3-bus row): NA on 0.18 µm.
/// assert!(!est.estimate(&config, 2e9).is_feasible());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Estimator {
    tech: Technology,
    /// Program-store image size in bits (0 = not modelled).
    program_bits: u64,
    cam: Option<ExternalCam>,
}

impl Estimator {
    /// An estimator for the paper's 0.18 µm node with a 32 KiB datagram
    /// buffer and no external CAM.
    pub fn new() -> Self {
        Estimator { tech: Technology::cmos_180nm(), program_bits: 0, cam: None }
    }

    /// Replaces the technology profile.
    pub fn with_technology(mut self, tech: Technology) -> Self {
        self.tech = tech;
        self
    }

    /// Sets the program-store image size in bits (from
    /// `taco_isa::encode`), adding its area to the estimate.
    pub fn with_program_bits(mut self, bits: u64) -> Self {
        self.program_bits = bits;
        self
    }

    /// Attaches an external CAM chip to the estimate.
    pub fn with_cam(mut self, cam: ExternalCam) -> Self {
        self.cam = Some(cam);
        self
    }

    /// The highest clock this estimator will call feasible.
    pub fn max_frequency_hz(&self) -> f64 {
        self.tech.max_freq_hz
    }

    /// Estimates area and power for `config` clocked at `freq_hz`.
    ///
    /// Frequencies at or above the technology ceiling return
    /// [`Estimate::Infeasible`] — the paper's "NA (not available) indicates
    /// an architecture that was not estimated due to its high clock
    /// frequency requirement".
    pub fn estimate(&self, config: &MachineConfig, freq_hz: f64) -> Estimate {
        let Some(sizing) = self.tech.sizing_factor(freq_hz) else {
            return Estimate::Infeasible {
                required_hz: freq_hz,
                achievable_hz: self.tech.max_freq_hz,
            };
        };
        let gates = f64::from(total_gates(config));
        let sized_gates = gates * sizing;

        let logic_area = sized_gates * self.tech.gate_area_mm2;
        let sram_area = SRAM_KIB * self.tech.sram_mm2_per_kib;
        let rom_area = self.program_bits as f64 / (8.0 * 1024.0) * self.tech.rom_mm2_per_kib;
        let area_mm2 = logic_area + sram_area + rom_area;

        let vdd2 = self.tech.vdd * self.tech.vdd;
        let logic_cap = sized_gates * self.tech.cap_per_gate_f * self.tech.activity;
        let sram_cap = SRAM_KIB * self.tech.sram_cap_per_kib_f;
        let power_w = (logic_cap + sram_cap) * vdd2 * freq_hz;

        Estimate::Feasible(PhysicalEstimate {
            freq_hz,
            sized_gates,
            sizing_factor: sizing,
            area_mm2,
            power_w,
            cam: self.cam,
        })
    }
}

impl Default for Estimator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MachineConfig {
        MachineConfig::three_bus_three_fu()
    }

    #[test]
    fn na_pattern_matches_table1() {
        let est = Estimator::new();
        // The paper's NA cells.
        for f in [6.0e9, 2.0e9, 1.2e9] {
            assert!(!est.estimate(&config(), f).is_feasible(), "{f}");
        }
        // The estimated cells.
        for f in [1.0e9, 600e6, 250e6, 118e6, 40e6, 35e6] {
            assert!(est.estimate(&config(), f).is_feasible(), "{f}");
        }
    }

    #[test]
    fn power_grows_superlinearly_near_ceiling() {
        let est = Estimator::new();
        let p250 = est.estimate(&config(), 250e6).feasible().unwrap().power_w;
        let p1000 = est.estimate(&config(), 1000e6).feasible().unwrap().power_w;
        // 4× the clock must cost much more than 4× the power (gate sizing).
        assert!(p1000 > 8.0 * p250, "p250={p250} p1000={p1000}");
    }

    #[test]
    fn one_ghz_power_is_not_acceptable() {
        // The paper: at ~1 GHz "the average power consumed by the
        // architecture is not acceptable".  Our calibration should land in
        // whole watts there and tens of milliwatts for the CAM rows.
        let est = Estimator::new();
        let hot = est.estimate(&config(), 1.0e9).feasible().unwrap().power_w;
        let cool = est.estimate(&config(), 35e6).feasible().unwrap().power_w;
        assert!(hot > 1.0, "1 GHz should be in watts: {hot}");
        assert!(cool < 0.1, "35 MHz should be tens of mW: {cool}");
    }

    #[test]
    fn area_grows_with_fu_count_and_frequency() {
        let est = Estimator::new();
        let small =
            est.estimate(&MachineConfig::one_bus_one_fu(), 500e6).feasible().unwrap().area_mm2;
        let wide = est.estimate(&config(), 500e6).feasible().unwrap().area_mm2;
        assert!(wide > small);
        let fast = est.estimate(&config(), 1.0e9).feasible().unwrap().area_mm2;
        assert!(fast > wide);
    }

    #[test]
    fn cam_accounted_separately() {
        let est = Estimator::new().with_cam(ExternalCam::micron_harmony());
        let e = est.estimate(&config(), 35e6).feasible().unwrap().clone();
        assert_eq!(e.cam.unwrap(), ExternalCam::micron_harmony());
        // The CAM dominates total power at CAM-row clock speeds, which is
        // the paper's point about total power parity.
        assert!(e.total_power_w() > 1.5);
        assert!(e.power_w < 0.2);
    }

    #[test]
    fn estimate_display_forms() {
        let est = Estimator::new();
        assert!(est.estimate(&config(), 250e6).to_string().contains("mm2"));
        assert!(est.estimate(&config(), 6e9).to_string().contains("NA"));
    }

    #[test]
    fn program_store_adds_area() {
        let without = Estimator::new().estimate(&config(), 100e6);
        let with = Estimator::new().with_program_bits(64 * 1024 * 8).estimate(&config(), 100e6);
        let delta = with.feasible().unwrap().area_mm2 - without.feasible().unwrap().area_mm2;
        assert!((delta - 64.0 * 0.03).abs() < 1e-9, "{delta}");
    }

    #[test]
    fn the_datagram_buffer_adds_its_area() {
        let free = Technology { sram_mm2_per_kib: 0.0, ..Technology::cmos_180nm() };
        let without = Estimator::new().with_technology(free).estimate(&config(), 100e6);
        let with = Estimator::new().estimate(&config(), 100e6);
        let delta = with.feasible().unwrap().area_mm2 - without.feasible().unwrap().area_mm2;
        assert!((delta - SRAM_KIB * 0.05).abs() < 1e-9, "{delta}");
    }

    // The monotonicity and threshold properties of this model over random
    // machines and clocks are the root package's
    // `tests/estimate_properties.rs`.

    #[test]
    fn newer_technology_unlocks_higher_clocks() {
        let old = Estimator::new();
        let new = Estimator::new().with_technology(Technology::cmos_130nm());
        assert!(!old.estimate(&config(), 1.2e9).is_feasible());
        assert!(new.estimate(&config(), 1.2e9).is_feasible());
    }
}
