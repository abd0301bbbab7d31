//! The physical-estimation model is monotone where the paper's co-analysis
//! needs it to be: more clock or more machine never costs less, and
//! feasibility is a threshold on the clock (seeded; see `common/mod.rs`).

mod common;

use common::{cases, SplitMix64};
use taco::estimate::Estimator;
use taco::isa::{FuKind, MachineConfig};

const SEED: u64 = 0xE571_0001;
const CASES: u64 = 256;

/// 1–4 buses, every replicable unit 1–3 times.
fn machine(rng: &mut SplitMix64) -> MachineConfig {
    let mut m = MachineConfig::new(rng.range_inclusive(1, 4) as u8);
    let replication = rng.range_inclusive(1, 3) as u8;
    if replication > 1 {
        for kind in FuKind::REPLICABLE {
            m = m.with_fu_count(kind, replication);
        }
    }
    m
}

/// A uniform clock in `lo..hi` hertz.
fn hertz(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

#[test]
fn power_and_area_are_monotone_in_frequency() {
    cases(SEED, CASES, |rng| {
        let config = machine(rng);
        let f_lo = hertz(rng, 1e6, 5e8);
        let f_hi = f_lo + hertz(rng, 1e6, 4e8);
        let est = Estimator::new();
        let lo = est.estimate(&config, f_lo).feasible().cloned().expect("below the ceiling");
        let hi = est.estimate(&config, f_hi).feasible().cloned().expect("below the ceiling");
        assert!(hi.power_w > lo.power_w, "{config} at {f_lo} vs {f_hi}");
        assert!(hi.area_mm2 >= lo.area_mm2, "{config} at {f_lo} vs {f_hi}");
        assert!(hi.sizing_factor >= lo.sizing_factor, "{config} at {f_lo} vs {f_hi}");
    });
}

#[test]
fn bigger_machines_cost_more() {
    cases(SEED, CASES, |rng| {
        let buses = rng.range_inclusive(1, 3) as u8;
        let f = hertz(rng, 1e7, 8e8);
        let est = Estimator::new();
        let small =
            est.estimate(&MachineConfig::new(buses), f).feasible().cloned().expect("feasible");
        let big = MachineConfig::new(buses + 1).with_fu_count(FuKind::Matcher, 3);
        let big = est.estimate(&big, f).feasible().cloned().expect("feasible");
        assert!(big.area_mm2 > small.area_mm2, "{buses} buses at {f}");
        assert!(big.power_w > small.power_w, "{buses} buses at {f}");
    });
}

#[test]
fn feasibility_is_a_threshold() {
    cases(SEED, CASES, |rng| {
        let config = machine(rng);
        let est = Estimator::new();
        // Half the draws sit within a percent of the ceiling, where an
        // off-by-one in the comparison would hide from a uniform draw.
        let ceiling = est.max_frequency_hz();
        let f = if rng.chance(0.5) {
            hertz(rng, 0.99 * ceiling, 1.01 * ceiling)
        } else {
            hertz(rng, 1e6, 4e9)
        };
        assert_eq!(est.estimate(&config, f).is_feasible(), f < ceiling, "{config} at {f}");
    });
}
