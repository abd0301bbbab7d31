//! Exact order statistics over pooled samples.
//!
//! Every sample set is summarised by three nearest-rank statistics: the
//! p05 (the fastest sample when fewer than [`MIN_FOR_P05`] exist), the
//! median and the p95.  The gated rates divide by the **p05** of the
//! pooled calibrated pass costs ([`gated_cost`]); the per-layer times of
//! the traced run, which are raw wall time, report their p05 too.  The
//! machine disturbs a run in two ways: phases in which everything runs
//! slower, which calibration cancels, and bursts that delay some passes
//! and spare others, which the low tail of enough samples steps over (the
//! README records the measurements).  Samples are sorted exactly — never
//! bucketed the way `taco_workload::LatencyHistogram` does.

/// Below this many samples the 5th percentile is not resolved (fewer than
/// two samples lie beyond it), so the fastest sample stands in.
pub const MIN_FOR_P05: usize = 40;

/// The three order statistics reported for one pooled sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples pooled.
    pub samples: usize,
    /// Nearest-rank 5th percentile, or the minimum with fewer than
    /// [`MIN_FOR_P05`] samples.
    pub p05: f64,
    /// Nearest-rank 50th percentile.
    pub median: f64,
    /// Nearest-rank 95th percentile.
    pub p95: f64,
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` and summarises them; `None` when
/// there are none (or one is not a number).
pub fn summarize(samples: &mut [f64]) -> Option<Summary> {
    if samples.is_empty() || samples.iter().any(|s| s.is_nan()) {
        return None;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let p05 = if samples.len() < MIN_FOR_P05 { samples[0] } else { nearest_rank(samples, 5.0) };
    Some(Summary {
        samples: samples.len(),
        p05,
        median: nearest_rank(samples, 50.0),
        p95: nearest_rank(samples, 95.0),
    })
}

/// The pass cost the gated rates divide by: the p05 of the calibrated
/// `costs`, or their lower quartile when fewer than [`MIN_FOR_P05`] exist.
/// The fastest of a few calibrated samples will not do there: a kernel
/// sample that was itself disturbed makes one pass look cheap, and the
/// minimum finds that pass (README, "The timing rule").
pub fn gated_cost(costs: &mut [f64]) -> Option<f64> {
    let summary = summarize(costs)?;
    Some(if summary.samples < MIN_FOR_P05 { nearest_rank(costs, 25.0) } else { summary.p05 })
}

/// Pools the per-round sample lists of one workload into one list, in
/// round order.
pub fn pool<'a>(rounds: impl IntoIterator<Item = &'a [u64]>) -> Vec<f64> {
    rounds.into_iter().flatten().map(|&ns| ns as f64).collect()
}

/// Nearest-rank median of per-round scalars (set-up time, peak memory).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    summarize(&mut sorted).map(|s| s.median)
}

/// Operations that failed over operations attempted; an empty run failed
/// entirely.
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        return 1.0;
    }
    failed as f64 / attempted as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fewer_than_forty_samples_report_the_fastest() {
        let mut samples: Vec<f64> = (1..=39).rev().map(f64::from).collect();
        let s = summarize(&mut samples).unwrap();
        assert_eq!(s.samples, 39);
        assert_eq!(s.p05, 1.0);
        assert_eq!(s.median, 20.0);
        assert_eq!(s.p95, 38.0);
    }

    #[test]
    fn forty_samples_switch_to_the_nearest_rank_p05() {
        let mut samples: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = summarize(&mut samples).unwrap();
        // ceil(0.05 * 40) = 2: one sample lies strictly below the p05.
        assert_eq!(s.p05, 2.0);
        assert_eq!(s.median, 20.0);
        assert_eq!(s.p95, 38.0);
        let mut hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = summarize(&mut hundred).unwrap();
        assert_eq!((s.p05, s.median, s.p95), (5.0, 50.0, 95.0));
    }

    #[test]
    fn a_single_sample_is_all_three_statistics() {
        let s = summarize(&mut [7.5]).unwrap();
        assert_eq!((s.samples, s.p05, s.median, s.p95), (1, 7.5, 7.5, 7.5));
    }

    #[test]
    fn nothing_or_nan_summarises_to_none() {
        assert_eq!(summarize(&mut []), None);
        assert_eq!(summarize(&mut [1.0, f64::NAN]), None);
    }

    #[test]
    fn pooling_concatenates_rounds_before_ranking() {
        // Round 0 ran in a slow phase, round 1 in a fast one: the pooled
        // p05 comes from the fast round, no per-round statistic is mixed.
        let slow: Vec<u64> = (0..30).map(|i| 2_000 + i).collect();
        let fast: Vec<u64> = (0..30).map(|i| 1_000 + i).collect();
        let mut pooled = pool([slow.as_slice(), fast.as_slice()]);
        assert_eq!(pooled.len(), 60);
        assert_eq!(pooled[0], 2_000.0);
        let s = summarize(&mut pooled).unwrap();
        assert_eq!(s.p05, 1_002.0); // ceil(0.05 * 60) = 3rd fastest
        assert_eq!(s.median, 1_029.0);
    }

    #[test]
    fn few_calibrated_costs_are_gated_on_their_lower_quartile() {
        // Sixteen passes, one of them made cheap by a disturbed kernel
        // sample: the quartile (4th fastest) steps over it.
        let mut few: Vec<f64> =
            (1..=16).rev().map(|i| if i == 1 { 0.1 } else { f64::from(i) }).collect();
        assert_eq!(gated_cost(&mut few), Some(4.0));
        let mut many: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(gated_cost(&mut many), Some(5.0));
        assert_eq!(gated_cost(&mut []), None);
    }

    #[test]
    fn median_of_rounds_is_nearest_rank() {
        assert_eq!(median(&[0.5, 0.1, 0.3, 0.2, 0.4]), Some(0.3));
        assert_eq!(median(&[4.0, 1.0]), Some(1.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn failed_share_arithmetic() {
        assert_eq!(failed_share(0, 9_600), 0.0);
        assert_eq!(failed_share(12, 9_600), 0.00125);
        assert_eq!(failed_share(5, 5), 1.0);
        assert_eq!(failed_share(0, 0), 1.0);
    }
}
