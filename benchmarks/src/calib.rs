//! The calibration kernel: how pass times are made repeatable on a
//! machine whose speed changes under the benchmark.
//!
//! The sandbox shares its cores with other tenants: identical code runs
//! up to 1.3–1.5× slower for seconds to minutes at a time, and a 10 s run
//! may see no fast phase at all, so no statistic of raw wall time repeats
//! within the bounds (the README has the paired measurements).  Every
//! timed *pass* is therefore bracketed by runs of a fixed kernel — a few
//! tens of microseconds of dependent loads, branches and integer
//! arithmetic over a 64 KiB table — and its cost is stated in *calibrated
//! nanoseconds*: wall time × nominal kernel time ÷ the kernel time
//! measured next to it.  On a quiet machine that runs the kernel in
//! [`NOMINAL_CHUNK_NS`] a calibrated nanosecond is a nanosecond; on a
//! slowed one the slowdown cancels.  The kernel runs between passes, never
//! inside one, so the operations of a pass run back to back.  It is part
//! of the benchmark, identical on the parent and on a change, so a real
//! speed-up or regression moves the calibrated number by the same share as
//! the raw one.

use std::hint::black_box;
use std::time::Instant;

/// What one kernel run takes on the quiet reference sandbox (2.1 GHz Xeon
/// vCPU, sibling idle).  A constant, so calibrated times from different
/// runs and commits are on one scale.
pub const NOMINAL_CHUNK_NS: f64 = 39_500.0;

const TABLE_WORDS: u32 = 16_384;
const CHUNK_STEPS: u32 = 12_000;

/// A sample of the machine's speed is the median of this many kernel runs
/// at most, and of as many as fit in [`SAMPLE_SHARE`] of the interval it
/// closes: one run after a millisecond pass, all of them after a pass of
/// half a second, whose two ends are further apart.
const MAX_SAMPLE_RUNS: u64 = 25;
const SAMPLE_SHARE: f64 = 0.02;

/// Runs the kernel and remembers the latest sample.
#[derive(Debug)]
pub struct Calibrator {
    table: Vec<u32>,
    previous_ns: f64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// Builds the table and takes a first sample.
    pub fn new() -> Self {
        let table = (0..TABLE_WORDS).map(|i| i.wrapping_mul(2_654_435_761) % TABLE_WORDS).collect();
        let mut calibrator = Calibrator { table, previous_ns: NOMINAL_CHUNK_NS };
        calibrator.previous_ns = calibrator.sample(3);
        calibrator
    }

    /// One kernel run; returns its wall time in nanoseconds.
    fn chunk(&mut self) -> f64 {
        // The measured work has just evicted the table.  Sweep it back in
        // before the clock starts, so the run reports the machine's speed
        // and not how much cache the workload left behind.
        black_box(self.table.iter().fold(0u32, |acc, &word| acc ^ word));
        let started = Instant::now();
        let (mut index, mut acc) = (1u32, 0u64);
        for step in 0..CHUNK_STEPS {
            let word = self.table[index as usize];
            if word & 1 == 0 {
                acc = acc.wrapping_add(u64::from(word) * 31);
            } else {
                acc ^= u64::from(word) << 3;
            }
            index = (word ^ (acc as u32) ^ step) % TABLE_WORDS;
        }
        // Feed the result back so no run can be hoisted or folded.
        self.table[0] = black_box(acc) as u32 % TABLE_WORDS;
        (started.elapsed().as_nanos() as f64).max(1.0)
    }

    /// The median of `runs` kernel runs.
    fn sample(&mut self, runs: u64) -> f64 {
        let mut times: Vec<f64> = (0..runs.max(1)).map(|_| self.chunk()).collect();
        times.sort_unstable_by(f64::total_cmp);
        times[times.len() / 2]
    }

    /// Closes an interval of `raw_ns` wall nanoseconds that just ended:
    /// samples the kernel, and returns the interval's cost in calibrated
    /// nanoseconds against the mean of the samples on either side.
    pub fn settle(&mut self, raw_ns: u64) -> f64 {
        let runs = (raw_ns as f64 * SAMPLE_SHARE / NOMINAL_CHUNK_NS) as u64;
        let after = self.sample(runs.min(MAX_SAMPLE_RUNS));
        let cost = calibrated(raw_ns, (self.previous_ns + after) / 2.0);
        self.previous_ns = after;
        cost
    }
}

/// `raw_ns` of wall time next to a kernel sample of `chunk_ns`, in
/// calibrated nanoseconds.
pub fn calibrated(raw_ns: u64, chunk_ns: f64) -> f64 {
    raw_ns as f64 * NOMINAL_CHUNK_NS / chunk_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slowed_machine_cancels_out() {
        // At nominal speed a calibrated nanosecond is a nanosecond …
        assert_eq!(calibrated(1_000_000, NOMINAL_CHUNK_NS), 1_000_000.0);
        // … and when the work and the kernel both take 1.4x as long, the
        // cost does not move.
        let slowed = calibrated(1_400_000, NOMINAL_CHUNK_NS * 1.4);
        assert!((slowed - 1_000_000.0).abs() < 1e-6, "{slowed}");
        // A real regression of the work alone shows in full.
        assert_eq!(calibrated(1_100_000, NOMINAL_CHUNK_NS), 1_100_000.0);
    }

    /// How [`NOMINAL_CHUNK_NS`] was chosen; run with
    /// `cargo test --release --offline -- --ignored --nocapture nominal`.
    #[test]
    #[ignore = "prints a measurement, asserts nothing about speed"]
    fn nominal_chunk_time_on_this_machine() {
        let mut calibrator = Calibrator::new();
        let mut runs: Vec<f64> = (0..20_000).map(|_| calibrator.chunk()).collect();
        runs.sort_unstable_by(f64::total_cmp);
        println!(
            "kernel run: fastest {:.0} ns, p05 {:.0} ns, median {:.0} ns",
            runs[0],
            runs[runs.len() / 20],
            runs[runs.len() / 2]
        );
    }

    #[test]
    fn the_kernel_runs_and_settles() {
        let mut calibrator = Calibrator::new();
        // A short interval is closed by one kernel run, a long one by many.
        let short = calibrator.settle(1_000);
        let long = calibrator.settle(1_000_000_000);
        assert!(short.is_finite() && short > 0.0);
        assert!(long.is_finite() && long > short);
        assert!(calibrator.previous_ns > 0.0);
    }
}
