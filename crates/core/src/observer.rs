//! Sweep observability.
//!
//! The explorer reports per-point progress through the [`SweepObserver`]
//! trait: library callers get the silent default, `taco-cli dse` wires
//! in [`StderrProgress`] so long sweeps show what they are doing (and what
//! the evaluation cache is saving) without polluting the stdout tables.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::api::table::Wire;
use crate::evaluate::EvalReport;
use crate::table1::format_frequency;

/// Everything known about one evaluated design point, delivered to
/// [`SweepObserver::on_point`] as soon as the point finishes (completion
/// order — the *results* are index-ordered, notifications are not).
#[derive(Debug)]
pub struct PointRecord<'a> {
    /// Sweep index of this point (position in `Exploration::all`).
    pub index: usize,
    /// Total points in the sweep.
    pub total: usize,
    /// The co-analysis result.
    pub report: &'a EvalReport,
    /// `true` if the result came from the evaluation cache.
    pub cache_hit: bool,
    /// Wall time spent obtaining the result (lookup time for hits,
    /// simulation time for misses).
    pub wall: Duration,
}

/// End-of-sweep totals, delivered to [`SweepObserver::on_summary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSummary {
    /// Points evaluated (grid size).
    pub points: usize,
    /// How many of them were answered from the cache.
    pub cache_hits: usize,
    /// How many survived the designer's constraints.
    pub admitted: usize,
    /// Total sweep wall time in milliseconds.
    pub wall_ms: u128,
}

/// Receives sweep progress.  Implementations must be `Sync`: points are
/// reported concurrently from the worker pool.
pub trait SweepObserver: Sync {
    /// Called once per evaluated point, in completion order.
    fn on_point(&self, _record: &PointRecord<'_>) {}

    /// Called once after ranking, with the sweep totals.
    fn on_summary(&self, _summary: &SweepSummary) {}
}

/// The library default: observes nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct Silent;

impl SweepObserver for Silent {}

/// A progress reporter for interactive/bench use, writing one line per
/// point (and a closing summary) to **stderr**:
///
/// ```text
/// [ 7/36] cam 3BUS/1FU                  41 MHz  miss   312.4 ms
/// [ 8/36] cam 3BUS/1FU                  41 MHz  hit      0.0 ms
/// sweep: 36 points (12 cache hits), 5 admitted, 3.21 s
/// ```
///
/// Pass `verbose = true` to append each point's simulator counters as JSON
/// (the `SimStats` record) after the timing column.
#[derive(Debug, Default)]
pub struct StderrProgress {
    /// Also print the per-point `SimStats` JSON record.
    pub verbose: bool,
    points_seen: AtomicU64,
}

impl StderrProgress {
    /// A quiet per-point reporter (no JSON column).
    pub fn new() -> Self {
        StderrProgress::default()
    }

    /// A reporter that appends the `SimStats` JSON record to every line.
    pub fn verbose() -> Self {
        StderrProgress { verbose: true, points_seen: AtomicU64::new(0) }
    }

    /// Points reported so far (monotone; used by tests).
    pub fn points_seen(&self) -> u64 {
        self.points_seen.load(Ordering::Relaxed)
    }
}

impl SweepObserver for StderrProgress {
    fn on_point(&self, record: &PointRecord<'_>) {
        self.points_seen.fetch_add(1, Ordering::Relaxed);
        let wall_ms = record.wall.as_secs_f64() * 1e3;
        let outcome = if record.cache_hit { "hit " } else { "miss" };
        let width = record.total.to_string().len();
        let mut line = format!(
            "[{:>width$}/{}] {:<30} {:>10} {} {:>8.1} ms",
            record.index + 1,
            record.total,
            record.report.config.label(),
            format_frequency(record.report.required_frequency_hz),
            outcome,
            wall_ms,
        );
        if self.verbose {
            line.push_str("  ");
            record.report.stats.put(&mut line);
        }
        eprintln!("{line}");
    }

    fn on_summary(&self, summary: &SweepSummary) {
        eprintln!(
            "sweep: {} points ({} cache hits), {} admitted, {:.2} s",
            summary.points,
            summary.cache_hits,
            summary.admitted,
            summary.wall_ms as f64 / 1e3,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchConfig;
    use crate::request::EvalRequest;
    use taco_routing::TableKind;

    #[test]
    fn stderr_progress_counts_points() {
        let report =
            EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam)).entries(8).run();
        let obs = StderrProgress::verbose();
        let record = PointRecord {
            index: 0,
            total: 1,
            report: &report,
            cache_hit: false,
            wall: Duration::from_millis(5),
        };
        obs.on_point(&record);
        obs.on_summary(&SweepSummary { points: 1, cache_hits: 0, admitted: 1, wall_ms: 5 });
        assert_eq!(obs.points_seen(), 1);
    }

    #[test]
    fn silent_observer_is_a_no_op() {
        // Nothing to assert beyond "it compiles and runs": the default
        // methods must not panic on an empty summary.
        Silent.on_summary(&SweepSummary { points: 0, cache_hits: 0, admitted: 0, wall_ms: 0 });
    }
}
