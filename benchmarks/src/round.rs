//! One workload-round: what a child process measures and reports, and
//! how the driver pools rounds into the end-to-end metrics.
//!
//! A round is its own process — set-up, warm-up, then passes until its
//! share of `--seconds` is used — so set-up time and peak memory are
//! those of a fresh process every time, and a hung daemon or livelocked
//! sweep can be killed at a deadline and counted as failed operations.

use std::time::{Duration, Instant};

use crate::calib::Calibrator;
use crate::json::Metric;
use crate::spans::Recorder;
use crate::stats::{self, Summary};
use crate::workloads;

/// What one round measured.  Travels from child to driver as text lines
/// (see [`RoundReport::to_lines`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RoundReport {
    /// Operations in one pass.
    pub ops_per_pass: u64,
    /// Simulated cycles behind the reports one pass answers.
    pub cycles_per_pass: u64,
    /// Process start → first measured pass, calibrated nanoseconds.
    pub setup_ns: u64,
    /// `VmHWM` of the child at exit.
    pub peak_rss_kib: u64,
    /// Operations attempted in the measured passes.
    pub attempted: u64,
    /// Operations that failed among them.
    pub failed: u64,
    /// Wall time of each measured pass (ungated, for the reader).
    pub pass_ns: Vec<u64>,
    /// The same passes in calibrated nanoseconds (see [`crate::calib`]) —
    /// what the gated rates are computed from.
    pub cost_ns: Vec<u64>,
}

impl RoundReport {
    /// The report of a round that never produced one (set-up failed, the
    /// child crashed or hit its deadline): one pass worth of operations,
    /// all failed.
    pub fn lost(ops_per_pass: u64) -> Self {
        let ops = ops_per_pass.max(1);
        RoundReport { ops_per_pass: ops, attempted: ops, failed: ops, ..RoundReport::default() }
    }

    /// The child's stdout: one `key value` line per scalar, then the pass
    /// times and costs, each list on one line.
    pub fn to_lines(&self) -> String {
        let list = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(" ");
        format!(
            "ops_per_pass {}\ncycles_per_pass {}\nsetup_ns {}\npeak_rss_kib {}\nattempted {}\n\
             failed {}\npass_ns {}\ncost_ns {}\n",
            self.ops_per_pass,
            self.cycles_per_pass,
            self.setup_ns,
            self.peak_rss_kib,
            self.attempted,
            self.failed,
            list(&self.pass_ns),
            list(&self.cost_ns)
        )
    }

    /// Parses [`RoundReport::to_lines`]; `None` unless every field is
    /// present and numeric and every pass has its cost (a child killed
    /// mid-write reports nothing).
    pub fn parse(text: &str) -> Option<RoundReport> {
        let mut report = RoundReport::default();
        let mut seen = 0u32;
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let slot = match key {
                "ops_per_pass" => &mut report.ops_per_pass,
                "cycles_per_pass" => &mut report.cycles_per_pass,
                "setup_ns" => &mut report.setup_ns,
                "peak_rss_kib" => &mut report.peak_rss_kib,
                "attempted" => &mut report.attempted,
                "failed" => &mut report.failed,
                "pass_ns" | "cost_ns" => {
                    let list =
                        rest.split_whitespace().map(|t| t.parse().ok()).collect::<Option<_>>()?;
                    if key == "pass_ns" {
                        report.pass_ns = list;
                    } else {
                        report.cost_ns = list;
                    }
                    seen += 1;
                    continue;
                }
                _ => continue,
            };
            *slot = rest.trim().parse().ok()?;
            seen += 1;
        }
        (seen == 8 && report.pass_ns.len() == report.cost_ns.len()).then_some(report)
    }
}

/// `VmHWM` (peak resident set) of this process in KiB; 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .unwrap_or(0)
}

/// Runs one round of `workload` in this process: set-up and warm-up, then
/// passes for `seconds` (at least one) — or, with `seconds` `None`, set-up
/// and warm-up alone, which gives the driver one more sample of set-up
/// time for the price of a process.  `process_start` is when `main` began
/// and `cal` was created right after, so set-up time covers everything a
/// user waits for before the first evaluation is timed.  The kernel runs
/// between passes, never inside one.
///
/// # Errors
///
/// A workload that cannot be set up; the driver counts the round as lost.
pub fn run_round(
    workload: &str,
    seed: u64,
    seconds: Option<f64>,
    process_start: Instant,
    mut cal: Calibrator,
) -> Result<RoundReport, String> {
    let mut bench = workloads::prepare(workload, seed)?;
    let setup_ns = cal.settle(process_start.elapsed().as_nanos() as u64) as u64;
    let mut report = RoundReport {
        ops_per_pass: bench.ops_per_pass(),
        cycles_per_pass: bench.cycles_per_pass(),
        setup_ns,
        ..RoundReport::default()
    };
    let Some(seconds) = seconds else {
        bench.finish();
        return Ok(report);
    };
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let measuring = Instant::now();
    loop {
        let pass = bench.pass(None);
        report.pass_ns.push(pass.nanos);
        report.cost_ns.push(cal.settle(pass.nanos).round() as u64);
        report.attempted += report.ops_per_pass;
        report.failed += pass.failed;
        if measuring.elapsed() >= budget {
            break;
        }
    }
    bench.finish();
    report.peak_rss_kib = peak_rss_kib();
    Ok(report)
}

/// Alternates plain and traced passes of `workload` for `seconds` (at
/// least three pairs) and returns `(plain, traced, attempted, failed)`:
/// the calibrated pass costs of each side — `run.trace_overhead_share`
/// compares them — and the operations behind them.  The traced passes
/// leave their `op.*` spans in `recorder`.
///
/// # Errors
///
/// See [`run_round`].
pub fn overhead_passes(
    workload: &str,
    seed: u64,
    seconds: f64,
    recorder: &mut Recorder,
) -> Result<(Vec<f64>, Vec<f64>, u64, u64), String> {
    let mut bench = workloads::prepare(workload, seed)?;
    let mut cal = Calibrator::new();
    let (mut plain, mut traced, mut failed) = (Vec::new(), Vec::new(), 0);
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let measuring = Instant::now();
    while plain.len() < 3 || measuring.elapsed() < budget {
        let pass = bench.pass(None);
        plain.push(cal.settle(pass.nanos));
        failed += pass.failed;
        let pass = bench.pass(Some(recorder));
        traced.push(cal.settle(pass.nanos));
        failed += pass.failed;
    }
    let attempted = bench.ops_per_pass() * (plain.len() + traced.len()) as u64;
    bench.finish();
    Ok((plain, traced, attempted, failed))
}

/// The end-to-end metrics of one workload, pooled over its rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    /// Operations attempted over all rounds.
    pub attempted: u64,
    /// Operations failed over all rounds.
    pub failed: u64,
    /// Rounds that measured passes (lost rounds and set-up-only rounds
    /// report none).
    pub rounds: usize,
    /// Set-ups timed: the measuring rounds and the set-up-only ones.
    pub setups: usize,
    /// Operations per pass.
    pub ops_per_pass: u64,
    /// Simulated cycles per pass.
    pub cycles_per_pass: u64,
    /// Pooled pass times in wall nanoseconds (ungated, for the reader).
    pub pass_ns: Summary,
    /// Pooled pass costs in calibrated nanoseconds (printed, ungated).
    pub cost_ns: Summary,
    /// The pass cost the gated rates divide by ([`stats::gated_cost`]).
    pub gated_cost_ns: f64,
    /// Median set-up time over all timed set-ups, calibrated seconds.
    pub setup_s: f64,
    /// Median peak resident set over the rounds, KiB.
    pub peak_rss_kib: f64,
}

impl EndToEnd {
    /// Pools `rounds`.  `None` when no round measured a pass — there is
    /// then no time to report, only failures.
    pub fn pool(rounds: &[RoundReport]) -> Option<EndToEnd> {
        let measured: Vec<&RoundReport> = rounds.iter().filter(|r| !r.pass_ns.is_empty()).collect();
        let first = measured.first()?;
        let mut pooled = stats::pool(measured.iter().map(|r| r.pass_ns.as_slice()));
        let mut costs = stats::pool(measured.iter().map(|r| r.cost_ns.as_slice()));
        let setups: Vec<f64> =
            rounds.iter().filter(|r| r.setup_ns > 0).map(|r| r.setup_ns as f64 / 1e9).collect();
        let peaks: Vec<f64> = measured.iter().map(|r| r.peak_rss_kib as f64).collect();
        Some(EndToEnd {
            attempted: rounds.iter().map(|r| r.attempted).sum(),
            failed: rounds.iter().map(|r| r.failed).sum(),
            rounds: measured.len(),
            setups: setups.len(),
            ops_per_pass: first.ops_per_pass,
            cycles_per_pass: first.cycles_per_pass,
            pass_ns: stats::summarize(&mut pooled)?,
            cost_ns: stats::summarize(&mut costs)?,
            gated_cost_ns: stats::gated_cost(&mut costs)?,
            setup_s: stats::median(&setups)?,
            peak_rss_kib: stats::median(&peaks)?,
        })
    }

    /// Operations per second at pass time `nanos`.
    pub fn evals_per_s(&self, nanos: f64) -> f64 {
        self.ops_per_pass as f64 * 1e9 / nanos
    }

    /// Simulated cycles per host second at pass time `nanos`.
    pub fn sim_cycles_per_s(&self, nanos: f64) -> f64 {
        self.cycles_per_pass as f64 * 1e9 / nanos
    }

    /// Failed over attempted operations.
    pub fn failed_share(&self) -> f64 {
        stats::failed_share(self.failed, self.attempted)
    }

    /// The gated metrics, in `BENCHMARK.json` order.  Rates divide by
    /// [`EndToEnd::gated_cost_ns`].
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric {
                name: "evals_per_s".into(),
                value: self.evals_per_s(self.gated_cost_ns),
                unit: "1/s",
            },
            Metric {
                name: "sim_cycles_per_s".into(),
                value: self.sim_cycles_per_s(self.gated_cost_ns),
                unit: "cycles/s",
            },
            Metric { name: "setup_s".into(), value: self.setup_s, unit: "s" },
            Metric { name: "peak_rss_kib".into(), value: self.peak_rss_kib, unit: "KiB" },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(pass_ns: Vec<u64>, setup_ns: u64, rss: u64, failed: u64) -> RoundReport {
        RoundReport {
            ops_per_pass: 12,
            cycles_per_pass: 6_000,
            setup_ns,
            peak_rss_kib: rss,
            attempted: 12 * pass_ns.len() as u64,
            failed,
            // A machine running 1.25x slower than nominal.
            cost_ns: pass_ns.iter().map(|ns| ns * 4 / 5).collect(),
            pass_ns,
        }
    }

    #[test]
    fn reports_survive_the_pipe() {
        let report = round(vec![1_500_000, 1_480_221, 1_733_004], 81_000_000, 9_812, 2);
        assert_eq!(RoundReport::parse(&report.to_lines()), Some(report));
        let empty = round(Vec::new(), 5, 6, 0);
        assert_eq!(RoundReport::parse(&empty.to_lines()), Some(empty));
    }

    #[test]
    fn truncated_or_garbled_reports_are_rejected() {
        let text = round(vec![1, 2, 3], 4, 5, 0).to_lines();
        let cut = &text[..text.find("pass_ns").unwrap()];
        assert_eq!(RoundReport::parse(cut), None);
        assert_eq!(RoundReport::parse(&text.replace("setup_ns 4", "setup_ns x")), None);
        assert_eq!(RoundReport::parse(&text.replace("pass_ns 1 2 3", "pass_ns 1 two 3")), None);
        assert_eq!(RoundReport::parse(&text.replace("pass_ns 1 2 3", "pass_ns 1 2")), None);
        assert_eq!(RoundReport::parse(""), None);
    }

    #[test]
    fn rounds_pool_passes_and_take_medians_of_scalars() {
        let rounds = [
            round(vec![2_000_000, 2_100_000], 90_000_000, 10_000, 0),
            round(vec![1_000_000, 1_200_000], 70_000_000, 10_400, 1),
            round(vec![1_500_000], 80_000_000, 10_200, 0),
        ];
        let e2e = EndToEnd::pool(&rounds).unwrap();
        assert_eq!(e2e.rounds, 3);
        assert_eq!(e2e.pass_ns.samples, 5);
        // Fewer than 40 passes: the fastest pass of any round is the p05.
        assert_eq!(e2e.pass_ns.p05, 1_000_000.0);
        assert_eq!(e2e.pass_ns.median, 1_500_000.0);
        assert_eq!(e2e.setup_s, 0.08);
        assert_eq!(e2e.peak_rss_kib, 10_200.0);
        assert_eq!((e2e.attempted, e2e.failed), (60, 1));
        assert_eq!(e2e.failed_share(), 1.0 / 60.0);
        let metrics = e2e.metrics();
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["evals_per_s", "sim_cycles_per_s", "setup_s", "peak_rss_kib"]);
        // The gated rates come from the calibrated costs: with five
        // passes their lower quartile, the second fastest.
        assert_eq!(e2e.gated_cost_ns, 960_000.0);
        assert_eq!(metrics[0].value, 12_500.0);
        assert_eq!(metrics[1].value, 6_250_000.0);
    }

    #[test]
    fn set_up_only_rounds_add_set_up_samples_and_nothing_else() {
        let set_up_only =
            |setup_ns| RoundReport { ops_per_pass: 12, setup_ns, ..RoundReport::default() };
        assert_eq!(RoundReport::parse(&set_up_only(5).to_lines()), Some(set_up_only(5)));
        let rounds = [
            round(vec![1_000_000], 90_000_000, 10_000, 0),
            set_up_only(50_000_000),
            set_up_only(60_000_000),
        ];
        let e2e = EndToEnd::pool(&rounds).unwrap();
        assert_eq!((e2e.rounds, e2e.setups), (1, 3));
        assert_eq!(e2e.setup_s, 0.06);
        assert_eq!(e2e.peak_rss_kib, 10_000.0);
        assert_eq!((e2e.attempted, e2e.pass_ns.samples), (12, 1));
    }

    #[test]
    fn lost_rounds_count_as_failed_operations_and_no_time() {
        let rounds = [RoundReport::lost(12), round(vec![1_000], 10, 20, 0)];
        let e2e = EndToEnd::pool(&rounds).unwrap();
        assert_eq!((e2e.rounds, e2e.setups, e2e.attempted, e2e.failed), (1, 1, 24, 12));
        assert_eq!(e2e.failed_share(), 0.5);
        assert_eq!(EndToEnd::pool(&[RoundReport::lost(0)]), None);
        assert_eq!(RoundReport::lost(0).attempted, 1);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_kib() > 0);
    }
}
