//! The range rules: how much work one request may ask a runner for.

use taco_router::traffic::TrafficGen;
use taco_workload::{FaultPlan, Workload, MAX_FLOW_LEN, MAX_OFFERED};

use super::{ApiError, ConfigSpec};
use crate::arch::ArchConfig;

impl ConfigSpec {
    /// Builds the architecture instance, validating ranges (a zero bus or
    /// unit count is a structured error here, where the panicking
    /// constructors would abort a server).
    pub(super) fn to_config(self) -> Result<ArchConfig, ApiError> {
        if self.buses == 0 || self.replication == 0 || self.memory_ports == 0 {
            return Err(ApiError::bad_request(
                "config: buses, replication and memory_ports must all be >= 1",
            ));
        }
        let mut config = ArchConfig::with_replication(self.table, self.buses, self.replication);
        if self.memory_ports > 1 {
            config = config.with_memory_ports(self.memory_ports);
        }
        Ok(config)
    }
}

/// Refuses a table size no evaluation can use: zero, or more entries than
/// data memory has words (every organisation spends at least a word or a
/// CAM row per entry).  Checked where a spec is parsed, so an absurd size
/// costs a `bad_request`, not minutes of route generation on a runner.
/// `members` is the quoted wire member (or product of members) that
/// carries the size.
pub(super) fn check_entries(ctx: &str, members: &str, entries: u64) -> Result<(), ApiError> {
    const MAX: u64 = taco_sim::DEFAULT_MEMORY_WORDS as u64;
    if (1..=MAX).contains(&entries) {
        return Ok(());
    }
    Err(ApiError::bad_request(format!("{ctx}: {members} must be in 1..={MAX}, got {entries}")))
}

/// Refuses a workload descriptor that sizes more work than one request may
/// occupy a runner with: a table outside [`check_entries`]' range, or more
/// than [`MAX_OFFERED`] ticks or offered datagrams — `ticks ×` the peak
/// per-tick arrivals, or `flows ×` the longest flow the horizon admits for
/// a trace descriptor.  Checked at the wire only (a parsed `workload`
/// member, a resolved inline trace's header — `ctx` says which): in-process
/// callers, such as `taco-cli churn` at 100k prefixes, size their own runs.
/// Returns the most datagrams the workload can offer.
pub(super) fn check_workload(ctx: &str, workload: &Workload) -> Result<u64, ApiError> {
    let u = u64::from;
    let ticks = u(workload.ticks());
    // (members that size the table, the size; members that size the
    // offered budget, the most datagrams they can offer)
    let (table_members, table, budget_members, offered) = match *workload {
        Workload::SteadyForward { packets_per_tick, entries, .. }
        | Workload::TableChurn { packets_per_tick, entries, .. } => (
            "\"entries\"",
            u(entries),
            "\"ticks\" × \"packets_per_tick\"",
            ticks * u(packets_per_tick),
        ),
        Workload::BurstOverload { mean_per_tick_milli, burst_multiplier, entries, .. } => (
            "\"entries\"",
            u(entries),
            "\"ticks\" × \"mean_per_tick_milli\" × \"burst_multiplier\"",
            (mean_per_tick_milli / 1000 + TrafficGen::MAX_ARRIVAL_JITTER)
                .saturating_mul(u(burst_multiplier.max(1)))
                .saturating_mul(ticks),
        ),
        Workload::RipngConvergence {
            neighbours, routes_per_neighbour, packets_per_tick, ..
        } => (
            "\"neighbours\" × \"routes_per_neighbour\"",
            u(neighbours) * u(routes_per_neighbour),
            "\"ticks\" × \"packets_per_tick\"",
            ticks * u(packets_per_tick),
        ),
        Workload::MixedPlane {
            neighbours,
            routes_per_neighbour,
            packets_per_tick,
            burst_multiplier,
            ..
        } => (
            "\"neighbours\" × \"routes_per_neighbour\"",
            u(neighbours) * u(routes_per_neighbour),
            "\"ticks\" × \"packets_per_tick\" × \"burst_multiplier\"",
            (ticks * u(packets_per_tick)).saturating_mul(u(burst_multiplier.max(1))),
        ),
        Workload::TraceReplay { ticks, flows, entries, .. } => (
            "\"entries\"",
            u(entries),
            "\"flows\" × the longest flow \"ticks\" admits",
            u(flows) * u(ticks.min(MAX_FLOW_LEN)),
        ),
    };
    check_entries(ctx, table_members, table)?;
    if ticks > MAX_OFFERED {
        return Err(ApiError::bad_request(format!(
            "{ctx}: \"ticks\" must be at most {MAX_OFFERED}, got {ticks}"
        )));
    }
    if offered > MAX_OFFERED {
        return Err(ApiError::bad_request(format!(
            "{ctx}: {budget_members} offers up to {offered} datagrams, more than the \
             {MAX_OFFERED} one request may"
        )));
    }
    Ok(offered)
}

/// Refuses a fault plan whose injected frames take the scenario it rides
/// on past the budget [`check_workload`] holds the workload to: per tick
/// the harness parses up to `⌈malformed/1000⌉ + ⌈hop_limit_zero/1000⌉`
/// frames for the plan, on the runner, whatever the workload offers.  A
/// plan without a scenario injects no frames.
pub(super) fn check_faults(
    ctx: &str,
    scenario: Option<&Workload>,
    faults: Option<&FaultPlan>,
) -> Result<(), ApiError> {
    let (Some(workload), Some(plan)) = (scenario, faults) else { return Ok(()) };
    let offered = check_workload(ctx, workload)?;
    let per_tick = plan.malformed_per_tick_milli.div_ceil(1000)
        + plan.hop_limit_zero_per_tick_milli.div_ceil(1000);
    let frames = per_tick.saturating_mul(u64::from(workload.ticks()));
    if offered.saturating_add(frames) > MAX_OFFERED {
        return Err(ApiError::bad_request(format!(
            "{ctx}: \"faults\" injects up to {frames} frames over the {offered} datagrams the \
             scenario offers, more than the {MAX_OFFERED} one request may"
        )));
    }
    Ok(())
}
