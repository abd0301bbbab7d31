//! Wire form of [`EvalReport`]: byte-stable serialisation plus the strict
//! inverse parse.
//!
//! Serialisation embeds the existing all-integer `to_json()` records
//! ([`SimStats::to_json`], [`ScenarioMetrics::to_json`]) wholesale, so a
//! report on the wire is byte-identical to what the sweep observers have
//! always logged.  Parsing reconstructs the full report, consuming —
//! without re-deriving — the derived fields those records carry
//! (`bus_utilization` inside stats, percentile bounds inside histograms);
//! re-serialising a parsed report regenerates them from the same integers,
//! so the round trip is the identity.
//!
//! One asymmetry is deliberate: a report carrying a
//! [`sim_error`](EvalReport::sim_error) serialises (sweeps must be able to
//! say why a point died) but does **not** parse back — the error type owns
//! simulator internals (FU references, port names) that have no wire
//! schema, so such reports are one-way.

use std::collections::BTreeMap;

use taco_estimate::{Estimate, ExternalCam, PhysicalEstimate};
use taco_isa::{FuKind, FuRef};
use taco_sim::{SimError, SimStats};
use taco_workload::{
    FaultMetrics, FlowStats, LatencyHistogram, ScenarioMetrics, Workload, LATENCY_BUCKETS,
};

use super::json::{encode_str, Json};
use super::table::{get_member, must, put_member, record, Bound, Record, Wire};
use super::{ApiError, Fields};
use crate::evaluate::EvalReport;

/// One golden-fixture cell line for `report` — exactly the format pinned
/// by `crates/core/tests/golden/table1.json` (label, min frequency, bus
/// utilisation, area and power; `null` area/power for infeasible cells),
/// and the `cell` member of an `eval_result`, so the daemon's responses can
/// be compared byte-for-byte against the fixture.  Written only: nothing
/// reads a cell back, so it has no table.
pub fn table1_cell_json(report: &EvalReport) -> String {
    let feasible = report.estimate.feasible();
    let mut line = String::from("{");
    put_member(&report.config.label(), "label", &mut line);
    put_member(&Bound(report.required_frequency_hz), "min_freq_hz", &mut line);
    put_member(&Bound(report.bus_utilization), "bus_utilization", &mut line);
    put_member(&feasible.map(|e| e.area_mm2), "area_mm2", &mut line);
    put_member(&feasible.map(|e| e.power_w), "power_w", &mut line);
    line.push('}');
    line
}

record!(ExternalCam as "estimate cam" { avg_power_w, footprint_mm2, });

record!(PhysicalEstimate as "estimate" {
    freq_hz, sized_gates, sizing_factor, area_mm2, power_w, cam [or None],
});

record!(Estimate as "estimate" by "feasible" {
    true => Self::Feasible { estimate in 0: Flat, },
    false => Self::Infeasible { required_hz: Bound, achievable_hz, },
} else |ctx, _| must(ctx, "feasible", "be a boolean"));

fn fu_kind_by_name(name: &str) -> Result<FuKind, ApiError> {
    FuKind::ALL
        .into_iter()
        .find(|k| format!("{k}") == name)
        .ok_or_else(|| ApiError::bad_request(format!("stats: unknown FU kind {name:?}")))
}

fn fu_ref_by_name(name: &str) -> Result<FuRef, ApiError> {
    // Instance keys are `<asm_prefix><index>`; prefixes contain no digits.
    let split = name.find(|c: char| c.is_ascii_digit()).unwrap_or(name.len());
    let (prefix, index) = name.split_at(split);
    let kind = FuKind::from_asm_prefix(prefix)
        .ok_or_else(|| ApiError::bad_request(format!("stats: unknown FU instance {name:?}")))?;
    let index: u8 = index
        .parse()
        .map_err(|_| ApiError::bad_request(format!("stats: bad FU instance index {name:?}")))?;
    Ok(FuRef::new(kind, index))
}

fn stats_from_value(value: &Json) -> Result<SimStats, ApiError> {
    let mut f = Fields::new("stats", value)?;
    let mut stats = SimStats {
        cycles: get_member(&mut f, "cycles")?,
        stall_cycles: get_member(&mut f, "stall_cycles")?,
        injected_stall_cycles: get_member(&mut f, "injected_stall_cycles")?,
        moves_executed: get_member(&mut f, "moves_executed")?,
        moves_squashed: get_member(&mut f, "moves_squashed")?,
        buses: get_member(&mut f, "buses")?,
        ..SimStats::default()
    };
    // Derived from the counters above; consumed so the strict parse
    // accepts the record, regenerated on re-serialisation.
    let _: f64 = get_member(&mut f, "bus_utilization")?;
    let mut triggers = BTreeMap::new();
    for (key, n) in f
        .req("fu_triggers")?
        .as_object()
        .ok_or_else(|| ApiError::bad_request("stats: \"fu_triggers\" must be an object"))?
    {
        let count = n
            .as_u64()
            .ok_or_else(|| ApiError::bad_request("stats: trigger counts must be integers"))?;
        triggers.insert(fu_kind_by_name(key)?, count);
    }
    stats.fu_triggers = triggers;
    let mut instances = BTreeMap::new();
    for (key, n) in f
        .req("fu_instance_triggers")?
        .as_object()
        .ok_or_else(|| ApiError::bad_request("stats: \"fu_instance_triggers\" must be an object"))?
    {
        let count = n
            .as_u64()
            .ok_or_else(|| ApiError::bad_request("stats: trigger counts must be integers"))?;
        instances.insert(fu_ref_by_name(key)?, count);
    }
    stats.fu_instance_triggers = instances;
    f.finish()?;
    Ok(stats)
}

fn histogram_from_value(ctx: &'static str, value: &Json) -> Result<LatencyHistogram, ApiError> {
    let mut f = Fields::new(ctx, value)?;
    let bucket_values = f
        .req("buckets")?
        .as_array()
        .ok_or_else(|| ApiError::bad_request(format!("{ctx}: \"buckets\" must be an array")))?;
    if bucket_values.len() != LATENCY_BUCKETS {
        return Err(ApiError::bad_request(format!(
            "{ctx}: expected {LATENCY_BUCKETS} buckets, got {}",
            bucket_values.len()
        )));
    }
    let mut buckets = [0u64; LATENCY_BUCKETS];
    for (slot, v) in buckets.iter_mut().zip(bucket_values) {
        *slot = v
            .as_u64()
            .ok_or_else(|| ApiError::bad_request(format!("{ctx}: buckets must be integers")))?;
    }
    let count = get_member(&mut f, "count")?;
    let total_ticks = get_member(&mut f, "total_ticks")?;
    let max = get_member(&mut f, "max")?;
    // Derived percentile bounds and mean: consumed, regenerated on
    // re-serialisation.
    for derived in ["p50", "p90", "p99", "mean_milli"] {
        let _: u64 = get_member(&mut f, derived)?;
    }
    f.finish()?;
    Ok(LatencyHistogram::from_parts(buckets, count, total_ticks, max))
}

fn flow_stats_from_value(value: &Json) -> Result<FlowStats, ApiError> {
    let mut f = Fields::new("flow stats", value)?;
    let stats = FlowStats {
        flows: get_member(&mut f, "flows")?,
        packets: get_member(&mut f, "packets")?,
        max_flow_len: get_member(&mut f, "max_flow_len")?,
        small: get_member(&mut f, "small")?,
        medium: get_member(&mut f, "medium")?,
        large: get_member(&mut f, "large")?,
    };
    f.finish()?;
    Ok(stats)
}

fn fault_metrics_from_value(value: &Json) -> Result<FaultMetrics, ApiError> {
    let mut f = Fields::new("fault metrics", value)?;
    let metrics = FaultMetrics {
        injected_malformed: get_member(&mut f, "injected_malformed")?,
        injected_hop_limit: get_member(&mut f, "injected_hop_limit")?,
        injected_corruptions: get_member(&mut f, "injected_corruptions")?,
        injected_flaps: get_member(&mut f, "injected_flaps")?,
        detected_malformed: get_member(&mut f, "detected_malformed")?,
        detected_hop_limit: get_member(&mut f, "detected_hop_limit")?,
        dropped_link_down: get_member(&mut f, "dropped_link_down")?,
        recovered: get_member(&mut f, "recovered")?,
        unrecovered: get_member(&mut f, "unrecovered")?,
        recovery: histogram_from_value("recovery histogram", f.req("recovery")?)?,
    };
    f.finish()?;
    Ok(metrics)
}

/// Scenario names are `&'static str` on [`ScenarioMetrics`]; resolve a
/// parsed name back to the builtin's static string.
fn static_scenario_name(name: &str) -> Result<&'static str, ApiError> {
    Workload::builtin()
        .iter()
        .map(|w| w.name())
        .find(|n| *n == name)
        .ok_or_else(|| ApiError::bad_request(format!("scenario: unknown name {name:?}")))
}

fn scenario_from_value(value: &Json) -> Result<ScenarioMetrics, ApiError> {
    let mut f = Fields::new("scenario", value)?;
    let metrics = ScenarioMetrics {
        scenario: static_scenario_name(&get_member::<String>(&mut f, "scenario")?)?,
        kind: get_member(&mut f, "kind")?,
        seed: get_member(&mut f, "seed")?,
        ticks: get_member(&mut f, "ticks")?,
        offered: get_member(&mut f, "offered")?,
        forwarded: get_member(&mut f, "forwarded")?,
        delivered: get_member(&mut f, "delivered")?,
        dropped_no_route: get_member(&mut f, "dropped_no_route")?,
        dropped_overflow: get_member(&mut f, "dropped_overflow")?,
        max_queue_depth: get_member(&mut f, "max_queue_depth")?,
        final_backlog: get_member(&mut f, "final_backlog")?,
        latency: histogram_from_value("latency histogram", f.req("latency")?)?,
        table_updates: get_member(&mut f, "table_updates")?,
        update_latency: histogram_from_value("update latency histogram", f.req("update_latency")?)?,
        ripng_sent: get_member(&mut f, "ripng_sent")?,
        throughput_milli: get_member(&mut f, "throughput_milli")?,
        table_memory_words: get_member(&mut f, "table_memory_words")?,
        flows: f.get_non_null("flows").map(flow_stats_from_value).transpose()?,
        faults: f.get_non_null("faults").map(fault_metrics_from_value).transpose()?,
        // No evaluation models more than one core, so none writes a
        // `coherence` section: the member is unknown here.
        coherence: None,
    };
    f.finish()?;
    Ok(metrics)
}

/// The records the crates below `taco-core` write themselves, all-integer
/// and byte-stable: embedded as they are, read back by the decoders above.
impl Wire for SimStats {
    fn put(&self, out: &mut String) {
        out.push_str(&self.to_json());
    }

    fn get(ctx: &str, name: &str, value: &Json) -> Result<Self, ApiError> {
        value.as_object().ok_or_else(|| must(ctx, name, "be a JSON object"))?;
        stats_from_value(value)
    }
}

impl Wire for ScenarioMetrics {
    fn put(&self, out: &mut String) {
        out.push_str(&self.to_json());
    }

    fn get(ctx: &str, name: &str, value: &Json) -> Result<Self, ApiError> {
        value.as_object().ok_or_else(|| must(ctx, name, "be a JSON object"))?;
        scenario_from_value(value)
    }
}

/// A report's `sim_error` is one-way: written as the error's text so a
/// sweep can say why a point died, refused on the way in — the error type
/// owns simulator internals that have no wire schema.
impl Wire for SimError {
    fn put(&self, out: &mut String) {
        encode_str(&self.to_string(), out);
    }

    fn get(ctx: &str, _name: &str, _value: &Json) -> Result<Self, ApiError> {
        Err(ApiError::bad_request(format!(
            "{ctx}: reports carrying a sim_error are one-way (the simulator error type has no \
             wire schema)"
        )))
    }
}

// `scenario` and `sim_error` are omitted when absent, so plain reports stay
// byte-identical as features accrete.  `label` is the config's own, written
// for readers of the line and held to the config on the way in.
record!(EvalReport as "report" {
    #label: String = config.label(),
    config, line_rate as "rate", table_entries as "entries",
    cycles_per_datagram: Bound, bus_utilization, required_frequency_hz: Bound,
    rtu_latency_cycles, program_bits, estimate, stats,
    scenario [omit None], sim_error [omit None],
} check |report| {
    if report.config.label() != label {
        return Err(ApiError::bad_request(format!(
            "report: label {label:?} does not match config {:?}",
            report.config.label()
        )));
    }
});

/// Serialises a full report as one line of JSON with a fixed key order;
/// the machine configuration is written in the form an eval request's
/// `config` takes.
pub fn report_to_json(report: &EvalReport) -> String {
    report.encode()
}

/// Parses a report line produced by [`report_to_json`] back into an
/// [`EvalReport`].
///
/// # Errors
///
/// A structured [`ApiError`] for malformed JSON, unknown or missing
/// fields, or a report carrying a `sim_error` (one-way, see the module
/// docs).
pub fn report_from_json(text: &str) -> Result<EvalReport, ApiError> {
    EvalReport::decode(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchConfig;
    use crate::request::EvalRequest;
    use taco_routing::TableKind;
    use taco_workload::FaultPlan;

    fn roundtrip(report: &EvalReport) {
        let line = report_to_json(report);
        assert!(!line.contains('\n'), "single line: {line}");
        let parsed = report_from_json(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(&parsed, report);
        assert_eq!(report_to_json(&parsed), line, "serialisation is a fixed point");
    }

    #[test]
    fn plain_report_round_trips() {
        let report =
            EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam)).entries(8).run();
        roundtrip(&report);
    }

    #[test]
    fn widest_machine_report_round_trips() {
        // `fu_instance_triggers` is the one object that grows with the
        // machine, and only by the instances the microcode triggers — well
        // inside the parser's member bound at the widest wire-legal shape.
        let config =
            ArchConfig::with_replication(TableKind::Sequential, 255, 255).with_memory_ports(255);
        let report = EvalRequest::new(config).entries(64).run();
        assert!(report.is_feasible());
        let instances = report.stats.fu_instance_triggers.len();
        assert!(instances < 64, "{instances} triggered instances (22 when written)");
        roundtrip(&report);
    }

    #[test]
    fn infeasible_report_round_trips() {
        let report =
            EvalRequest::new(ArchConfig::one_bus_one_fu(TableKind::Sequential)).entries(64).run();
        assert!(!report.is_feasible());
        roundtrip(&report);
    }

    #[test]
    fn scenario_and_fault_report_round_trips() {
        let report = EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::BalancedTree))
            .entries(8)
            .workload(Workload::burst_overload())
            .faults(FaultPlan::storm())
            .run();
        assert!(report.scenario.as_ref().is_some_and(|s| s.faults.is_some()));
        roundtrip(&report);
    }

    #[test]
    fn sim_error_reports_are_one_way() {
        let request = EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam));
        let report = crate::evaluate::evaluate_request(&EvalRequest {
            config: ArchConfig::new(
                taco_isa::MachineConfig::new(1), // too little datapath: microcode cannot fit
                TableKind::Cam,
            ),
            ..request
        });
        // Either the instance simulates (fine) or it carries a sim_error;
        // exercise the one-way path with a synthetic error if needed.
        let mut report = report;
        if report.sim_error.is_none() {
            report.sim_error = Some(taco_sim::SimError::UnresolvedLabel("loop".into()));
        }
        let line = report_to_json(&report);
        assert!(line.contains("\"sim_error\":"), "{line}");
        let err = report_from_json(&line).unwrap_err();
        assert!(err.message.contains("one-way"), "{err}");
    }

    #[test]
    fn cell_json_matches_the_golden_shape() {
        let report =
            EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam)).entries(8).run();
        let cell = table1_cell_json(&report);
        assert!(cell.starts_with("{\"label\":\"cam 3BUS/1FU\""), "{cell}");
        for key in ["\"min_freq_hz\":", "\"bus_utilization\":", "\"area_mm2\":", "\"power_w\":"] {
            assert!(cell.contains(key), "{key} missing from {cell}");
        }
        assert!(Json::parse(&cell).is_ok(), "{cell}");

        let na =
            EvalRequest::new(ArchConfig::one_bus_one_fu(TableKind::Sequential)).entries(64).run();
        let cell = table1_cell_json(&na);
        assert!(cell.ends_with("\"area_mm2\":null,\"power_w\":null}"), "{cell}");
    }

    #[test]
    fn label_config_mismatch_is_rejected() {
        let report =
            EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam)).entries(8).run();
        let line = report_to_json(&report).replace("\"table\":\"cam\"", "\"table\":\"patricia\"");
        let err = report_from_json(&line).unwrap_err();
        assert!(err.message.contains("label"), "{err}");
    }
}
