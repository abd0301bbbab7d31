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
use taco_sim::SimStats;
use taco_workload::{
    CoherenceStats, FaultMetrics, FlowStats, LatencyHistogram, ScenarioMetrics, Workload,
    LATENCY_BUCKETS,
};

use super::json::Json;
use super::{
    f64_json, parse_table_kind, rate_from_value, rate_to_json, ApiError, ConfigSpec, Fields,
    MachineSpec,
};
use crate::evaluate::EvalReport;

/// One golden-fixture cell line for `report` — exactly the format pinned
/// by `crates/core/tests/golden/table1.json` (label, min frequency, bus
/// utilisation, area and power; `null` area/power for infeasible cells).
///
/// This is the same serialisation the golden test has always used, hoisted
/// into the API so the daemon's `eval_result` responses can be compared
/// byte-for-byte against the fixture.
pub fn table1_cell_json(report: &EvalReport) -> String {
    let mut line = format!(
        "{{\"label\":\"{}\",\"min_freq_hz\":{},\"bus_utilization\":{}",
        report.config.label(),
        f64_json(report.required_frequency_hz),
        f64_json(report.bus_utilization),
    );
    match report.estimate.feasible() {
        Some(e) => {
            line.push_str(&format!(
                ",\"area_mm2\":{},\"power_w\":{}}}",
                f64_json(e.area_mm2),
                f64_json(e.power_w)
            ));
        }
        None => line.push_str(",\"area_mm2\":null,\"power_w\":null}"),
    }
    line
}

fn estimate_to_json(estimate: &Estimate) -> String {
    match estimate {
        Estimate::Feasible(e) => {
            let cam = match &e.cam {
                Some(c) => format!(
                    "{{\"avg_power_w\":{},\"footprint_mm2\":{}}}",
                    f64_json(c.avg_power_w),
                    f64_json(c.footprint_mm2)
                ),
                None => "null".to_owned(),
            };
            format!(
                "{{\"feasible\":true,\"freq_hz\":{},\"sized_gates\":{},\"sizing_factor\":{},\
                 \"area_mm2\":{},\"power_w\":{},\"cam\":{cam}}}",
                f64_json(e.freq_hz),
                f64_json(e.sized_gates),
                f64_json(e.sizing_factor),
                f64_json(e.area_mm2),
                f64_json(e.power_w),
            )
        }
        Estimate::Infeasible { required_hz, achievable_hz } => format!(
            "{{\"feasible\":false,\"required_hz\":{},\"achievable_hz\":{}}}",
            f64_json(*required_hz),
            f64_json(*achievable_hz),
        ),
    }
}

fn estimate_from_value(value: &Json) -> Result<Estimate, ApiError> {
    let mut f = Fields::new("estimate", value)?;
    let estimate = if f.req_bool("feasible")? {
        let cam = f
            .get_non_null("cam")
            .map(|v| {
                let mut c = Fields::new("estimate cam", v)?;
                let cam = ExternalCam {
                    avg_power_w: c.req_finite_f64("avg_power_w")?,
                    footprint_mm2: c.req_finite_f64("footprint_mm2")?,
                };
                c.finish()?;
                Ok::<_, ApiError>(cam)
            })
            .transpose()?;
        Estimate::Feasible(PhysicalEstimate {
            freq_hz: f.req_finite_f64("freq_hz")?,
            sized_gates: f.req_finite_f64("sized_gates")?,
            sizing_factor: f.req_finite_f64("sizing_factor")?,
            area_mm2: f.req_finite_f64("area_mm2")?,
            power_w: f.req_finite_f64("power_w")?,
            cam,
        })
    } else {
        Estimate::Infeasible {
            required_hz: f.req_f64_or_infinity("required_hz")?,
            achievable_hz: f.req_finite_f64("achievable_hz")?,
        }
    };
    f.finish()?;
    Ok(estimate)
}

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
        cycles: f.req_u64("cycles")?,
        stall_cycles: f.req_u64("stall_cycles")?,
        injected_stall_cycles: f.req_u64("injected_stall_cycles")?,
        moves_executed: f.req_u64("moves_executed")?,
        moves_squashed: f.req_u64("moves_squashed")?,
        buses: f.req_u8("buses")?,
        ..SimStats::default()
    };
    // Derived from the counters above; consumed so the strict parse
    // accepts the record, regenerated on re-serialisation.
    f.req_finite_f64("bus_utilization")?;
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
    let count = f.req_u64("count")?;
    let total_ticks = f.req_u64("total_ticks")?;
    let max = f.req_u64("max")?;
    // Derived percentile bounds and mean: consumed, regenerated on
    // re-serialisation.
    for derived in ["p50", "p90", "p99", "mean_milli"] {
        f.req_u64(derived)?;
    }
    f.finish()?;
    Ok(LatencyHistogram::from_parts(buckets, count, total_ticks, max))
}

fn flow_stats_from_value(value: &Json) -> Result<FlowStats, ApiError> {
    let mut f = Fields::new("flow stats", value)?;
    let stats = FlowStats {
        flows: f.req_u64("flows")?,
        packets: f.req_u64("packets")?,
        max_flow_len: f.req_u64("max_flow_len")?,
        small: f.req_u64("small")?,
        medium: f.req_u64("medium")?,
        large: f.req_u64("large")?,
    };
    f.finish()?;
    Ok(stats)
}

fn fault_metrics_from_value(value: &Json) -> Result<FaultMetrics, ApiError> {
    let mut f = Fields::new("fault metrics", value)?;
    let metrics = FaultMetrics {
        injected_malformed: f.req_u64("injected_malformed")?,
        injected_hop_limit: f.req_u64("injected_hop_limit")?,
        injected_corruptions: f.req_u64("injected_corruptions")?,
        injected_flaps: f.req_u64("injected_flaps")?,
        detected_malformed: f.req_u64("detected_malformed")?,
        detected_hop_limit: f.req_u64("detected_hop_limit")?,
        dropped_link_down: f.req_u64("dropped_link_down")?,
        recovered: f.req_u64("recovered")?,
        unrecovered: f.req_u64("unrecovered")?,
        recovery: histogram_from_value("recovery histogram", f.req("recovery")?)?,
    };
    f.finish()?;
    Ok(metrics)
}

fn coherence_from_value(value: &Json) -> Result<CoherenceStats, ApiError> {
    let mut f = Fields::new("coherence metrics", value)?;
    let stats = CoherenceStats {
        reads: f.req_u64("reads")?,
        writes: f.req_u64("writes")?,
        hits: f.req_u64("hits")?,
        misses: f.req_u64("misses")?,
        invalidations: f.req_u64("invalidations")?,
        upgrade_stalls: f.req_u64("upgrade_stalls")?,
        writebacks: f.req_u64("writebacks")?,
        stall_cycles: f.req_u64("stall_cycles")?,
        transactions: f.req_u64("transactions")?,
        busy_cycles: f.req_u64("busy_cycles")?,
    };
    f.finish()?;
    Ok(stats)
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
        scenario: static_scenario_name(f.req_str("scenario")?)?,
        kind: parse_table_kind(f.req_str("kind")?).map_err(ApiError::bad_request)?,
        seed: f.req_u64("seed")?,
        ticks: f.req_u64("ticks")?,
        offered: f.req_u64("offered")?,
        forwarded: f.req_u64("forwarded")?,
        delivered: f.req_u64("delivered")?,
        dropped_no_route: f.req_u64("dropped_no_route")?,
        dropped_overflow: f.req_u64("dropped_overflow")?,
        max_queue_depth: f.req_u64("max_queue_depth")?,
        final_backlog: f.req_u64("final_backlog")?,
        latency: histogram_from_value("latency histogram", f.req("latency")?)?,
        table_updates: f.req_u64("table_updates")?,
        update_latency: histogram_from_value("update latency histogram", f.req("update_latency")?)?,
        ripng_sent: f.req_u64("ripng_sent")?,
        throughput_milli: f.req_u64("throughput_milli")?,
        table_memory_words: f.req_u64("table_memory_words")?,
        flows: f.get_non_null("flows").map(flow_stats_from_value).transpose()?,
        faults: f.get_non_null("faults").map(fault_metrics_from_value).transpose()?,
        coherence: f.get_non_null("coherence").map(coherence_from_value).transpose()?,
    };
    f.finish()?;
    Ok(metrics)
}

/// Serialises a full report as one line of JSON with a fixed key order.
///
/// `scenario` and `sim_error` are omitted when absent, so plain reports
/// stay byte-identical as features accrete.  The machine configuration is
/// emitted as its [`MachineSpec`] wire form (flat for single-core systems,
/// nested for multi-core); for the (in-tree-unreachable) case of a
/// hand-built machine outside that family, the nearest spec is emitted and
/// the round trip is lossy.
pub fn report_to_json(report: &EvalReport) -> String {
    let config_spec = MachineSpec::from_config(&report.config).unwrap_or(MachineSpec {
        core: ConfigSpec {
            table: report.config.table,
            buses: report.config.machine.buses(),
            replication: report.config.machine.fu_count(FuKind::Matcher),
            memory_ports: report.config.machine.fu_count(FuKind::Mmu),
        },
        system: report.config.system,
    });
    let mut s = format!(
        "{{\"label\":{},\"config\":{},\"rate\":{},\"entries\":{},\
         \"cycles_per_datagram\":{},\"bus_utilization\":{},\"required_frequency_hz\":{},\
         \"rtu_latency_cycles\":{},\"program_bits\":{},\"estimate\":{},\"stats\":{}",
        Json::str(report.config.label()).encode(),
        config_spec.to_json(),
        rate_to_json(&report.line_rate),
        report.table_entries,
        f64_json(report.cycles_per_datagram),
        f64_json(report.bus_utilization),
        f64_json(report.required_frequency_hz),
        report.rtu_latency_cycles,
        report.program_bits,
        estimate_to_json(&report.estimate),
        report.stats.to_json(),
    );
    if let Some(scenario) = &report.scenario {
        s.push_str(",\"scenario\":");
        s.push_str(&scenario.to_json());
    }
    if let Some(error) = &report.sim_error {
        s.push_str(",\"sim_error\":");
        s.push_str(&Json::str(error.to_string()).encode());
    }
    s.push('}');
    s
}

pub(crate) fn report_from_value(value: &Json) -> Result<EvalReport, ApiError> {
    let mut f = Fields::new("report", value)?;
    if f.get_non_null("sim_error").is_some() {
        return Err(ApiError::bad_request(
            "report: reports carrying a sim_error are one-way (the simulator error type has \
             no wire schema)",
        ));
    }
    let label = f.req_str("label")?;
    let config_spec = MachineSpec::from_value(f.req("config")?)?;
    let config = config_spec.to_config()?;
    if config.label() != label {
        return Err(ApiError::bad_request(format!(
            "report: label {label:?} does not match config {:?}",
            config.label()
        )));
    }
    let report = EvalReport {
        config,
        line_rate: rate_from_value(f.req("rate")?)?,
        table_entries: f.req_usize("entries")?,
        cycles_per_datagram: f.req_f64_or_infinity("cycles_per_datagram")?,
        bus_utilization: f.req_finite_f64("bus_utilization")?,
        required_frequency_hz: f.req_f64_or_infinity("required_frequency_hz")?,
        rtu_latency_cycles: f.req_u32("rtu_latency_cycles")?,
        program_bits: f.req_u64("program_bits")?,
        estimate: estimate_from_value(f.req("estimate")?)?,
        stats: stats_from_value(f.req("stats")?)?,
        scenario: f.get_non_null("scenario").map(scenario_from_value).transpose()?,
        sim_error: None,
    };
    f.finish()?;
    Ok(report)
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
    let value = Json::parse(text).map_err(|e| ApiError::bad_request(e.to_string()))?;
    report_from_value(&value)
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
    fn multicore_report_round_trips_with_a_nested_config() {
        let config = ArchConfig::three_bus_one_fu(TableKind::Cam)
            .with_system(taco_isa::SystemConfig::with_cores(4).topology(taco_isa::Topology::Mesh));
        let report = EvalRequest::new(config).entries(8).workload(Workload::table_churn()).run();
        let line = report_to_json(&report);
        assert!(line.contains("\"label\":\"cam 3BUS/1FU 4c-mesh-mesi\""), "{line}");
        assert!(line.contains("\"config\":{\"core\":{"), "{line}");
        assert!(line.contains("\"coherence\":{\"reads\":"), "{line}");
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
        let line = report_to_json(&report).replace("\"table\":\"cam\"", "\"table\":\"trie\"");
        let err = report_from_json(&line).unwrap_err();
        assert!(err.message.contains("label"), "{err}");
    }

    #[test]
    fn unknown_report_fields_are_rejected() {
        let report =
            EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam)).entries(8).run();
        let line = report_to_json(&report).replacen("{\"label\"", "{\"zzz\":1,\"label\"", 1);
        let err = report_from_json(&line).unwrap_err();
        assert!(err.message.contains("zzz"), "{err}");
    }
}
