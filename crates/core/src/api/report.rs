//! Wire form of [`EvalReport`]: byte-stable serialisation plus the strict
//! inverse parse.
//!
//! A report stores what was measured; every figure derived from those
//! counters is computed where it is read, and the wire writes it as a
//! derived member: written from the counters, read and type-checked, never
//! stored.  The report's and the stats' `bus_utilization` and the per-kind
//! `fu_triggers` are derived members of the tables below.  The scenario
//! record keeps the writer `taco-workload` gives it
//! ([`ScenarioMetrics::to_json`]), so a scenario on the wire is
//! byte-identical to what the sweep observers have always logged; its
//! reader here consumes that record's derived members (histogram counts,
//! percentile bounds and means, `table_updates`, `throughput_milli`,
//! `packets`) the same way.  A line whose derived member disagrees with its
//! counters therefore reads, and is written again from the counters.
//!
//! One asymmetry is deliberate: a report carrying a
//! [`sim_error`](EvalReport::sim_error) serialises (sweeps must be able to
//! say why a point died) but does **not** parse back — the error type owns
//! simulator internals (FU references, port names) that have no wire
//! schema, so such reports are one-way.

use std::collections::BTreeMap;
use std::fmt::Write as _;

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
    put_member(&Bound(report.bus_utilization()), "bus_utilization", &mut line);
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

/// The key of a trigger map: an FU kind, or one instance of one.
trait FuKey: Ord + std::fmt::Display + Sized {
    /// The key a wire name spells, if any.
    fn named(name: &str) -> Option<Self>;
}

impl FuKey for FuKind {
    fn named(name: &str) -> Option<Self> {
        FuKind::ALL.into_iter().find(|kind| kind.to_string() == name)
    }
}

impl FuKey for FuRef {
    fn named(name: &str) -> Option<Self> {
        // Instance keys are `<asm_prefix><index>`; prefixes contain no digits.
        let split = name.find(|c: char| c.is_ascii_digit()).unwrap_or(name.len());
        let (prefix, index) = name.split_at(split);
        Some(FuRef::new(FuKind::from_asm_prefix(prefix)?, index.parse().ok()?))
    }
}

/// Trigger counts as one object, keyed by the FU's name in map order.
impl<K: FuKey> Wire for BTreeMap<K, u64> {
    fn put(&self, out: &mut String) {
        out.push('{');
        for (fu, n) in self {
            put_member(n, &fu.to_string(), out);
        }
        out.push('}');
    }

    fn get(ctx: &str, name: &str, value: &Json) -> Result<Self, ApiError> {
        let members = value.as_object().ok_or_else(|| must(ctx, name, "be a JSON object"))?;
        members
            .iter()
            .map(|(key, n)| {
                let fu = K::named(key)
                    .ok_or_else(|| must(ctx, name, format!("name FUs, not {key:?}")))?;
                Ok((fu, u64::get(ctx, name, n)?))
            })
            .collect()
    }
}

/// A ratio of counters written to six decimals, as the sweep observer's
/// stats column has always printed it (always finite: a zero denominator
/// reads as zero).
struct Ratio(f64);

impl Wire for Ratio {
    fn put(&self, out: &mut String) {
        let _ = write!(out, "{:.6}", self.0);
    }

    fn get(ctx: &str, name: &str, value: &Json) -> Result<Self, ApiError> {
        value.as_f64().map(Ratio).ok_or_else(|| must(ctx, name, "be a number"))
    }
}

// Counters only: the utilisation and the per-kind sums are derived from
// them, written for readers of the line and never stored.
record!(SimStats as "stats" |stats| {
    cycles, stall_cycles, injected_stall_cycles, moves_executed, moves_squashed, buses,
    #bus_utilization: Ratio = Ratio(stats.bus_utilization()),
    #fu_triggers: BTreeMap<FuKind, u64> =
        fu_instance_triggers.keys().map(|fu| (fu.kind, stats.triggers(fu.kind))).collect(),
    fu_instance_triggers,
});

fn histogram_from_value(ctx: &'static str, value: &Json) -> Result<LatencyHistogram, ApiError> {
    let mut f = Fields::new(ctx, value)?;
    let buckets: Vec<u64> = get_member(&mut f, "buckets")?;
    let buckets = <[u64; LATENCY_BUCKETS]>::try_from(buckets).map_err(|buckets| {
        let got = buckets.len();
        ApiError::bad_request(format!("{ctx}: expected {LATENCY_BUCKETS} buckets, got {got}"))
    })?;
    let total_ticks = get_member(&mut f, "total_ticks")?;
    let max = get_member(&mut f, "max")?;
    // The derived count, percentile bounds and mean: consumed, regenerated
    // from the buckets on re-serialisation.
    for derived in ["count", "p50", "p90", "p99", "mean_milli"] {
        let _: u64 = get_member(&mut f, derived)?;
    }
    f.finish()?;
    Ok(LatencyHistogram::from_parts(buckets, total_ticks, max))
}

fn flow_stats_from_value(value: &Json) -> Result<FlowStats, ApiError> {
    let mut f = Fields::new("flow stats", value)?;
    // The derived packet count, the sum of the size classes.
    let _: u64 = get_member(&mut f, "packets")?;
    let stats = FlowStats {
        flows: get_member(&mut f, "flows")?,
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
    // Derived from the update histogram and from `forwarded` over `ticks`.
    for derived in ["table_updates", "throughput_milli"] {
        let _: u64 = get_member(&mut f, derived)?;
    }
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
        update_latency: histogram_from_value("update latency histogram", f.req("update_latency")?)?,
        ripng_sent: get_member(&mut f, "ripng_sent")?,
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

/// The record `taco-workload` writes itself, all-integer and byte-stable:
/// embedded as it is, read back by the decoders above.
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
    cycles_per_datagram: Bound,
    #bus_utilization: f64 = stats.bus_utilization(),
    required_frequency_hz: Bound,
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

    /// The report `line` reads back as, written again.
    fn reencode(line: &str) -> String {
        report_to_json(&report_from_json(line).unwrap_or_else(|e| panic!("{e}: {line}")))
    }

    /// Sets every member named `name`, at any depth, to `to` of its value.
    fn set_all(json: &mut Json, name: &str, to: &dyn Fn(&Json) -> Json) {
        match json {
            Json::Obj(members) => {
                for (key, value) in members {
                    if key == name {
                        *value = to(value);
                    } else {
                        set_all(value, name, to);
                    }
                }
            }
            Json::Arr(items) => items.iter_mut().for_each(|item| set_all(item, name, to)),
            _ => {}
        }
    }

    /// Holds every derived member of a report line to the counters beside
    /// it, summed here in `u128` and saturated to `u64`.
    fn assert_derived_agree(line: &str) {
        fn member<'a>(json: &'a Json, name: &str) -> Option<&'a Json> {
            json.as_object()?.iter().find(|(key, _)| key == name).map(|(_, value)| value)
        }
        fn get<'a>(json: &'a Json, name: &str) -> &'a Json {
            member(json, name).unwrap_or_else(|| panic!("no {name:?} in {}", json.encode()))
        }
        let int = |json: &Json, name: &str| u128::from(get(json, name).as_u64().expect(name));
        let sat = |n: u128| Json::u64(u64::try_from(n).unwrap_or(u64::MAX));

        let report = Json::parse(line).expect("a report line");
        let stats = get(&report, "stats");
        let slots = sat(int(stats, "moves_executed") + int(stats, "moves_squashed"));
        let capacity = sat(int(stats, "cycles") * int(stats, "buses")).as_f64().unwrap();
        let util = if capacity == 0.0 { 0.0 } else { slots.as_f64().unwrap() / capacity };
        assert_eq!(get(stats, "bus_utilization"), &Json::Num(format!("{util:.6}")), "{line}");
        assert_eq!(get(&report, "bus_utilization"), &Json::f64(util), "{line}");
        let mut per_kind = BTreeMap::new();
        for (fu, n) in get(stats, "fu_instance_triggers").as_object().unwrap() {
            let kind = FuRef::named(fu).expect("an FU instance").kind.to_string();
            *per_kind.entry(kind).or_insert(0) += u128::from(n.as_u64().unwrap());
        }
        let per_kind: BTreeMap<_, _> = per_kind.into_iter().map(|(k, n)| (k, sat(n))).collect();
        let written = get(stats, "fu_triggers").as_object().unwrap().iter().cloned().collect();
        assert_eq!(per_kind, written, "{line}");

        let Some(scenario) = member(&report, "scenario") else { return };
        let recovery = member(scenario, "faults").map(|faults| get(faults, "recovery"));
        for histogram in
            [get(scenario, "latency"), get(scenario, "update_latency")].into_iter().chain(recovery)
        {
            let buckets = get(histogram, "buckets").as_array().unwrap();
            let count = buckets.iter().map(|n| u128::from(n.as_u64().unwrap())).sum();
            assert_eq!(get(histogram, "count"), &sat(count), "{line}");
        }
        let updates = get(get(scenario, "update_latency"), "count");
        assert_eq!(get(scenario, "table_updates"), updates, "{line}");
        let throughput = (int(scenario, "forwarded") * 1000).checked_div(int(scenario, "ticks"));
        assert_eq!(get(scenario, "throughput_milli"), &sat(throughput.unwrap_or(0)), "{line}");
        if let Some(flows) = member(scenario, "flows") {
            let sizes = int(flows, "small") + int(flows, "medium") + int(flows, "large");
            assert_eq!(get(flows, "packets"), &sat(sizes), "{line}");
        }
    }

    #[test]
    fn plain_report_round_trips() {
        let report =
            EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam)).entries(8).run();
        roundtrip(&report);

        // The counters alone, from an empty run to every one at its ceiling.
        let mut populated = SimStats {
            cycles: 12345,
            stall_cycles: 67,
            moves_executed: 89,
            moves_squashed: 10,
            buses: 3,
            ..SimStats::default()
        };
        for (i, kind) in FuKind::ALL.into_iter().enumerate() {
            populated.fu_instance_triggers.insert(FuRef::new(kind, 0), i as u64);
            populated.fu_instance_triggers.insert(FuRef::new(kind, 1), i as u64 + 1);
        }
        let extreme = SimStats {
            cycles: u64::MAX,
            stall_cycles: u64::MAX,
            injected_stall_cycles: u64::MAX,
            moves_executed: u64::MAX,
            moves_squashed: u64::MAX,
            fu_instance_triggers: FuKind::ALL.map(|k| (FuRef::new(k, u8::MAX), u64::MAX)).into(),
            buses: u8::MAX,
        };
        for stats in [SimStats::default(), populated, extreme] {
            let json = stats.encode();
            assert_eq!(SimStats::decode(&json).as_ref(), Ok(&stats), "{json}");
            let report = EvalReport { stats, ..report.clone() };
            roundtrip(&report);
            assert_derived_agree(&report_to_json(&report));
        }
        let empty = SimStats::default().encode();
        let zero = "\"bus_utilization\":0.000000,\"fu_triggers\":{},\"fu_instance_triggers\":{}}";
        assert!(empty.ends_with(zero), "{empty}");
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
        let storm = EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::BalancedTree))
            .entries(8)
            .faults(FaultPlan::storm());
        let overload = storm.clone().workload(Workload::burst_overload()).run();
        let replay = storm.workload(Workload::trace_replay()).run();
        assert!(overload.scenario.as_ref().is_some_and(|s| s.faults.is_some()));
        assert!(replay.scenario.as_ref().is_some_and(|s| s.flows.is_some()));
        /// `json` with every number in it at `u64::MAX`.
        fn ceiling(json: &Json) -> Json {
            match json {
                Json::Num(_) => Json::u64(u64::MAX),
                Json::Arr(items) => Json::Arr(items.iter().map(ceiling).collect()),
                Json::Obj(members) => {
                    Json::Obj(members.iter().map(|(k, v)| (k.clone(), ceiling(v))).collect())
                }
                other => other.clone(),
            }
        }
        for report in [overload, replay] {
            roundtrip(&report);
            let line = report_to_json(&report);
            assert_derived_agree(&line);

            // Every counter a derived member sums at its ceiling: the sums
            // saturate and the line re-encodes to a fixed point.
            let mut full = Json::parse(&line).unwrap();
            for name in
                ["buckets", "count", "forwarded", "ticks", "fu_triggers", "fu_instance_triggers"]
            {
                set_all(&mut full, name, &ceiling);
            }
            let reread = reencode(&full.encode());
            assert_derived_agree(&reread);
            assert_eq!(reencode(&reread), reread, "a fixed point");

            // A derived member that disagrees with its counters reads, and
            // is written again from the counters.
            let wrong = [
                ("count", Json::u64(u64::MAX)),
                ("table_updates", Json::u64(1000)),
                ("throughput_milli", Json::u64(7)),
                ("packets", Json::u64(0)),
                ("bus_utilization", Json::f64(0.25)),
                ("fu_triggers", Json::Obj(Vec::new())),
            ];
            for (name, value) in wrong {
                let mut bent = Json::parse(&line).unwrap();
                set_all(&mut bent, name, &|_| value.clone());
                assert_eq!(reencode(&bent.encode()), line, "{name}");
            }
        }
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
