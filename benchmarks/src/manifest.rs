//! `BENCHMARK.json`, rendered from the definitions the code runs on, so
//! the file at the repo root cannot drift from what is measured (a unit
//! test compares the two byte for byte; `taco-perf --manifest` prints
//! this text).

use crate::json;
use crate::layers::layer_metric_defs;
use crate::workloads::WORKLOADS;

/// Measuring time of one run, seconds.
pub const RUN_SECONDS: u32 = 10;

/// One gated end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEndDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction: `higher` or `lower`.
    pub better: &'static str,
    /// Share of the parent's median it may worsen by.
    pub bound: f64,
}

/// The gated end-to-end metrics, in report order.  The fifth end-to-end
/// number, the share of failed operations, is not listed: it is zero on
/// every workload by construction and travels in the result line's
/// `attempted` and `failed` keys, where any non-zero value fails the run.
///
/// The two rates are bounded at 25 %, not the 10 % the issue sketched:
/// medians of ten runs of identical code moved by up to 10.6 % between a
/// quiet and a busy half hour of the sandbox, and single runs of the
/// served workloads by up to 20 % (README, "The timing rule"); a bound the
/// machine alone can cross judges nothing.
pub const END_TO_END: [EndToEndDef; 4] = [
    EndToEndDef { name: "evals_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEndDef { name: "sim_cycles_per_s", unit: "cycles/s", better: "higher", bound: 0.25 },
    EndToEndDef { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEndDef { name: "peak_rss_kib", unit: "KiB", better: "lower", bound: 0.1 },
];

/// The text of `BENCHMARK.json`.
pub fn render() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!("    {{\"name\": {}, \"why\": {}}}", json::string(w.name), json::string(w.why))
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json::string(m.name),
                json::string(m.unit),
                json::string(m.better),
                json::number(m.bound)
            )
        })
        .collect();
    let per_layer: Vec<String> = layer_metric_defs()
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::string(name),
                json::string(unit),
                json::string(better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmarks/run.sh\"],\n  \"paths\": [\"benchmarks\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_manifest_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, render(), "regenerate with `taco-perf --manifest > BENCHMARK.json`");
    }

    #[test]
    fn the_manifest_stays_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(layer_metric_defs().len() <= 128);
        assert!(render().len() <= 64 << 10);
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
