//! Regeneration of the paper's Table 1.
//!
//! Each cell is one evaluation, its fixed-point rounds priced from the block
//! profile of its table (recorded once per prepared input), as every
//! evaluation's are.  Only recording that profile, a round the profile
//! refuses, a fault plan that injects stalls and a trace step the cell on
//! the cycle-accurate router.

use std::fmt::Write as _;

use taco_estimate::Estimate;

use crate::arch::ArchConfig;
use crate::cache::EvalCache;
use crate::evaluate::EvalReport;
use crate::rate::LineRate;
use crate::request::EvalRequest;

/// Evaluates all twelve cells of the extended Table 1 (the paper's three
/// routing-table implementations plus the path-compressed PATRICIA
/// organisation, × three architecture configurations) and returns the
/// reports in the paper's row order — the paper's nine cells first.
///
/// `entries` is the routing-table size (the paper's constraint is "a
/// maximum size of 100 entries").
///
/// Cells are answered from the process-global [`EvalCache`]: the paper's
/// nine Table 1 points are a subset of the default exploration grid, so a
/// sweep that already ran in this process makes most of this call
/// (nearly) free.  The cells it misses are priced as a sweep prices its
/// points, from the block profile of each table.
pub fn table1(line_rate: LineRate, entries: usize) -> Vec<EvalReport> {
    let cache = EvalCache::global();
    ArchConfig::table1_cells()
        .into_iter()
        .map(|c| cache.evaluate(&EvalRequest::new(c).rate(line_rate).entries(entries)))
        .collect()
}

/// Renders reports in the layout of the paper's Table 1.
///
/// ```text
/// Routing Table   Architecture          Required   Bus util.   Area    Avg. Power
/// Implementation  configuration         speed      [%]         [mm2]   [W]
/// sequential      1BUS/1FU              2.23 GHz   100         NA      NA
/// ...
/// ```
pub fn render(reports: &[EvalReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<15} {:<20} {:>12} {:>10} {:>9} {:>12}",
        "Routing Table", "Architecture", "Required", "Bus util.", "Area", "Avg. Power"
    );
    let _ = writeln!(
        out,
        "{:<15} {:<20} {:>12} {:>10} {:>9} {:>12}",
        "Implementation", "configuration", "speed", "[%]", "[mm2]", "[W]"
    );
    let mut last_kind = None;
    for r in reports {
        let kind = if last_kind == Some(r.config.table) {
            String::new()
        } else {
            last_kind = Some(r.config.table);
            r.config.table.to_string()
        };
        let speed = format_frequency(r.required_frequency_hz);
        let machine = r.config.machine.label();
        let (area, power) = match &r.estimate {
            Estimate::Feasible(e) => (format!("{:.2}", e.area_mm2), format!("{:.3}", e.power_w)),
            Estimate::Infeasible { .. } => ("NA".to_string(), "NA".to_string()),
        };
        let _ = writeln!(
            out,
            "{:<15} {:<20} {:>12} {:>10.0} {:>9} {:>12}",
            kind,
            machine,
            speed,
            r.bus_utilization() * 100.0,
            area,
            power
        );
    }
    out
}

/// Renders reports as CSV (one row per cell) for plotting, with raw SI
/// values rather than the display formatting of [`render`].
pub fn to_csv(reports: &[EvalReport]) -> String {
    let mut out = String::from(
        "table,config,cycles_per_datagram,bus_utilization,required_hz,feasible,area_mm2,power_w
",
    );
    for r in reports {
        let machine = r.config.machine.label();
        let (feasible, area, power) = match &r.estimate {
            Estimate::Feasible(e) => (true, e.area_mm2.to_string(), e.power_w.to_string()),
            Estimate::Infeasible { .. } => (false, String::new(), String::new()),
        };
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{}",
            r.config.table,
            machine,
            r.cycles_per_datagram,
            r.bus_utilization(),
            r.required_frequency_hz,
            feasible,
            area,
            power
        );
    }
    out
}

/// Formats a frequency the way the paper writes them (`6 GHz`, `600 MHz`).
pub fn format_frequency(hz: f64) -> String {
    if hz >= 1e9 {
        format!("{:.2} GHz", hz / 1e9)
    } else {
        format!("{:.0} MHz", hz / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_routing::TableKind;

    #[test]
    fn frequency_formatting() {
        assert_eq!(format_frequency(6e9), "6.00 GHz");
        assert_eq!(format_frequency(600e6), "600 MHz");
        assert_eq!(format_frequency(35e6), "35 MHz");
    }

    #[test]
    fn csv_export_has_one_row_per_cell() {
        let reports = table1(LineRate::TEN_GBE_MIN_FRAMES, 2);
        let csv = to_csv(&reports);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 13); // header + 12 cells
        assert!(lines[0].starts_with("table,config,"));
        assert!(lines[1].starts_with("sequential,"));
        assert!(lines[10].starts_with("patricia,"));
        // Infeasible rows leave the physical columns empty.
        assert!(csv.contains(",false,,"));
    }

    #[test]
    fn render_shapes_na_cells() {
        // A fast end-to-end check on a tiny table (3 entries) so the CI
        // cost stays low; the full 100-entry table is exercised by the
        // `taco-cli table1` and the integration tests.
        let reports = table1(LineRate::TEN_GBE_MIN_FRAMES, 3);
        assert_eq!(reports.len(), 12);
        let text = render(&reports);
        assert!(text.contains("NA"), "min-frame 10GbE must overwhelm something:\n{text}");
        assert!(text.contains("sequential"));
        assert!(text.contains("balanced-tree"));
        assert!(text.contains("cam"));
        assert!(text.contains("patricia"));
        // Row order matches the paper, with the PATRICIA column appended.
        assert_eq!(reports[0].config.table, TableKind::Sequential);
        assert_eq!(reports[3].config.table, TableKind::BalancedTree);
        assert_eq!(reports[6].config.table, TableKind::Cam);
        assert_eq!(reports[9].config.table, TableKind::Patricia);
    }
}
