//! The reproduction report: Table 1 at both traffic operating points, the
//! packet-size sensitivity of its 3BUS/1FU column, the scaling ablation and
//! the machine-checked paper-claim checklist, as one markdown document.
//!
//! `tests/golden/report.md` pins [`render`]'s bytes and EXPERIMENTS.md
//! quotes that fixture between the `<!-- report:NAME -->` …
//! `<!-- /report -->` markers [`render`] writes around each block
//! (`tests/golden_report.rs` checks both), so the paper-vs-measured document
//! cannot drift from what the simulator measures.  Every number is printed
//! at fixed precision, which is what keeps the fixture byte-stable.

use std::fmt::Write as _;

use taco_estimate::Estimator;
use taco_routing::TableKind;

use crate::arch::ArchConfig;
use crate::cache::EvalCache;
use crate::evaluate::EvalReport;
use crate::explorer::scaling_sweep;
use crate::rate::LineRate;
use crate::request::EvalRequest;
use crate::table1::{format_frequency, table1};

/// The routing-table sizes the scaling ablation sweeps.
pub const SCALING_SIZES: [usize; 6] = [4, 16, 32, 64, 128, 256];

/// The wire footprints the sensitivity block sweeps at 10 Gbps, minimum
/// frame to jumbo; 84 and 1040 are the two Table 1 operating points.
const PACKET_BYTES: [u32; 6] = [84, 256, 512, 1040, 4096, 9018];

/// The paper's routing-table size constraint.
const ENTRIES: usize = 100;

/// Writes `body` as the block EXPERIMENTS.md quotes under `name`.
fn block(out: &mut String, name: &str, body: &str) {
    let _ = writeln!(out, "<!-- report:{name} -->\n{body}<!-- /report -->");
}

fn table1_block(reports: &[EvalReport]) -> String {
    let mut body = String::from(
        "| table | config | cycles/datagram | bus util | required | estimate |\n\
         |---|---|---|---|---|---|\n",
    );
    for r in reports {
        let _ = writeln!(
            body,
            "| {} | {} | {:.0} | {:.0}% | {} | {} |",
            r.config.table,
            r.config.machine.label(),
            r.cycles_per_datagram,
            r.bus_utilization() * 100.0,
            format_frequency(r.required_frequency_hz),
            r.estimate
        );
    }
    body
}

/// A markdown grid: one column per `columns` value under `corner`, one
/// `(label, cells)` per row.
fn grid<C: std::fmt::Display>(
    corner: &str,
    columns: &[C],
    rows: impl IntoIterator<Item = (String, Vec<String>)>,
) -> String {
    let mut body = format!("| {corner} |");
    for column in columns {
        let _ = write!(body, " {column} |");
    }
    let _ = writeln!(body, "\n|---|{}", "---|".repeat(columns.len()));
    for (label, cells) in rows {
        let _ = writeln!(body, "| {label} | {} |", cells.join(" | "));
    }
    body
}

/// The 3BUS/1FU column of Table 1 across [`PACKET_BYTES`]: one cached
/// evaluation per cell at the cell's own rate (`*` marks a clock above the
/// technology ceiling).  The 84 B and 1040 B columns are Table 1's cells —
/// the same cache keys.
fn sensitivity_block() -> String {
    let cache = EvalCache::global();
    let rows = TableKind::PAPER_KINDS.map(|kind| {
        let cells = PACKET_BYTES.iter().map(|&bytes| {
            let r = cache.evaluate(
                &EvalRequest::new(ArchConfig::three_bus_one_fu(kind))
                    .rate(LineRate::new(10e9, bytes))
                    .entries(ENTRIES),
            );
            let mark = if r.is_feasible() { "" } else { "*" };
            let clock = format_frequency(r.required_frequency_hz);
            format!("{clock}{mark} ({:.0})", r.cycles_per_datagram)
        });
        (kind.to_string(), cells.collect())
    });
    grid("table \\ bytes per packet", &PACKET_BYTES, rows)
}

/// Renders the report.  Cells come from the process-global [`EvalCache`],
/// like [`table1`]'s.
pub fn render() -> String {
    let at_1040 = table1(LineRate::TEN_GBE, ENTRIES);
    let at_84 = table1(LineRate::TEN_GBE_MIN_FRAMES, ENTRIES);
    // One 1-bus series per organisation, in `ALL_KINDS` order.
    let scaling: Vec<Vec<f64>> = TableKind::ALL_KINDS
        .iter()
        .map(|&kind| {
            let series = scaling_sweep(&ArchConfig::one_bus_one_fu(kind), &SCALING_SIZES);
            series.into_iter().map(|(_, cycles)| cycles).collect()
        })
        .collect();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# TACO IPv6 reproduction report (generated)\n\n\
         Technology ceiling: {:.0} MHz (0.18 um).  Cycles per datagram and bus\n\
         utilisation are simulated cycle by cycle ({ENTRIES}-entry tables); the required\n\
         clock is derived from the cycles and the packet rate; the estimate column (area,\n\
         power, NA) and the ceiling are modelled by taco-estimate's first-order model.\n\
         See EXPERIMENTS.md for the paper-vs-measured discussion, which quotes the marked\n\
         blocks of this report verbatim.",
        Estimator::new().max_frequency_hz() / 1e6
    );

    for (name, label, rate, reports) in [
        ("table1-1040", "1040 B average packets", LineRate::TEN_GBE, &at_1040),
        ("table1-84", "84 B minimum frames", LineRate::TEN_GBE_MIN_FRAMES, &at_84),
    ] {
        let _ = writeln!(out, "\n## Table 1 at {label} ({rate})\n");
        block(&mut out, name, &table1_block(reports));
    }

    let _ = writeln!(
        out,
        "\n## Packet-size sensitivity: 3BUS/1FU required clock (cycles per datagram) at 10 Gbps\n\n\
         One evaluation per cell at the cell's own packet rate; `*` marks a clock above the ceiling.\n"
    );
    block(&mut out, "sensitivity", &sensitivity_block());

    let _ = writeln!(out, "\n## Scaling: cycles per datagram vs routing-table size\n");
    let rows = TableKind::ALL_KINDS.iter().zip(&scaling).map(|(kind, series)| {
        (format!("{kind} (1 bus)"), series.iter().map(|cycles| format!("{cycles:.0}")).collect())
    });
    block(&mut out, "scaling", &grid("table \\ entries", &SCALING_SIZES, rows));

    let _ = writeln!(out, "\n## Paper-claim checklist\n");
    let mut body = String::new();
    for (ok, what) in checklist(&at_1040, &at_84, &scaling) {
        let _ = writeln!(body, "- [{}] {what}", if ok { 'x' } else { ' ' });
    }
    block(&mut out, "checklist", &body);
    out
}

/// The shapes the paper reports (and `tests/table1_sanity.rs` asserts on a
/// reduced table), each with the numbers it was decided on.  The last row
/// is the one the reproduction fails: deviation D1.
fn checklist(
    at_1040: &[EvalReport],
    at_84: &[EvalReport],
    scaling: &[Vec<f64>],
) -> Vec<(bool, String)> {
    use TableKind::{BalancedTree, Cam, Patricia, Sequential};
    // Table 1 rows and scaling series both follow `ALL_KINDS`; a Table 1
    // row is three configurations: 1BUS/1FU, 3BUS/1FU, 3bus/3FU.
    let index = |kind: TableKind| {
        TableKind::ALL_KINDS.iter().position(|k| *k == kind).expect("every kind has a row")
    };
    let row = |kind: TableKind| 3 * index(kind);
    let f = |kind: TableKind, config: usize| at_1040[row(kind) + config].required_frequency_hz;
    let bus_gain = |kind| f(kind, 0) / f(kind, 1);
    let fu_gain = |kind| f(kind, 1) / f(kind, 2);
    let interconnect_helps = |kind| f(kind, 1) < f(kind, 0) && f(kind, 2) <= f(kind, 1) * 1.01;
    let one_bus_busy = |kind: TableKind| at_1040[row(kind)].bus_utilization();
    let least_busy =
        TableKind::PAPER_KINDS.iter().map(|&kind| one_bus_busy(kind)).fold(f64::INFINITY, f64::min);
    // Growth from 16 to 64 entries on one bus.
    let growth = |kind: TableKind| {
        let at =
            |n| scaling[index(kind)][SCALING_SIZES.iter().position(|s| *s == n).expect("swept")];
        at(64) / at(16)
    };

    vec![
        (
            (0..3).all(|c| f(Sequential, c) > f(BalancedTree, c) && f(BalancedTree, c) > f(Cam, c)),
            "sequential > tree > CAM in required clock (every config)".into(),
        ),
        (
            TableKind::PAPER_KINDS.iter().all(|&kind| interconnect_helps(kind)),
            "within every paper row 3 buses beat 1 and 3 FUs never lose by more than 1 %".into(),
        ),
        (
            least_busy > 0.9,
            format!(
                "every 1-bus paper cell keeps its bus over 90 % busy (least busy: {:.0} %; \
                 paper: 100 %)",
                least_busy * 100.0
            ),
        ),
        (
            interconnect_helps(Patricia) && one_bus_busy(Patricia) > 0.9,
            "the appended PATRICIA row keeps the same within-row structure".into(),
        ),
        (
            (1.8..3.5).contains(&bus_gain(Sequential)),
            format!(
                "3 buses cut the sequential clock by {:.1}× (paper: 3.0×; accepted: 1.8–3.5×)",
                bus_gain(Sequential)
            ),
        ),
        (
            fu_gain(Cam) < 1.25,
            format!(
                "extra FUs barely help the CAM row: {:.2}× (paper: 1.14×, its conclusion)",
                fu_gain(Cam)
            ),
        ),
        (!at_1040[row(Sequential)].is_feasible(), "sequential 1-bus is NA on 0.18 um".into()),
        (
            at_1040[row(Cam) + 1].is_feasible() && f(Cam, 1) < 150e6,
            "CAM 3-bus runs at tens of MHz".into(),
        ),
        (
            (0..3).all(|c| !at_84[row(Sequential) + c].is_feasible())
                && (1..3).all(|c| at_84[row(Cam) + c].is_feasible()),
            "at 84 B minimum frames every sequential cell is NA and both 3-bus CAM cells stay \
             buildable"
                .into(),
        ),
        (
            growth(Sequential) > 2.0 && growth(BalancedTree) < 1.6 && growth(Cam) < 1.1,
            format!(
                "16 → 64 entries on one bus: sequential {:.2}× (linear, > 2×), tree {:.2}× \
                 (logarithmic, < 1.6×), CAM {:.2}× (flat, < 1.1×)",
                growth(Sequential),
                growth(BalancedTree),
                growth(Cam)
            ),
        ),
        {
            let reproduced = fu_gain(Sequential) >= 1.5 && fu_gain(BalancedTree) >= 1.5;
            (
                reproduced,
                format!(
                    "FU replication: paper 2.0× (seq) / 2.4× (tree), measured {:.2}× / {:.2}× — \
                     {}, see D1",
                    fu_gain(Sequential),
                    fu_gain(BalancedTree),
                    if reproduced { "reproduced" } else { "not reproduced" }
                ),
            )
        },
    ]
}
