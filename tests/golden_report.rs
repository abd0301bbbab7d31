//! Golden snapshot of the reproduction report, and the check that
//! EXPERIMENTS.md quotes it.
//!
//! `tests/golden/report.md` pins `taco_core::report::render()`: Table 1 at
//! both traffic operating points, the scaling ablation, the paper-claim
//! checklist, each inside a `report:NAME` marker comment.  EXPERIMENTS.md
//! carries the same markers around its measured tables (paper values stay
//! outside them), and a marked block of the document that is not the
//! fixture's block of that name, byte for byte, fails the second test.
//! The third holds the blocks to each other: one machine at one size and
//! rate has one cycle count, whichever table prints it.
//!
//! To regenerate after an intentional change, `BLESS=1 cargo test --test
//! golden_report`, then copy the changed blocks into EXPERIMENTS.md and
//! review both diffs.

use std::collections::BTreeMap;
use std::path::PathBuf;

use taco::eval::{scaling_sweep, table1, LineRate};
use taco::routing::TableKind;

fn repo_file(path: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(path)
}

const FIXTURE: &str = "tests/golden/report.md";

fn golden() -> String {
    std::fs::read_to_string(repo_file(FIXTURE)).unwrap_or_else(|e| {
        panic!("missing fixture {FIXTURE} ({e}); regenerate with BLESS=1 cargo test --test golden_report")
    })
}

/// The marked blocks of `text`, by name.
fn blocks(text: &str) -> BTreeMap<&str, &str> {
    let mut found = BTreeMap::new();
    let mut rest = text;
    while let Some((_, after)) = rest.split_once("<!-- report:") {
        let (name, after) = after.split_once(" -->\n").expect("a marker ends its line");
        let (body, after) = after.split_once("<!-- /report -->").expect("every block is closed");
        assert!(found.insert(name, body).is_none(), "block {name} is marked twice");
        rest = after;
    }
    found
}

#[test]
fn report_matches_golden_fixture() {
    let current = taco::eval::report::render();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(repo_file(FIXTURE), &current).expect("write fixture");
        eprintln!("blessed {FIXTURE} ({} lines)", current.lines().count());
        return;
    }
    let golden = golden();
    // Line by line first: one drifted cell reads better than the whole report.
    for (got, want) in current.lines().zip(golden.lines()) {
        assert_eq!(
            got, want,
            "the report drifted from the golden fixture; if the change is intentional, \
             regenerate with BLESS=1, update the blocks EXPERIMENTS.md quotes and review both"
        );
    }
    assert_eq!(current, golden);
}

#[test]
fn experiments_md_quotes_the_fixture() {
    let golden = golden();
    let document = std::fs::read_to_string(repo_file("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let (pinned, quoted) = (blocks(&golden), blocks(&document));
    assert_eq!(
        quoted.keys().collect::<Vec<_>>(),
        pinned.keys().collect::<Vec<_>>(),
        "EXPERIMENTS.md quotes every marked block of the report"
    );
    for (name, body) in quoted {
        assert_eq!(body, pinned[name], "EXPERIMENTS.md's {name} block is not {FIXTURE}'s");
    }
}

#[test]
fn the_tables_agree_where_they_overlap() {
    // The scaling sweep reads Table 1's cells at 100 entries...
    for cell in table1::table1(LineRate::TEN_GBE, 100) {
        assert_eq!(
            scaling_sweep(&cell.config, &[100]),
            [(100, cell.cycles_per_datagram)],
            "{}: the scaling sweep and Table 1 disagree",
            cell.config
        );
    }
    // ...and the sensitivity block's 84 B and 1040 B columns are the 3BUS/1FU
    // cells of the two Table 1 blocks, clock and cycle count.
    let report = taco::eval::report::render();
    let blocks = blocks(&report);
    // A block's rows (header first, separator dropped) as trimmed cells.
    let rows = |name: &str| -> Vec<Vec<&str>> {
        let rows = blocks[name].lines().filter(|row| !row.starts_with("|---"));
        rows.map(|row| row.trim_matches('|').split('|').map(str::trim).collect()).collect()
    };
    let sensitivity = rows("sensitivity");
    assert_eq!(sensitivity.len(), 1 + TableKind::PAPER_KINDS.len());
    for (table1_name, bytes) in [("table1-84", "84"), ("table1-1040", "1040")] {
        let column = sensitivity[0].iter().position(|b| *b == bytes).expect("a swept size");
        let table1 = rows(table1_name);
        for row in &sensitivity[1..] {
            let cell = table1
                .iter()
                .find(|cell| cell[0] == row[0] && cell[1] == "3BUS/1FU")
                .expect("every paper kind has a 3BUS/1FU cell");
            // "832 MHz (692)", or "10.30 GHz* (692)" above the ceiling.
            let mark = if cell[5].starts_with("NA") { "*" } else { "" };
            assert_eq!(
                row[column],
                format!("{}{mark} ({})", cell[4], cell[2]),
                "{} at {bytes} B",
                row[0]
            );
        }
    }
}
