//! Golden snapshot of the behavioural scenarios.
//!
//! Pins `ScenarioMetrics::to_json()` for the six builtin workloads on all
//! four table organisations (3BUS/1FU) as a byte-stable fixture in
//! `tests/golden/scenarios.json` — 24 lines, workload-major.  The
//! scenario engine's own determinism suites compare a run with another
//! run of the same build; this fixture is what fails when a change to
//! the router, the RIPng engine or an LPM table moves scenario bytes
//! between builds (forwarded counts, latency histograms, `ripng_sent`,
//! `table_memory_words`, …).
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! BLESS=1 cargo test --test golden_scenarios
//! ```
//!
//! then review the fixture diff like any other code change.

use std::path::PathBuf;

use taco::eval::{ArchConfig, EvalRequest, Workload};
use taco::routing::TableKind;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/scenarios.json")
}

fn snapshot() -> String {
    let mut out = String::new();
    for workload in Workload::builtin() {
        for kind in TableKind::ALL_KINDS {
            let report =
                EvalRequest::new(ArchConfig::three_bus_one_fu(kind)).workload(workload).run();
            let metrics = report
                .scenario
                .unwrap_or_else(|| panic!("{} on {kind} produced no metrics", workload.name()));
            out.push_str(&metrics.to_json());
            out.push('\n');
        }
    }
    out
}

#[test]
fn scenarios_match_golden_fixture() {
    let current = snapshot();
    let path = fixture_path();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &current).expect("write fixture");
        eprintln!("blessed {} ({} cells)", path.display(), current.lines().count());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with \
             BLESS=1 cargo test --test golden_scenarios",
            path.display()
        )
    });
    assert_eq!(
        golden.lines().count(),
        Workload::builtin().len() * TableKind::ALL_KINDS.len(),
        "one line per workload x table kind"
    );
    // Cell by cell first: one drifted line reads better than a 24-line diff.
    for (got, want) in current.lines().zip(golden.lines()) {
        assert_eq!(
            got, want,
            "scenario metrics drifted from the golden fixture; if the change is \
             intentional, regenerate with BLESS=1 and review the diff"
        );
    }
    assert_eq!(current, golden);
}
