//! Golden snapshot of the wire codec's bytes.
//!
//! Pins what `taco_core::api` writes — request lines of every kind in both
//! dialects (seeded, see `common/mod.rs`), one line per builtin workload
//! and per builtin fault plan, one machine line, response lines of
//! every kind, one cache-snapshot entry — as `tests/golden/wire_lines.txt`,
//! one `label line` pair per line.  Lines that carry a report or an inline
//! trace are stored as `#<bytes> <fnv1a64>`; a mismatch prints the line the
//! codec wrote.  The round-trip suites compare the encoder with the decoder
//! of the same build; this fixture is what fails when a change to the codec
//! moves a byte between builds.  Every pinned line is also read back and
//! re-encoded, so the decoder is held to the same bytes.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! BLESS=1 cargo test --test golden_wire
//! ```
//!
//! then review the fixture diff like any other code change.

mod common;

use std::path::{Path, PathBuf};

use common::{
    cases, envelope, eval, machine_line, read_machine, reread_request, response_lines, sweep,
    wire_line,
};
use taco::eval::api::{ApiRequest, EvalSpec, WireResponse};
use taco::eval::{ArchConfig, EvalCache, EvalRequest, FaultPlan, TableKind, Workload};
use taco_workload::trace::trace_fnv1a64;

const SEED: u64 = 0x601D_0001;
const CASES: u64 = 72;

/// Lines longer than this are pinned by length and hash.
const VERBATIM_MAX: usize = 480;

/// How a pinned line reads back and re-encodes.
#[derive(Clone, Copy)]
enum Reader {
    Request,
    Response,
    Machine,
    Snapshot,
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wire_lines.txt")
}

fn scratch_snapshot() -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("golden-wire-{}.snapshot", std::process::id()))
}

fn cam() -> ArchConfig {
    ArchConfig::three_bus_one_fu(TableKind::Cam)
}

/// The one entry line of a snapshot holding one evaluation.
fn snapshot_entry() -> String {
    let path = scratch_snapshot();
    let cache = EvalCache::new();
    cache.evaluate(&EvalRequest::new(cam()).entries(8));
    cache.save_snapshot(&path).expect("write snapshot");
    let content = std::fs::read_to_string(&path).expect("read snapshot back");
    std::fs::remove_file(&path).ok();
    content.lines().nth(2).expect("header, checksum, one entry").to_owned()
}

/// `entry` loaded from a snapshot file and saved again.
fn reload_snapshot_entry(entry: &str) -> String {
    let path = scratch_snapshot();
    let body = format!("{entry}\n");
    let content = format!(
        "taco-evalcache-snapshot v1\nchecksum {:016x}\n{body}",
        trace_fnv1a64(body.as_bytes())
    );
    std::fs::write(&path, content).expect("write snapshot");
    let cache = EvalCache::new();
    assert_eq!(cache.load_snapshot(&path).expect("the pinned entry loads"), 1);
    cache.save_snapshot(&path).expect("write snapshot");
    let content = std::fs::read_to_string(&path).expect("read snapshot back");
    std::fs::remove_file(&path).ok();
    content.lines().nth(2).expect("one entry").to_owned()
}

fn snapshot() -> Vec<(String, Reader, String)> {
    let mut lines = Vec::new();
    let mut case = 0;
    cases(SEED, CASES, |rng| {
        let envelope = envelope(rng);
        let request = match rng.below(8) {
            0 => ApiRequest::Status,
            1 => ApiRequest::Shutdown,
            2..=4 => sweep(rng),
            _ => eval(rng),
        };
        lines.push((format!("request.{case}"), Reader::Request, wire_line(envelope, &request)));
        case += 1;
    });
    for workload in Workload::builtin() {
        let mut spec = EvalSpec::new(cam());
        spec.workload = Some(workload);
        let line = ApiRequest::Eval(spec).to_json();
        lines.push((format!("workload.{}", workload.name()), Reader::Request, line));
    }
    for (name, plan) in FaultPlan::builtin() {
        let mut spec = EvalSpec::new(cam());
        spec.faults = Some(plan);
        let line = ApiRequest::Eval(spec).to_json_v2(7);
        lines.push((format!("faults.{name}"), Reader::Request, line));
    }
    lines.push(("machine.flat".to_owned(), Reader::Machine, machine_line(&cam())));
    for (at, line) in response_lines().iter().enumerate() {
        lines.push((format!("response.{at}"), Reader::Response, line.clone()));
    }
    lines.push(("snapshot.entry".to_owned(), Reader::Snapshot, snapshot_entry()));
    lines
}

/// `line` as the fixture stores it.
fn pinned(line: &str) -> String {
    if line.len() <= VERBATIM_MAX {
        return line.to_owned();
    }
    format!("#{} {:016x}", line.len(), trace_fnv1a64(line.as_bytes()))
}

#[test]
fn wire_lines_match_golden_fixture() {
    let current = snapshot();
    let rendered: String =
        current.iter().map(|(label, _, line)| format!("{label} {}\n", pinned(line))).collect();
    let path = fixture_path();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &rendered).expect("write fixture");
        eprintln!("blessed {} ({} lines)", path.display(), current.len());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with BLESS=1 cargo test --test golden_wire",
            path.display()
        )
    });
    assert_eq!(golden.lines().count(), current.len(), "the fixture's line count");
    for ((label, reader, line), want) in current.iter().zip(golden.lines()) {
        assert_eq!(
            format!("{label} {}", pinned(line)),
            want,
            "the codec's bytes drifted from the golden fixture; it wrote\n{line}\nif the \
             change is intentional, regenerate with BLESS=1 and review the diff"
        );
        // Reports of instances that could not be simulated do not read back.
        if line.contains("\"sim_error\":") {
            continue;
        }
        let reread = match reader {
            Reader::Request => reread_request(line),
            Reader::Response => WireResponse::from_json(line).map(|r| r.to_json()),
            Reader::Machine => read_machine(line).map(|config| machine_line(&config)),
            Reader::Snapshot => Ok(reload_snapshot_entry(line)),
        };
        assert_eq!(reread.as_deref(), Ok(line.as_str()), "{label} does not read back as written");
    }
    assert_eq!(rendered, golden);
}
