//! The `taco-cli` dispatcher, driven as a process: every subcommand is
//! reachable and answers `--help`, a wrong or missing subcommand exits 2
//! with the overview, and `report [SECTION]` prints the fixture's bytes.

use std::process::{Command, Output};

const SUBCOMMANDS: [&str; 14] = [
    "table1",
    "scaling",
    "report",
    "dse",
    "ablation",
    "scenarios",
    "churn",
    "trace",
    "tracegen",
    "loadgen",
    "serve",
    "submit",
    "status",
    "shutdown",
];

fn taco_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_taco-cli")).args(args).output().expect("taco-cli runs")
}

fn stdout(output: &Output) -> &str {
    std::str::from_utf8(&output.stdout).expect("stdout is UTF-8")
}

fn stderr(output: &Output) -> &str {
    std::str::from_utf8(&output.stderr).expect("stderr is UTF-8")
}

fn fixture() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/report.md");
    std::fs::read_to_string(path).expect("the report fixture")
}

#[test]
fn every_subcommand_answers_help() {
    for sub in SUBCOMMANDS {
        let output = taco_cli(&[sub, "--help"]);
        assert_eq!(output.status.code(), Some(0), "{sub} --help");
        let usage = format!("usage: taco-cli {sub}");
        assert!(stdout(&output).contains(&usage), "{sub} --help lacks {usage:?}");
    }
}

#[test]
fn a_wrong_or_missing_subcommand_exits_2_with_the_overview() {
    let unknown = taco_cli(&["sensitivity"]);
    assert!(stderr(&unknown).contains("unknown subcommand \"sensitivity\""));
    for output in [unknown, taco_cli(&[])] {
        assert_eq!(output.status.code(), Some(2));
        for sub in SUBCOMMANDS {
            let line = format!("\n  {sub} ");
            assert!(stdout(&output).contains(&line), "the overview lacks {sub}");
        }
    }
}

#[test]
fn report_prints_the_fixture_and_each_of_its_sections() {
    let golden = fixture();
    let whole = taco_cli(&["report"]);
    assert_eq!(whole.status.code(), Some(0));
    assert_eq!(stdout(&whole), golden);

    const SECTIONS: [&str; 5] = ["table1-1040", "table1-84", "sensitivity", "scaling", "checklist"];
    for name in SECTIONS {
        let section = taco_cli(&["report", name]);
        assert_eq!(section.status.code(), Some(0), "report {name}");
        let marker = golden.find(&format!("<!-- report:{name} -->")).expect("the fixture's marker");
        let from = golden[..marker].rfind("## ").expect("the section's heading");
        let len = golden[from..].find("\n## ").unwrap_or(golden.len() - from);
        assert_eq!(stdout(&section), &golden[from..from + len], "report {name}");
    }
    assert!(stdout(&taco_cli(&["report", "sensitivity"])).starts_with("## Packet-size sensitivity"));

    let nonsense = taco_cli(&["report", "nonsense"]);
    assert_eq!(nonsense.status.code(), Some(2));
    assert!(nonsense.stdout.is_empty());
    for name in SECTIONS {
        assert!(stderr(&nonsense).contains(name), "the error does not name {name}");
    }
}
