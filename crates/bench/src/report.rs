//! `taco-cli report` — the markdown reproduction report, measured live:
//! `taco_core::report::render`, the text `tests/golden/report.md` pins and
//! EXPERIMENTS.md quotes, so a reader can diff their machine's numbers
//! against the shipped ones.  With a section name, that `## …` section
//! alone.

use crate::cli::Cli;

/// The names of `report`'s `<!-- report:NAME -->` markers, in order.
fn sections(report: &str) -> Vec<&str> {
    report
        .split("<!-- report:")
        .skip(1)
        .map(|after| after.split_once(" -->").expect("a marker ends its line").0)
        .collect()
}

pub fn run(args: Vec<String>) {
    let report = taco_core::report::render();
    let names = sections(&report).join(", ");
    let cli = Cli::new(
        "taco-cli report",
        "live markdown reproduction report with the paper-claim checklist",
    )
    .positional("section", &format!("print one section only: {names}"), Some(""));
    let args = cli.parse_args_or_exit(args);
    let name = args.pos("section");
    if name.is_empty() {
        print!("{report}");
        return;
    }
    let marker = format!("<!-- report:{name} -->");
    match report.split("\n## ").find(|section| section.contains(&marker)) {
        Some(section) => print!("## {section}"),
        None => cli.fail(&format!("unknown section {name:?}; expected one of: {names}")),
    }
}
