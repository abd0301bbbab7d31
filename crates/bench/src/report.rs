//! `taco-cli report` — the markdown reproduction report, measured live:
//! `taco_core::report::render`, the text `tests/golden/report.md` pins and
//! EXPERIMENTS.md quotes, so a reader can diff their machine's numbers
//! against the shipped ones.  With a section name, that `## …` section
//! alone.

use crate::cli::Cli;

pub fn run(args: Vec<String>) {
    let report = taco_core::report::render();
    // The section names are the report's own `<!-- report:NAME -->` markers.
    let names: Vec<&str> = report
        .split("<!-- report:")
        .skip(1)
        .filter_map(|s| s.split_once(" -->"))
        .map(|s| s.0)
        .collect();
    let names = names.join(", ");
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
