//! Packet-size sensitivity of the Table 1 frequencies.
//!
//! The paper states the 10 Gbps target but not its traffic assumption.  This
//! prints the report's sensitivity section — `taco_core::report::render`,
//! the text `tests/golden/report.md` pins and EXPERIMENTS.md quotes: the
//! 3BUS/1FU column of Table 1 as packets shrink from jumbo frames to the
//! 84-byte minimum, one evaluation per cell at the cell's own rate, with the
//! crossings of the 0.18 µm feasibility ceiling marked.
//!
//! ```text
//! cargo run -p taco-bench --release --bin sensitivity
//! ```

use taco_bench::cli::Cli;

fn main() {
    Cli::new("sensitivity", "required clock vs packet-size assumption at 10 Gbps").parse_or_exit();
    let report = taco_core::report::render();
    let section = report
        .split("\n## ")
        .find(|section| section.starts_with("Packet-size sensitivity"))
        .expect("the report has a sensitivity section");
    print!("## {section}");
}
