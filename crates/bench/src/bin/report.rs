//! Prints the markdown reproduction report — Table 1 at both traffic
//! operating points, the scaling sweep and the paper-claim checklist —
//! measured live.  The rendering is `taco_core::report::render`, the text
//! `tests/golden/report.md` pins and EXPERIMENTS.md quotes, so a reader can
//! diff their machine's numbers against the shipped ones.
//!
//! ```text
//! cargo run -p taco-bench --release --bin report > report.md
//! ```

use taco_bench::cli::Cli;

fn main() {
    Cli::new("report", "live markdown reproduction report with the paper-claim checklist")
        .parse_or_exit();
    print!("{}", taco_core::report::render());
}
