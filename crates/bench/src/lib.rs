//! Benchmark harness for the TACO IPv6 reproduction.
//!
//! The library part is the [`cli`] argument parser every binary shares (one
//! dialect, one tested `--help` generator).  The rest is the binaries
//! (timing lives in the stand-alone `benchmarks/` package, not here):
//!
//! | target | regenerates |
//! |---|---|
//! | `cargo run -p taco-bench --release --bin table1` | the paper's Table 1 |
//! | `cargo run -p taco-bench --release --bin scaling` | cycles vs table size (the structure behind Table 1) |
//! | `cargo run -p taco-bench --release --bin dse` | the automated design-space exploration (paper's future work) |
//! | `cargo run -p taco-bench --release --bin ablation` | sequential-scan microcode tunables (unroll, screening word) |
//! | `cargo run -p taco-bench --release --bin sensitivity` | the report's packet-size sensitivity section (3BUS/1FU required clock, 84 B – 9018 B) |
//! | `cargo run -p taco-bench --release --bin report` | the markdown reproduction report `tests/golden/report.md` pins (`taco_core::report::render`) |
//! | `cargo run -p taco-bench --release --bin scenarios` | the built-in behavioural workloads across the three table organisations |
//! | `cargo run -p taco-bench --release --bin taco-cli` | client/server front end for the `taco-served` daemon |
//! | `cargo run -p taco-bench --release --bin loadgen` | the event loop under 8/64/256 concurrent one-shot and session clients (deadlock smoke) |

pub mod cli;
