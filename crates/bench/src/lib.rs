//! `taco-cli`: the one executable that regenerates the paper's evaluation
//! and fronts the `taco-served` daemon.
//!
//! The library is the [`cli`] argument parser every subcommand shares (one
//! dialect, one tested `--help` generator) and one module per subcommand,
//! each with a `run(args)` the dispatcher in `src/bin/taco_cli.rs` calls
//! (timing lives in the stand-alone `benchmarks/` package, not here):
//!
//! | `cargo run -p taco-bench --release --bin taco-cli -- …` | regenerates |
//! |---|---|
//! | `table1` | the paper's Table 1 |
//! | `scaling` | cycles vs table size (the structure behind Table 1) |
//! | `report [SECTION]` | the markdown reproduction report `tests/golden/report.md` pins (`taco_core::report::render`), or one section of it (`report sensitivity`: 3BUS/1FU required clock, 84 B – 9018 B) |
//! | `dse` | the automated design-space exploration (paper's future work) |
//! | `ablation` | sequential-scan microcode tunables (unroll, screening word) |
//! | `scenarios` | the built-in behavioural workloads across the three table organisations |
//! | `churn` | the 100k-prefix bounded-arena churn smoke |
//! | `trace` | a per-cycle bus-occupancy strip of one Table 1 cell |
//! | `tracegen` | a flow trace, round-tripped through disk and replayed |
//! | `loadgen` | the event loop under 8/64/256 concurrent one-shot and session clients (deadlock smoke) |
//! | `serve`, `submit`, `status`, `shutdown` | client/server front end for the `taco-served` daemon |

pub mod ablation;
pub mod churn;
pub mod cli;
pub mod dse;
pub mod loadgen;
pub mod report;
pub mod scaling;
pub mod scenarios;
pub mod table1;
pub mod trace;
pub mod tracegen;
