#![warn(missing_docs)]

//! The repo benchmark: six workloads, four gated end-to-end metrics plus
//! the failed-operation count, and an outside-in ledger of per-layer
//! times.
//!
//! Everything is measured **from outside**: this package depends on the
//! workspace crates by path, calls only their public items, and times
//! those calls with `std::time::Instant`.  `README.md` beside this
//! package defines the metrics and workloads, records why rates are
//! reported from the p05 of calibrated pass costs, and lists the public
//! items the benchmark pins.
//!
//! * [`workloads`] — the six workloads: set-up, one timed pass, its
//!   correctness check;
//! * [`round`] — one workload-round (a child process) and the pooling of
//!   rounds into the end-to-end metrics;
//! * [`calib`] — the calibration kernel that brackets every pass, so pass
//!   times repeat on a machine whose speed changes under the benchmark;
//! * [`stats`] — exact order statistics and pooling;
//! * [`spans`] — the in-memory span recorder of the traced run;
//! * [`layers`] — the traced run's per-layer ledger, including the
//!   evaluate-path replica;
//! * [`json`] — rendering of the result line and the output files;
//! * [`manifest`] — `BENCHMARK.json` rendered from the definitions above.

pub mod calib;
pub mod json;
pub mod layers;
pub mod manifest;
pub mod round;
pub mod spans;
pub mod stats;
pub mod workloads;

/// Where the output files go: `out/` inside this package.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
