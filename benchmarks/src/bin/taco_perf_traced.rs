//! `taco-perf-traced` — the traced run.
//!
//! ```text
//! taco-perf-traced --workload NAME [--seed N] [--seconds S]
//! ```
//!
//! A binary of its own so that the counting allocator and the span
//! recorder never touch the end-to-end numbers.  It (1) alternates plain
//! and traced passes of the workload — the difference is
//! `run.trace_overhead_share` — and (2) runs the per-layer ledger, then
//! prints one `workload metric value unit` line per per-layer metric and
//! the JSON result line, and writes `out/layers.<workload>.json` (every
//! metric with its sample count, median and p95) and
//! `out/trace.<workload>.json` (Chrome trace).

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use taco_perf::json::{self, Metric};
use taco_perf::layers::{LayerMetric, Ledger};
use taco_perf::round::overhead_passes;
use taco_perf::spans::{chrome_trace, Recorder};
use taco_perf::stats;

/// Spans of each name kept in the Chrome trace (the ledger records
/// hundreds of thousands; a timeline needs a handful of each).
const TRACE_SPANS_PER_NAME: usize = 64;

/// Heap allocations made by this process so far.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting calls that obtain memory.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic
// that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn parse_args() -> Result<(String, u64, f64), String> {
    let (mut workload, mut seed, mut seconds) = (None, 2003u64, 10.0f64);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok((workload.ok_or("--workload is required")?, seed, seconds))
}

fn layers_json(workload: &str, seed: u64, metrics: &[LayerMetric], recorder: &Recorder) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"value\": {}, \"unit\": {}, \"samples\": {}, \"median\": {}, \
                 \"p95\": {}}}",
                json::string(&m.name),
                json::number(m.value),
                json::string(m.unit),
                m.samples,
                json::number(m.median),
                json::number(m.p95)
            )
        })
        .collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {seed},\n  \"nproc\": {},\n  \"spans\": {},\n  \
         \"metrics\": [\n{}\n  ]\n}}\n",
        json::string(workload),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        recorder.spans().len(),
        rows.join(",\n")
    )
}

fn run() -> Result<ExitCode, String> {
    let (workload, seed, seconds) = parse_args()?;
    let mut recorder = Recorder::new(Instant::now(), 0);

    // A quarter of the run compares plain and traced passes of the
    // workload; the rest is the ledger, sized by the same `--seconds`.
    let (mut plain, mut traced, ops, failed) =
        overhead_passes(&workload, seed, seconds * 0.25, &mut recorder)?;
    let cost = |costs: &mut [f64]| stats::gated_cost(costs).unwrap_or(f64::NAN);
    let overhead_share = 1.0 - cost(&mut plain) / cost(&mut traced);

    let outcome = Ledger::new(&mut recorder, seconds / 10.0, allocations).run(overhead_share)?;
    let attempted = outcome.attempted + ops;
    let failed = outcome.failed + failed;

    let out = taco_perf::out_dir();
    std::fs::create_dir_all(&out)
        .and_then(|()| {
            std::fs::write(
                out.join(format!("layers.{workload}.json")),
                layers_json(&workload, seed, &outcome.metrics, &recorder),
            )
        })
        .and_then(|()| {
            std::fs::write(
                out.join(format!("trace.{workload}.json")),
                chrome_trace(&recorder, TRACE_SPANS_PER_NAME),
            )
        })
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;

    let metrics: Vec<Metric> = outcome
        .metrics
        .iter()
        .map(|m| Metric { name: m.name.clone(), value: m.value, unit: m.unit })
        .collect();
    for m in &metrics {
        println!("{workload} {} {} {}", m.name, json::number(m.value), m.unit);
    }
    println!("{}", json::result_line(attempted, failed, &metrics));
    if failed > 0 {
        eprintln!("taco-perf-traced: {failed} of {attempted} operations failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    run().unwrap_or_else(|message| {
        eprintln!("taco-perf-traced: {message}");
        ExitCode::FAILURE
    })
}
