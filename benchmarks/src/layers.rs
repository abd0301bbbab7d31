//! The traced run's per-layer ledger.
//!
//! Every number here is a diagnostic, none is gated.  Each comes from
//! spans this file records around calls into one layer's public
//! functions; a span's name is the metric's name.  For the evaluate path
//! one evaluation is re-assembled from public pieces (the *replica*) and
//! must reproduce `evaluate_request`'s cycles, program bits, required
//! clock and estimate exactly — a decomposition that simulates something
//! else would measure a different program, so a mismatch counts the
//! whole span set as failed.

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;

use taco_core::api::{ApiRequest, ApiResponse, EvalSpec, WireResponse};
use taco_core::{
    benchmark_routes, evaluate_request, explore_with, pool, rank_reports, ArchConfig, Constraints,
    EvalCache, EvalReport, EvalRequest, ExploreOptions, FaultPlan, FlowTrace, LineRate, Silent,
    SweepSpec, TraceGen, Workload,
};
use taco_estimate::{Estimator, ExternalCam};
use taco_ipv6::{Datagram, NextHeader};
use taco_isa::{MachineConfig, MoveSeq, SystemConfig, Topology};
use taco_router::cycle::CycleRouter;
use taco_router::microcode::{
    cam_program, choose_screen_word, patricia_program, sequential_program, tree_program,
    MicrocodeOptions,
};
use taco_router::traffic::TrafficGen;
use taco_routing::{PortId, Route, SequentialTable, TableKind};
use taco_served::{request_lines, Server, ServerConfig, Session};
use taco_sim::Processor;
use taco_workload::{run_scenario_with_faults, ScenarioConfig};

use crate::spans::{self_times, NameId, Recorder};
use crate::stats;
use crate::workloads;

/// The table kinds the ledger decomposes (`<K>` in metric names).
pub const KINDS: [(TableKind, &str); 4] = [
    (TableKind::Sequential, "sequential"),
    (TableKind::BalancedTree, "balanced-tree"),
    (TableKind::Cam, "cam"),
    (TableKind::Patricia, "patricia"),
];

/// The table sizes the evaluate path is decomposed at.
pub const SIZES: [(usize, &str); 2] = [(100, "n100"), (1024, "n1024")];

/// Simulation watchdog of the replica — `evaluate_request`'s own budget.
const CYCLE_BUDGET: u64 = 50_000_000;
/// Measurement datagrams per evaluation, as in `evaluate_request`.
const MEASURE_DATAGRAMS: usize = 8;
/// Prefixes in the LPM micro-benchmark table.
const BGP_PREFIXES: usize = 10_000;
/// Fixed service rate and queue bound of the stand-alone scenario spans
/// (what the `scenarios` bin uses), so they isolate the harness.
const SERVICE_PER_TICK: u32 = 24;
const QUEUE_CAPACITY: u32 = 48;

/// One per-layer metric as reported.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    /// The name `BENCHMARK.json` lists it under.
    pub name: String,
    /// The reported value: the p05-rule statistic for times, the stated
    /// percentile for latencies, the exact value for counts.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind a time (0 for counts and derived values).
    pub samples: usize,
    /// Ungated median of the samples (the value itself when derived).
    pub median: f64,
    /// Ungated p95 of the samples (the value itself when derived).
    pub p95: f64,
}

/// `(name, unit, better)` of every per-layer metric, in report order —
/// the list `BENCHMARK.json` must carry.
pub fn layer_metric_defs() -> Vec<(String, &'static str, &'static str)> {
    let mut defs: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: String, unit, better| defs.push((name, unit, better));
    for (_, n) in SIZES {
        add(format!("core.routes_us.{n}"), "us", "lower");
    }
    for (_, n) in SIZES {
        add(format!("router.datagrams_us.{n}"), "us", "lower");
    }
    for (_, k) in KINDS {
        add(format!("routing.build_us.{k}"), "us", "lower");
    }
    for (_, k) in KINDS {
        for (_, n) in SIZES {
            add(format!("router.build_us.{k}.{n}"), "us", "lower");
        }
    }
    for (_, k) in KINDS {
        add(format!("sim.construct_us.{k}"), "us", "lower");
    }
    add("router.enqueue_us".into(), "us", "lower");
    add("router.forwarded_us".into(), "us", "lower");
    for family in ["router.microcode_us", "isa.optimize_us", "isa.schedule_us"] {
        for (_, k) in KINDS {
            add(format!("{family}.{k}"), "us", "lower");
        }
    }
    for (_, k) in KINDS {
        for (_, n) in SIZES {
            add(format!("sim.run_us.{k}.{n}"), "us", "lower");
        }
    }
    for (_, k) in KINDS {
        for (_, n) in SIZES {
            add(format!("sim.run_cycles.{k}.{n}"), "count", "lower");
        }
    }
    for (_, k) in KINDS {
        add(format!("sim.mcycles_per_s.{k}"), "Mcycles/s", "higher");
    }
    for (_, k) in KINDS {
        add(format!("isa.encode_us.{k}"), "us", "lower");
    }
    add("estimate.estimate_us".into(), "us", "lower");
    for (_, k) in KINDS {
        for (_, n) in SIZES {
            add(format!("core.evaluate_us.{k}.{n}"), "us", "lower");
        }
    }
    for (_, k) in KINDS {
        add(format!("core.evaluate_unattributed_us.{k}"), "us", "lower");
    }
    for (_, k) in KINDS {
        add(format!("core.evaluate_allocs.{k}"), "count", "lower");
    }
    for w in Workload::builtin() {
        add(format!("workload.scenario_ms.{}", w.name()), "ms", "lower");
    }
    for (_, k) in KINDS {
        add(format!("workload.kind_ms.{k}"), "ms", "lower");
    }
    add("workload.scenario_ms.multicore-2c-mesh".into(), "ms", "lower");
    add("workload.scenario_ms.faults-storm".into(), "ms", "lower");
    add("workload.tracegen_us".into(), "us", "lower");
    add("workload.trace_decode_us".into(), "us", "lower");
    for family in ["routing.lookup_ns", "routing.insert_ns"] {
        for (_, k) in KINDS {
            add(format!("{family}.{k}"), "ns", "lower");
        }
    }
    add("core.cache_hit_ns".into(), "ns", "lower");
    add("core.cache_insert_ns".into(), "ns", "lower");
    add("core.rank_us".into(), "us", "lower");
    add("core.pool_dispatch_us".into(), "us", "lower");
    for name in ["request_encode_ns", "request_parse_ns", "response_encode_ns", "response_parse_ns"]
    {
        add(format!("api.{name}"), "ns", "lower");
    }
    add("api.response_bytes".into(), "bytes", "lower");
    add("served.status_rps".into(), "1/s", "higher");
    for name in [
        "miss_lat_p50_us",
        "lat_p50_us",
        "lat_p99_us",
        "oneshot_lat_p50_us",
        "oneshot_lat_p99_us",
        "connect_us",
    ] {
        add(format!("served.{name}"), "us", "lower");
    }
    add("served.busy_rejections".into(), "count", "lower");
    add("run.trace_overhead_share".into(), "ratio", "lower");
    defs
}

/// Nanoseconds per unit of a time metric, from its name's suffix.
fn nanos_per_unit(unit: &str) -> f64 {
    match unit {
        "ns" => 1.0,
        "us" => 1e3,
        "ms" => 1e6,
        other => panic!("{other} is not a time unit"),
    }
}

/// The ledger under construction: the recorder the spans go to, and the
/// metrics derived from them so far.
pub struct Ledger<'a> {
    rec: &'a mut Recorder,
    /// How many times each measurement repeats, relative to a 10 s run.
    scale: f64,
    /// Allocation counter of the traced binary's global allocator.
    allocations: fn() -> u64,
    metrics: Vec<LayerMetric>,
    /// Checked operations (replicas, served requests) …
    pub attempted: u64,
    /// … and how many of them failed their check.
    pub failed: u64,
}

impl<'a> Ledger<'a> {
    /// A ledger recording into `rec`.  `scale` multiplies every repeat
    /// count (1.0 sizes the ledger for a 10 s run).
    pub fn new(rec: &'a mut Recorder, scale: f64, allocations: fn() -> u64) -> Self {
        Ledger { rec, scale, allocations, metrics: Vec::new(), attempted: 0, failed: 0 }
    }

    fn reps(&self, at_full_scale: usize) -> usize {
        ((at_full_scale as f64 * self.scale).round() as usize).max(3)
    }

    /// Reports the p05-rule time of the spans named `name` under that
    /// name, in `unit`.
    fn time_metric(&mut self, name: &str, unit: &'static str) {
        let mut samples = self.rec.per_item_nanos(name);
        self.push_samples(name, unit, &mut samples, nanos_per_unit(unit));
    }

    fn push_samples(&mut self, name: &str, unit: &'static str, samples: &mut [f64], div: f64) {
        match stats::summarize(samples) {
            Some(s) => self.metrics.push(LayerMetric {
                name: name.to_owned(),
                value: s.p05 / div,
                unit,
                samples: s.samples,
                median: s.median / div,
                p95: s.p95 / div,
            }),
            None => {
                // Nothing was recorded: the measured call never ran.
                self.failed += 1;
                self.attempted += 1;
                self.derived(name, f64::NAN, unit);
            }
        }
    }

    /// Reports a count or a value derived from other metrics.
    fn derived(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(LayerMetric {
            name: name.to_owned(),
            value,
            unit,
            samples: 0,
            median: value,
            p95: value,
        });
    }

    /// Reports percentile `p` of the latencies recorded under `span`.
    fn latency_metric(&mut self, name: &str, span: &str, p: f64) {
        let mut samples = self.rec.per_item_nanos(span);
        samples.sort_unstable_by(f64::total_cmp);
        if samples.is_empty() {
            self.failed += 1;
            self.attempted += 1;
            return self.derived(name, f64::NAN, "us");
        }
        let value = stats::nearest_rank(&samples, p) / 1e3;
        self.metrics.push(LayerMetric {
            name: name.to_owned(),
            value,
            unit: "us",
            samples: samples.len(),
            median: stats::nearest_rank(&samples, 50.0) / 1e3,
            p95: stats::nearest_rank(&samples, 95.0) / 1e3,
        });
    }

    fn value_of(&self, name: &str) -> f64 {
        self.metrics.iter().find(|m| m.name == name).map_or(f64::NAN, |m| m.value)
    }

    /// Runs every family and returns the metrics in [`layer_metric_defs`]
    /// order.  `overhead_share` is `run.trace_overhead_share`, measured by
    /// the caller on its workload.
    ///
    /// # Errors
    ///
    /// A daemon that cannot be started.
    pub fn run(mut self, overhead_share: f64) -> Result<LedgerOutcome, String> {
        self.evaluate_path();
        self.table_builds();
        self.processor_construction();
        self.microcode_pipeline();
        self.scenarios();
        self.lpm_engines();
        self.cache_rank_pool();
        self.api_codec();
        self.served()?;
        self.derived("run.trace_overhead_share", overhead_share, "ratio");

        // Report in the order BENCHMARK.json lists, and only those names.
        let mut ordered = Vec::new();
        for (name, unit, _) in layer_metric_defs() {
            match self.metrics.iter().find(|m| m.name == name) {
                Some(m) => ordered.push(m.clone()),
                None => {
                    self.failed += 1;
                    self.attempted += 1;
                    ordered.push(LayerMetric {
                        name,
                        value: f64::NAN,
                        unit,
                        samples: 0,
                        median: f64::NAN,
                        p95: f64::NAN,
                    });
                }
            }
        }
        Ok(LedgerOutcome { metrics: ordered, attempted: self.attempted, failed: self.failed })
    }

    // -- evaluate path -----------------------------------------------------

    /// `core.evaluate_us`, and its replica: routes, datagrams, router
    /// build, enqueue, run, forwarded, encode, estimate.
    fn evaluate_path(&mut self) {
        let reps = self.reps(60);
        for (kind, k) in KINDS {
            for (entries, n) in SIZES {
                let request = EvalRequest::new(ArchConfig::three_bus_one_fu(kind)).entries(entries);
                let names = ReplicaNames::intern(self.rec, k, n, entries == SIZES[0].0);
                // Warm the program cache, and learn the converged RTU
                // latency the replica must build its router with.
                let report = evaluate_request(&request);
                if entries == SIZES[0].0 {
                    let before = (self.allocations)();
                    let again = evaluate_request(&request);
                    let allocs = (self.allocations)() - before;
                    drop(again);
                    self.derived(&format!("core.evaluate_allocs.{k}"), allocs as f64, "count");
                }
                let mut cycles = None;
                for _ in 0..reps {
                    self.rec.next_op();
                    let whole = self.rec.span(names.evaluate, |_| evaluate_request(&request));
                    self.rec.next_op();
                    let replica = replica(self.rec, &names, &request, &report);
                    self.attempted += 1;
                    let exact =
                        whole == report && replica.is_some_and(|c| *cycles.get_or_insert(c) == c);
                    self.failed += u64::from(!exact);
                }
                self.time_metric(&format!("core.evaluate_us.{k}.{n}"), "us");
                self.time_metric(&format!("router.build_us.{k}.{n}"), "us");
                self.time_metric(&format!("sim.run_us.{k}.{n}"), "us");
                let cycles = cycles.unwrap_or(0);
                self.derived(&format!("sim.run_cycles.{k}.{n}"), cycles as f64, "count");
                if entries == SIZES[1].0 {
                    // cycles / µs = Mcycles / s
                    let run_us = self.value_of(&format!("sim.run_us.{k}.{n}"));
                    self.derived(
                        &format!("sim.mcycles_per_s.{k}"),
                        cycles as f64 / run_us,
                        "Mcycles/s",
                    );
                } else {
                    self.time_metric(&format!("isa.encode_us.{k}"), "us");
                    self.unattributed(k, n);
                }
            }
        }
        for (_, n) in SIZES {
            self.time_metric(&format!("core.routes_us.{n}"), "us");
            self.time_metric(&format!("router.datagrams_us.{n}"), "us");
        }
        self.time_metric("router.enqueue_us", "us");
        self.time_metric("router.forwarded_us", "us");
        self.time_metric("estimate.estimate_us", "us");
    }

    /// `core.evaluate_unattributed_us.<K>`: the whole `evaluate_request`
    /// minus what the replica's parts cover — the second router build for
    /// the program size, CAM fixed-point re-measures, stats folding: what
    /// only spans inside the program could name.
    fn unattributed(&mut self, k: &str, n: &str) {
        let replica_name = format!("core.replica_us.{k}.{n}");
        let spans = self.rec.spans();
        let selfs = self_times(spans);
        let mut attributed: Vec<f64> = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| self.rec.name_of(s.name) == replica_name)
            .map(|(s, own)| (s.nanos() - own) as f64)
            .collect();
        let whole = self.value_of(&format!("core.evaluate_us.{k}.{n}"));
        let parts = stats::summarize(&mut attributed).map_or(f64::NAN, |s| s.p05 / 1e3);
        self.derived(&format!("core.evaluate_unattributed_us.{k}"), whole - parts, "us");
    }

    /// `routing.build_us.<K>`: the behavioural table from a route list.
    fn table_builds(&mut self) {
        let routes = benchmark_routes(SIZES[0].0);
        for (kind, k) in KINDS {
            let name = self.rec.name(&format!("routing.build_us.{k}"));
            for _ in 0..self.reps(200) {
                self.rec.span(name, |_| kind.build(&routes));
            }
            self.time_metric(&format!("routing.build_us.{k}"), "us");
        }
    }

    /// `sim.construct_us.<K>`: `Processor::new_shared`, i.e. pre-decoding
    /// an already scheduled program.
    fn processor_construction(&mut self) {
        let routes = benchmark_routes(SIZES[0].0);
        let machine = MachineConfig::three_bus_one_fu();
        for (kind, k) in KINDS {
            let name = self.rec.name(&format!("sim.construct_us.{k}"));
            let Ok(router) =
                CycleRouter::for_kind(kind, &machine, &routes, 1, &MicrocodeOptions::default())
            else {
                continue;
            };
            let program = Arc::new(router.processor().program().clone());
            for _ in 0..self.reps(200) {
                let built = self
                    .rec
                    .span(name, |_| Processor::new_shared(machine.clone(), Arc::clone(&program)));
                self.attempted += 1;
                self.failed += u64::from(built.is_err());
            }
            self.time_metric(&format!("sim.construct_us.{k}"), "us");
        }
    }

    /// `router.microcode_us`, `isa.optimize_us`, `isa.schedule_us`: what
    /// the program cache pays once per process and machine shape.
    fn microcode_pipeline(&mut self) {
        let machine = MachineConfig::three_bus_one_fu();
        let opts = MicrocodeOptions::default();
        let table = SequentialTable::from_routes(benchmark_routes(SIZES[0].0));
        let unroll = usize::from(opts.unroll);
        let padded = table.entries().len().div_ceil(unroll).max(1) * unroll;
        let tuned = MicrocodeOptions { screen_word: choose_screen_word(&table), ..opts };
        for (kind, k) in KINDS {
            let generate = |_: &mut Recorder| -> MoveSeq {
                match kind {
                    TableKind::Sequential => sequential_program(padded, &tuned),
                    TableKind::BalancedTree => tree_program(&opts),
                    TableKind::Cam => cam_program(&opts),
                    _ => patricia_program(&opts),
                }
            };
            let microcode = self.rec.name(&format!("router.microcode_us.{k}"));
            let optimize = self.rec.name(&format!("isa.optimize_us.{k}"));
            let schedule = self.rec.name(&format!("isa.schedule_us.{k}"));
            for _ in 0..self.reps(40) {
                let mut seq = self.rec.span(microcode, generate);
                self.rec.span(optimize, |_| taco_isa::optimize(&mut seq));
                let resolved = self.rec.span(schedule, |_| {
                    let mut program = taco_isa::schedule(&seq, &machine);
                    program.resolve_labels().map(|()| program)
                });
                self.attempted += 1;
                self.failed += u64::from(resolved.is_err());
            }
            self.time_metric(&format!("router.microcode_us.{k}"), "us");
            self.time_metric(&format!("isa.optimize_us.{k}"), "us");
            self.time_metric(&format!("isa.schedule_us.{k}"), "us");
        }
    }

    // -- scenario harness and LPM engines ----------------------------------

    /// `workload.*`: the behavioural harness on its own, at a fixed
    /// service rate.
    fn scenarios(&mut self) {
        let reps = self.reps(10);
        let config = |kind| {
            ScenarioConfig::new(kind)
                .service_per_tick(SERVICE_PER_TICK)
                .queue_capacity(QUEUE_CAPACITY)
        };
        let mut cells: Vec<(String, Workload, ScenarioConfig, Option<FaultPlan>)> = Vec::new();
        for w in Workload::builtin() {
            cells.push((
                format!("workload.scenario_ms.{}", w.name()),
                w,
                config(TableKind::Patricia),
                None,
            ));
        }
        for (kind, k) in KINDS {
            cells.push((
                format!("workload.kind_ms.{k}"),
                Workload::steady_forward(),
                config(kind),
                None,
            ));
        }
        cells.push((
            "workload.scenario_ms.multicore-2c-mesh".into(),
            Workload::table_churn(),
            config(TableKind::Cam).system(SystemConfig::with_cores(2).topology(Topology::Mesh)),
            None,
        ));
        cells.push((
            "workload.scenario_ms.faults-storm".into(),
            Workload::steady_forward(),
            config(TableKind::Patricia),
            Some(FaultPlan::storm()),
        ));
        for (name, workload, config, faults) in &cells {
            let id = self.rec.name(name);
            let mut first: Option<String> = None;
            for _ in 0..reps {
                let metrics = self
                    .rec
                    .span(id, |_| run_scenario_with_faults(workload, config, faults.as_ref()));
                let json = metrics.to_json();
                self.attempted += 1;
                self.failed += u64::from(*first.get_or_insert_with(|| json.clone()) != json);
            }
            self.time_metric(name, "ms");
        }

        let descriptor = Workload::trace_replay();
        let Workload::TraceReplay { seed, ticks, flows, entries } = descriptor else {
            unreachable!("trace_replay() builds a TraceReplay");
        };
        let tracegen = self.rec.name("workload.tracegen_us");
        let decode = self.rec.name("workload.trace_decode_us");
        for _ in 0..self.reps(40) {
            let trace =
                self.rec.span(tracegen, |_| TraceGen::generate(seed, ticks, flows, entries));
            let bytes = trace.to_bytes();
            let decoded = self.rec.span(decode, |_| FlowTrace::from_bytes(&bytes));
            self.attempted += 1;
            self.failed += u64::from(decoded.map_or(true, |d| d.digest() != trace.digest()));
        }
        self.time_metric("workload.tracegen_us", "us");
        self.time_metric("workload.trace_decode_us", "us");
    }

    /// `routing.lookup_ns` / `routing.insert_ns` on a BGP-shaped table.
    fn lpm_engines(&mut self) {
        const BATCH: usize = 64;
        let mut gen = TrafficGen::new(0xB6B, 4);
        let routes = gen.bgp_table(BGP_PREFIXES, false);
        let extra: Vec<Route> = gen.bgp_table(BGP_PREFIXES / 4, false);
        let probes: Vec<_> =
            (0..BATCH).map(|i| gen.addr_in(&routes[i * 97 % routes.len()].prefix())).collect();
        for (kind, k) in KINDS {
            let lookup = self.rec.name(&format!("routing.lookup_ns.{k}"));
            let insert = self.rec.name(&format!("routing.insert_ns.{k}"));
            let mut table = kind.build(&routes);
            let mut hits = 0usize;
            for _ in 0..self.reps(40) {
                hits += self.rec.span_n(lookup, BATCH as u32, |_| {
                    probes.iter().filter(|addr| table.lookup(addr).is_hit()).count()
                });
            }
            self.attempted += 1;
            self.failed += u64::from(hits == 0);
            for batch in extra.chunks(BATCH).take(self.reps(30)) {
                self.rec.span_n(insert, batch.len() as u32, |_| {
                    for route in batch {
                        table.insert(*route);
                    }
                });
            }
            self.time_metric(&format!("routing.lookup_ns.{k}"), "ns");
            self.time_metric(&format!("routing.insert_ns.{k}"), "ns");
        }
    }

    // -- cache, ranking, pool, codec ---------------------------------------

    /// `core.cache_hit_ns`, `core.cache_insert_ns`, `core.rank_us`,
    /// `core.pool_dispatch_us`.
    fn cache_rank_pool(&mut self) {
        const BATCH: usize = 200;
        let requests: Vec<EvalRequest> =
            ArchConfig::table1_cells().into_iter().map(EvalRequest::new).collect();
        let warm = EvalCache::new();
        for request in &requests {
            warm.evaluate_recorded(request);
        }
        let hit = self.rec.name("core.cache_hit_ns");
        for _ in 0..self.reps(40) {
            let hits = self.rec.span_n(hit, BATCH as u32, |_| {
                (0..BATCH)
                    .filter(|i| warm.lookup_recorded(&requests[i % requests.len()]).is_some())
                    .count()
            });
            self.attempted += 1;
            self.failed += u64::from(hits != BATCH);
        }
        self.time_metric("core.cache_hit_ns", "ns");

        // An insert cannot be called on its own: it is a miss through
        // `evaluate_recorded` minus the same evaluation without a cache.
        let cheap = EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam)).entries(2);
        let missed = self.rec.name("core.cache_miss_us");
        let bare = self.rec.name("core.cache_bare_us");
        for _ in 0..self.reps(200) {
            let cache = EvalCache::new();
            let (_, was_hit) = self.rec.span(missed, |_| cache.evaluate_recorded(&cheap));
            self.rec.span(bare, |_| evaluate_request(&cheap));
            self.attempted += 1;
            self.failed += u64::from(was_hit);
        }
        let p05 = |rec: &Recorder, name| {
            stats::summarize(&mut rec.per_item_nanos(name)).map_or(f64::NAN, |s| s.p05)
        };
        let insert = p05(self.rec, "core.cache_miss_us") - p05(self.rec, "core.cache_bare_us");
        self.derived("core.cache_insert_ns", insert, "ns");

        let spec = SweepSpec::default();
        let constraints = Constraints::default();
        let options = ExploreOptions { threads: 2, cache: Some(&warm), observer: &Silent };
        let exploration = explore_with(&spec, LineRate::TEN_GBE, &constraints, &options);
        let rank = self.rec.name("core.rank_us");
        for _ in 0..self.reps(40) {
            let admitted = self.rec.span_n(rank, 100, |_| {
                (0..100).map(|_| rank_reports(&exploration.all, &constraints).len()).sum::<usize>()
            });
            self.attempted += 1;
            self.failed += u64::from(admitted != 100 * exploration.admitted.len());
        }
        self.time_metric("core.rank_us", "us");

        let points = vec![0u8; exploration.all.len()];
        let dispatch = self.rec.name("core.pool_dispatch_us");
        for _ in 0..self.reps(200) {
            self.rec.span(dispatch, |_| pool::ordered_map(&points, 2, |index, _| index));
        }
        self.time_metric("core.pool_dispatch_us", "us");
    }

    /// `api.*`: the codec on one `eval` request and its `eval_result`.
    fn api_codec(&mut self) {
        const BATCH: usize = 100;
        let request = EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam));
        let Some(spec) = EvalSpec::from_request(&request) else {
            return;
        };
        let api_request = ApiRequest::Eval(spec);
        let request_line = api_request.to_json();
        let response = ApiResponse::EvalResult(Box::new(evaluate_request(&request)));
        let response_line = response.to_json();
        self.derived("api.response_bytes", response_line.len() as f64, "bytes");

        let names =
            ["request_encode_ns", "request_parse_ns", "response_encode_ns", "response_parse_ns"]
                .map(|n| format!("api.{n}"));
        let ids = names.clone().map(|n| self.rec.name(&n));
        for _ in 0..self.reps(40) {
            let ok = [
                self.rec.span_n(ids[0], BATCH as u32, |_| {
                    (0..BATCH).all(|_| api_request.to_json().len() == request_line.len())
                }),
                self.rec.span_n(ids[1], BATCH as u32, |_| {
                    (0..BATCH).all(|_| ApiRequest::from_json(&request_line).is_ok())
                }),
                self.rec.span_n(ids[2], BATCH as u32, |_| {
                    (0..BATCH).all(|_| response.to_json().len() == response_line.len())
                }),
                self.rec.span_n(ids[3], BATCH as u32, |_| {
                    (0..BATCH).all(|_| WireResponse::from_json(&response_line).is_ok())
                }),
            ];
            self.attempted += 1;
            self.failed += u64::from(ok.contains(&false));
        }
        for name in &names {
            self.time_metric(name, "ns");
        }
    }

    // -- the daemon --------------------------------------------------------

    /// `served.*`: per-request latencies of the two served workloads (a
    /// few traced passes each), then a daemon of the ledger's own for
    /// `status` throughput, miss latency and bare connects.
    fn served(&mut self) -> Result<(), String> {
        let mut busy = 0u64;
        for workload in ["served-hot", "served-oneshot"] {
            let mut bench = workloads::prepare(workload, 2003)?;
            for _ in 0..self.reps(5) {
                let pass = bench.pass(Some(&mut *self.rec));
                self.attempted += bench.ops_per_pass();
                self.failed += pass.failed;
                busy += pass.busy;
            }
            bench.finish();
        }
        self.latency_metric("served.lat_p50_us", "op.served-hot", 50.0);
        self.latency_metric("served.lat_p99_us", "op.served-hot", 99.0);
        self.latency_metric("served.oneshot_lat_p50_us", "op.served-oneshot", 50.0);
        self.latency_metric("served.oneshot_lat_p99_us", "op.served-oneshot", 99.0);

        let server = Server::bind(ServerConfig::default())
            .map_err(|e| format!("cannot bind a loopback daemon: {e}"))?;
        let addr = server.local_addr();
        let daemon = thread::spawn(move || server.run());
        let outcome = self.own_daemon(addr, &mut busy);
        let _ = request_lines(addr, &ApiRequest::Shutdown.to_json());
        let _ = daemon.join();
        outcome?;
        self.derived("served.busy_rejections", busy as f64, "count");
        Ok(())
    }

    fn own_daemon(&mut self, addr: SocketAddr, busy: &mut u64) -> Result<(), String> {
        const STATUS_BATCH: usize = 2000;
        let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
        let mut session = Session::connect(addr).map_err(|e| io("cannot open a session", e))?;

        // The loop's cost without an eval body: `status` on one session,
        // a window of requests in flight.
        let status = self.rec.name("served.status_ns");
        for _ in 0..self.reps(5) {
            let answered = self.rec.span_n(status, STATUS_BATCH as u32, |_| {
                let (mut sent, mut done, mut ok) = (0usize, 0usize, 0usize);
                while done < STATUS_BATCH {
                    while sent < STATUS_BATCH && sent - done < workloads::WINDOW {
                        if session.send(&ApiRequest::Status).is_err() {
                            return ok;
                        }
                        sent += 1;
                    }
                    match session.recv_line() {
                        Ok(line) => ok += usize::from(line.contains("\"kind\":\"status_result\"")),
                        Err(_) => return ok,
                    }
                    done += 1;
                }
                ok
            });
            self.attempted += STATUS_BATCH as u64;
            self.failed += (STATUS_BATCH - answered) as u64;
        }
        let per_request = stats::summarize(&mut self.rec.per_item_nanos("served.status_ns"));
        self.derived("served.status_rps", per_request.map_or(f64::NAN, |s| 1e9 / s.p05), "1/s");

        // Specs the daemon has never seen: queue, simulate, serialise.
        let miss = self.rec.name("served.miss_lat_us");
        for entries in 2..2 + self.reps(40) {
            let request =
                EvalRequest::new(ArchConfig::one_bus_one_fu(TableKind::Cam)).entries(entries);
            let Some(spec) = EvalSpec::from_request(&request) else {
                continue;
            };
            let expected = evaluate_request(&request);
            let answer = self.rec.span(miss, |_| session.call(&ApiRequest::Eval(spec)));
            self.attempted += 1;
            match answer {
                Ok(ApiResponse::EvalResult(report)) if *report == expected => {}
                Ok(ApiResponse::Error(e)) if e.code.as_str() == "busy" => {
                    *busy += 1;
                    self.failed += 1;
                }
                _ => self.failed += 1,
            }
        }
        self.latency_metric("served.miss_lat_p50_us", "served.miss_lat_us", 50.0);

        let connect = self.rec.name("served.connect_us");
        for _ in 0..self.reps(200) {
            let stream = self.rec.span(connect, |_| TcpStream::connect(addr).map(drop));
            self.attempted += 1;
            self.failed += u64::from(stream.is_err());
        }
        self.time_metric("served.connect_us", "us");
        Ok(())
    }
}

/// What [`Ledger::run`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerOutcome {
    /// Every per-layer metric, in [`layer_metric_defs`] order.
    pub metrics: Vec<LayerMetric>,
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
}

/// Span names of one replica (one kind at one size).
struct ReplicaNames {
    evaluate: NameId,
    replica: NameId,
    routes: NameId,
    datagrams: NameId,
    build: NameId,
    enqueue: NameId,
    run: NameId,
    forwarded: NameId,
    encode: NameId,
    estimate: NameId,
}

impl ReplicaNames {
    /// Metrics without a size in their name (`router.enqueue_us`,
    /// `isa.encode_us.<K>`, …) are defined at the paper's 100 entries;
    /// at other sizes those spans get the size appended, so they stay in
    /// the trace without entering the metric.
    fn intern(rec: &mut Recorder, k: &str, n: &str, paper_size: bool) -> Self {
        let sized = |base: String| if paper_size { base } else { format!("{base}.{n}") };
        ReplicaNames {
            evaluate: rec.name(&format!("core.evaluate_us.{k}.{n}")),
            replica: rec.name(&format!("core.replica_us.{k}.{n}")),
            routes: rec.name(&format!("core.routes_us.{n}")),
            datagrams: rec.name(&format!("router.datagrams_us.{n}")),
            build: rec.name(&format!("router.build_us.{k}.{n}")),
            enqueue: rec.name(&sized("router.enqueue_us".into())),
            run: rec.name(&format!("sim.run_us.{k}.{n}")),
            forwarded: rec.name(&sized("router.forwarded_us".into())),
            encode: rec.name(&sized(format!("isa.encode_us.{k}"))),
            estimate: rec.name(&sized("estimate.estimate_us".into())),
        }
    }
}

/// The measurement datagrams of `evaluate_request`, rebuilt from public
/// pieces: eight datagrams whose destination matches the entry the
/// sequential scan reaches last.
fn measurement_datagrams(routes: &[Route]) -> Option<Vec<Datagram>> {
    let mut gen = TrafficGen::new(0x0DA7A, 4);
    let table = SequentialTable::from_routes(routes.iter().copied());
    let deepest = *table.entries().last()?;
    let source = "2001:db8:ffff::1".parse().ok()?;
    Some(
        (0..MEASURE_DATAGRAMS)
            .map(|_| {
                Datagram::builder(source, gen.addr_in(&deepest.prefix()))
                    .hop_limit(64)
                    .payload(NextHeader::Udp, vec![0u8; 32])
                    .build()
            })
            .collect(),
    )
}

/// One evaluation re-assembled from public pieces, a span around each.
/// Returns the simulated cycles when the replica reproduces `report`'s
/// cycles, program bits, required clock and estimate exactly.
fn replica(
    rec: &mut Recorder,
    names: &ReplicaNames,
    request: &EvalRequest,
    report: &EvalReport,
) -> Option<u64> {
    let config = &request.config;
    rec.span(names.replica, |rec| {
        let routes = rec.span(names.routes, |_| benchmark_routes(request.entries));
        let datagrams = rec.span(names.datagrams, |_| measurement_datagrams(&routes))?;
        let mut router = rec
            .span(names.build, |_| {
                CycleRouter::for_kind(
                    config.table,
                    &config.machine,
                    &routes,
                    report.rtu_latency_cycles,
                    &MicrocodeOptions::default(),
                )
            })
            .ok()?;
        rec.span(names.enqueue, |_| router.enqueue_batch(datagrams.iter().map(|d| (PortId(0), d))))
            .ok()?;
        let stats = rec.span(names.run, |_| router.run(CYCLE_BUDGET)).ok()?;
        let forwarded = rec.span(names.forwarded, |_| router.forwarded()).len().max(1);
        let frequency =
            request.line_rate.required_frequency_hz(stats.cycles as f64 / forwarded as f64);
        let bits = rec
            .span(names.encode, |_| taco_isa::encode(router.processor().program(), &config.machine))
            .map_or(0, |e| e.total_bits());
        let mut estimator = Estimator::new().with_program_bits(bits);
        if config.table == TableKind::Cam {
            estimator = estimator.with_cam(ExternalCam::micron_harmony());
        }
        let estimate = rec.span(names.estimate, |_| estimator.estimate(&config.machine, frequency));
        let exact = stats.cycles == report.stats.cycles
            && bits == report.program_bits
            && frequency == report.required_frequency_hz
            && estimate == report.estimate;
        exact.then_some(stats.cycles)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn the_ledger_names_are_unique_and_well_formed() {
        let defs = layer_metric_defs();
        assert_eq!(defs.len(), 115);
        let mut names: Vec<&str> = defs.iter().map(|(n, _, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), defs.len());
        for (name, unit, better) in &defs {
            assert!(name.len() <= 64, "{name}");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(unit.len() <= 16 && ["lower", "higher"].contains(better), "{name}");
        }
    }

    #[test]
    fn the_replica_reproduces_evaluate_request_exactly() {
        let mut rec = Recorder::new(Instant::now(), 0);
        for (kind, k) in KINDS {
            let request = EvalRequest::new(ArchConfig::three_bus_one_fu(kind)).entries(16);
            let report = evaluate_request(&request);
            let names = ReplicaNames::intern(&mut rec, k, "n16", false);
            assert_eq!(replica(&mut rec, &names, &request, &report), Some(report.stats.cycles));
            // A replica built against another evaluation must not pass.
            let other = evaluate_request(&request.clone().entries(17));
            if other.stats.cycles != report.stats.cycles {
                assert_eq!(replica(&mut rec, &names, &request, &other), None, "{k}");
            }
        }
        // Every part is a child of its replica span.
        let spans = rec.spans();
        let roots = spans.iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, spans.iter().filter(|s| rec.name_of(s.name).contains("replica")).count());
    }
}
