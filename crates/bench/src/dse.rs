//! `taco-cli dse` — the automated design-space exploration the paper lists
//! as future work: sweep buses × FU replication × routing-table
//! organisation, evaluate each instance, filter by power/area constraints
//! and print the ranking.
//!
//! The sweep fans out across all cores (`TACO_THREADS` overrides) through
//! the process-global evaluation cache, with per-point progress on stderr.
//! A fault plan defaults the workload to `steady-forward` if `--scenario`
//! was not given.

use crate::cli::{report_cache, write_chrome_trace, Cli};
use taco_core::api::{parse_fault_plan_name, parse_workload_name};
use taco_core::{
    explore_with, pool, table1, Constraints, EvalCache, ExploreOptions, LineRate, StderrProgress,
    SweepSpec, Workload,
};

pub fn run(args: Vec<String>) {
    let cli =
        Cli::new("taco-cli dse", "automated design-space exploration with constraint filtering")
            .flag("--stats", "append each point's raw simulator counters as JSON on stderr")
            .opt("--scenario", "NAME", "replay the named workload on every grid point")
            .opt("--max-drops", "N", "disqualify instances dropping more than N datagrams")
            .opt("--faults", "NAME", "overlay the named deterministic fault plan")
            .opt("--max-unrecovered", "N", "disqualify instances leaving more than N faults open")
            .opt("--trace", "FILE", "replay the binary flow trace at FILE on every grid point")
            .opt("--trace-best", "PATH", "write a Chrome trace of the winning point to PATH")
            .positional("max_power_w", "power constraint, watts", Some("2.0"))
            .positional("max_area_mm2", "area constraint, mm^2", Some("50.0"));
    let args = cli.parse_args_or_exit(args);
    let stats = args.flag("--stats");
    // Names resolve through the same `taco_core::api` parsers the wire
    // protocol uses, so CLI and daemon reject exactly the same inputs
    // (and list the same alternatives).
    let workload = args
        .opt("--scenario")
        .map(|name| parse_workload_name(name).unwrap_or_else(|e| cli.fail(&e)));
    let max_scenario_drops: Option<u64> =
        args.opt_parsed("--max-drops").unwrap_or_else(|e| cli.fail(&e));
    let faults = args
        .opt("--faults")
        .map(|name| parse_fault_plan_name(name).unwrap_or_else(|e| cli.fail(&e)));
    let max_unrecovered_faults: Option<u64> =
        args.opt_parsed("--max-unrecovered").unwrap_or_else(|e| cli.fail(&e));
    let max_power_w: f64 = args.pos_parsed("max_power_w").unwrap_or_else(|e| cli.fail(&e));
    let max_area_mm2: f64 = args.pos_parsed("max_area_mm2").unwrap_or_else(|e| cli.fail(&e));
    let constraints =
        Constraints { max_power_w, max_area_mm2, max_scenario_drops, max_unrecovered_faults };
    let trace = args.opt("--trace").map(|file| {
        if args.opt("--scenario").is_some() {
            cli.fail("--trace and --scenario are mutually exclusive (the trace IS the scenario)");
        }
        let trace = taco_core::FlowTrace::read(std::path::Path::new(file)).unwrap_or_else(|e| {
            eprintln!("dse: cannot read trace {file:?}: {e}");
            std::process::exit(1);
        });
        std::sync::Arc::new(trace)
    });
    // A fault plan needs a scenario to act on: default the workload so
    // `--faults storm` alone does what it says.
    let workload = match (&trace, &faults, workload) {
        (Some(trace), _, _) => Some(trace.descriptor()),
        (None, Some(_), None) => {
            eprintln!("--faults without --scenario: defaulting to the steady-forward workload");
            Some(Workload::steady_forward())
        }
        (None, _, w) => w,
    };
    let spec = SweepSpec { workload, faults, trace, ..SweepSpec::default() };

    println!(
        "design-space exploration: {} buses x {} replications x {} table kinds, {} entries",
        spec.buses.len(),
        spec.replication.len(),
        spec.kinds.len(),
        spec.entries
    );
    println!(
        "constraints: power <= {max_power_w} W, area <= {max_area_mm2} mm2, target {}",
        LineRate::TEN_GBE
    );
    if let Some(w) = &spec.workload {
        match constraints.max_scenario_drops {
            Some(n) => println!("scenario: {} (seed {:#x}), <= {n} drops", w.name(), w.seed()),
            None => println!("scenario: {} (seed {:#x})", w.name(), w.seed()),
        }
    }
    if let Some(p) = &spec.faults {
        match constraints.max_unrecovered_faults {
            Some(n) => {
                println!("faults: {} (seed {:#x}), <= {n} unrecovered", p.name(), p.seed)
            }
            None => println!("faults: {} (seed {:#x})", p.name(), p.seed),
        }
    }
    println!();

    let threads = pool::default_threads();
    eprintln!("sweeping on {threads} worker thread(s) (set {} to override)", pool::THREADS_ENV);
    let observer = if stats { StderrProgress::verbose() } else { StderrProgress::new() };
    let ex = explore_with(
        &spec,
        LineRate::TEN_GBE,
        &constraints,
        &ExploreOptions { threads, cache: Some(EvalCache::global()), observer: &observer },
    );
    report_cache();

    println!("all {} evaluated instances:", ex.all.len());
    print!("{}", table1::render(&ex.all));
    println!();

    if ex.admitted.is_empty() {
        println!("no instance satisfies the constraints");
        return;
    }
    println!("{} instances satisfy the constraints; by ascending power:", ex.admitted.len());
    for (rank, &i) in ex.admitted.iter().enumerate().take(10) {
        let r = &ex.all[i];
        // Admission implies physical feasibility today, but a ranking
        // printer must not be able to panic on a stale index either way.
        let Some(e) = r.estimate.feasible() else {
            eprintln!("  #{:<2} {:<38} (infeasible point, skipped)", rank + 1, r.config.label());
            continue;
        };
        let drops = match &r.scenario {
            Some(s) => format!(" {:>8} drops", s.dropped()),
            None => String::new(),
        };
        println!(
            "  #{:<2} {:<38} {:>10} {:>8.2} mm2 {:>8.3} W{drops}",
            rank + 1,
            r.config.label(),
            table1::format_frequency(r.required_frequency_hz),
            e.area_mm2,
            e.power_w
        );
    }
    let best = ex.best().expect("non-empty admitted set");
    println!();
    println!("suggested configuration: {}", best.config.label());

    if let Some(path) = args.opt("--trace-best") {
        let request = taco_core::EvalRequest::new(best.config.clone())
            .rate(best.line_rate)
            .entries(best.table_entries);
        match write_chrome_trace(&request, path) {
            Ok(()) => println!("chrome trace of {} written to {path}", best.config.label()),
            Err(e) => eprintln!("{e}"),
        }
    }

    // The replication heuristic of the paper's future-work tool: where does
    // the winning configuration's microcode put its trigger pressure?
    let opts = taco_router::microcode::MicrocodeOptions::default();
    let seq = taco_router::microcode::program_for(best.config.table, spec.entries, &opts);
    let program = taco_isa::schedule(&seq, &best.config.machine);
    let mut pressure: Vec<(taco_isa::FuKind, usize)> = program.fu_pressure().into_iter().collect();
    pressure.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
    let summary: Vec<String> = pressure.iter().take(4).map(|(k, n)| format!("{k} x{n}")).collect();
    println!("static FU trigger pressure (replication candidates first): {}", summary.join(", "));
}
