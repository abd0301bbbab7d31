//! `taco-cli` — the repo's one executable: the subcommands that regenerate
//! the paper's evaluation (one `taco_bench` module each) and the
//! client/server front end of the `taco-served` batch evaluation daemon.
//!
//! `serve` runs the daemon in the foreground and prints the bound address
//! on stdout (ask for port 0 to get an ephemeral one).  `submit` sends
//! jobs: `--table1` submits the twelve extended Table 1 cells (the
//! paper's nine plus the PATRICIA column) as single evaluations,
//! `--sweep` submits the default design-space grid as one batch job
//! (per-point progress streams back while it runs; the daemon fans it
//! over its `--threads` pool), and with neither flag one raw `v1` request
//! line is read from stdin and sent verbatim.  `--trace FILE` submits one
//! evaluation that replays the binary flow trace at FILE (shipped inline
//! over the wire; `--kind` picks the table organisation, default `cam`).
//! All responses are printed to stdout exactly as received — one JSON
//! line each, byte-stable, pipeable into `jq` or a golden diff.  A
//! structured `busy` rejection is retried with bounded exponential
//! backoff before it is surfaced.  The exit code is 0 only if the daemon
//! answered without a protocol error.

use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

use taco_bench::cli::{Cli, Parsed};
use taco_bench::{
    ablation, churn, dse, loadgen, report, scaling, scenarios, table1, trace, tracegen,
};
use taco_core::api::{parse_table_kind, ApiRequest, ApiResponse, EvalSpec};
use taco_core::{ArchConfig, Constraints, FlowTrace, LineRate, SweepSpec};
use taco_served::{open_request, Server, ServerConfig};

const STATUS: &str = "print the daemon's queue and cache statistics";
const SHUTDOWN: &str = "drain the daemon, persist its cache and stop it";

/// A subcommand: its name, its line of the overview, its entry point.
type Subcommand = (&'static str, &'static str, fn(Vec<String>));

const SUBCOMMANDS: [Subcommand; 14] = [
    ("table1", "regenerate the paper's Table 1", table1::run),
    ("scaling", "cycles per datagram against routing-table size", scaling::run),
    ("report", "the markdown reproduction report, or one section of it", report::run),
    ("dse", "design-space exploration under power and area constraints", dse::run),
    ("ablation", "the sequential scan's unroll factor and screening word", ablation::run),
    ("scenarios", "every built-in workload over the three table kinds", scenarios::run),
    ("churn", "the 100k-prefix bounded-arena churn smoke", churn::run),
    ("trace", "a per-cycle bus-occupancy strip of one Table 1 cell", trace::run),
    ("tracegen", "generate, round-trip and replay a flow trace", tracegen::run),
    ("loadgen", "the daemon under concurrent one-shot and session clients", loadgen::run),
    ("serve", "run the daemon in the foreground (prints the bound address)", serve),
    ("submit", "send eval/sweep jobs to a running daemon", submit),
    ("status", STATUS, |args| control(args, "taco-cli status", STATUS, ApiRequest::Status)),
    ("shutdown", SHUTDOWN, |args| {
        control(args, "taco-cli shutdown", SHUTDOWN, ApiRequest::Shutdown)
    }),
];

fn print_overview() {
    let names: Vec<&str> = SUBCOMMANDS.iter().map(|&(name, ..)| name).collect();
    println!("taco-cli — the paper's evaluation, and the taco-served daemon's front end");
    println!();
    println!("usage: taco-cli <{}> [options]", names.join("|"));
    println!();
    println!("subcommands:");
    for (name, summary, _) in SUBCOMMANDS {
        println!("  {name:<9} {summary}");
    }
    println!();
    println!("run `taco-cli <subcommand> --help` for the subcommand's options.");
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(subcommand) = args.next() else {
        print_overview();
        exit(2);
    };
    if subcommand == "--help" || subcommand == "-h" {
        return print_overview();
    }
    match SUBCOMMANDS.iter().find(|&&(name, ..)| name == subcommand) {
        Some((_, _, run)) => run(args.collect()),
        None => {
            eprintln!("taco-cli: unknown subcommand {subcommand:?}");
            eprintln!();
            print_overview();
            exit(2);
        }
    }
}

fn serve(rest: Vec<String>) {
    let cli = Cli::new("taco-cli serve", "run the taco-served evaluation daemon")
        .opt("--addr", "ADDR", "address to listen on; port 0 picks an ephemeral port")
        .opt("--max-pending", "N", "job slots before submissions get a structured busy error")
        .opt("--snapshot", "PATH", "cache snapshot to load on boot and persist on shutdown")
        .opt("--threads", "N", "sweep worker threads (0 = one per core)");
    let args = cli.parse_args_or_exit(rest);
    let mut config = ServerConfig::default();
    if let Some(addr) = args.opt("--addr") {
        config.addr = addr.to_owned();
    }
    if let Some(n) = args.opt_parsed("--max-pending").unwrap_or_else(|e| cli.fail(&e)) {
        config.max_pending = n;
    }
    if let Some(path) = args.opt("--snapshot") {
        config.snapshot = Some(PathBuf::from(path));
    }
    if let Some(n) = args.opt_parsed("--threads").unwrap_or_else(|e| cli.fail(&e)) {
        config.threads = n;
    }
    let server = Server::bind(config).unwrap_or_else(|e| {
        eprintln!("taco-cli: cannot bind the daemon: {e}");
        exit(1);
    });
    // The address line is the serve contract: scripts read it to learn
    // the ephemeral port, so it must be flushed before the first accept.
    println!("taco-served listening on {}", server.local_addr());
    std::io::stdout().flush().ok();
    if let Err(e) = server.run() {
        eprintln!("taco-cli: server failed: {e}");
        exit(1);
    }
}

/// The daemon address every client subcommand needs.
fn required_addr(cli: &Cli, args: &Parsed) -> String {
    match args.opt("--addr") {
        Some(addr) => addr.to_owned(),
        None => cli.fail("--addr is required (the address `serve` printed)"),
    }
}

/// How many times `submit` retries a `busy` rejection, and the backoff
/// schedule's bounds: 50 ms doubling per attempt, capped at 800 ms.
const BUSY_RETRIES: u32 = 5;
const BUSY_BASE_DELAY: Duration = Duration::from_millis(50);
const BUSY_MAX_DELAY: Duration = Duration::from_millis(800);

/// Sends one request line, echoes every response line to stdout, and
/// returns the last line (the final response of a streamed job).  A
/// structured `busy` answer — the daemon's explicit "try again later"
/// ([`taco_core::ApiErrorCode::is_retryable`]) — is retried with bounded
/// exponential backoff instead of surfacing immediately.  The transient
/// rejections go to stderr; stdout only carries the attempt that produced
/// a real response stream.
fn exchange_retrying(addr: &str, request_line: &str) -> String {
    let mut delay = BUSY_BASE_DELAY;
    let mut attempts = 0u32;
    loop {
        let reader = open_request(addr, request_line).unwrap_or_else(|e| {
            eprintln!("taco-cli: cannot reach the daemon at {addr}: {e}");
            exit(1);
        });
        let mut last = String::new();
        let mut retry = false;
        for (i, line) in reader.lines().enumerate() {
            let line = line.unwrap_or_else(|e| {
                eprintln!("taco-cli: connection lost mid-response: {e}");
                exit(1);
            });
            // A busy rejection is always the first (and only) line.
            if i == 0 && attempts < BUSY_RETRIES {
                if let Ok(ApiResponse::Error(e)) = ApiResponse::from_json(&line) {
                    if e.code.is_retryable() {
                        attempts += 1;
                        eprintln!(
                            "taco-cli: daemon is busy ({}); retry {attempts}/{BUSY_RETRIES} \
                             in {} ms",
                            e.message,
                            delay.as_millis()
                        );
                        retry = true;
                        break;
                    }
                }
            }
            println!("{line}");
            last = line;
        }
        if retry {
            std::thread::sleep(delay);
            delay = (delay * 2).min(BUSY_MAX_DELAY);
            continue;
        }
        if last.is_empty() {
            eprintln!("taco-cli: the daemon closed the connection without answering");
            exit(1);
        }
        return last;
    }
}

/// Exits 1 if the final response line is a protocol error (so scripts can
/// branch on the exit code instead of parsing JSON).
fn check(final_line: &str) {
    if let Ok(ApiResponse::Error(e)) = ApiResponse::from_json(final_line) {
        eprintln!("taco-cli: daemon answered with an error: {e}");
        exit(1);
    }
}

fn control(rest: Vec<String>, name: &'static str, about: &'static str, request: ApiRequest) {
    let cli = Cli::new(name, about).opt("--addr", "ADDR", "daemon address (required)");
    let args = cli.parse_args_or_exit(rest);
    let addr = required_addr(&cli, &args);
    check(&exchange_retrying(&addr, &request.to_json()));
}

fn submit(rest: Vec<String>) {
    let cli = Cli::new("taco-cli submit", "submit evaluation jobs to a running daemon")
        .flag("--table1", "submit the twelve extended Table 1 cells as eval requests")
        .flag("--sweep", "submit the default design-space grid as one batch job")
        .opt("--addr", "ADDR", "daemon address (required)")
        .opt("--entries", "N", "override the routing-table size for --table1/--sweep")
        .opt("--trace", "FILE", "submit one eval replaying the binary flow trace at FILE")
        .opt("--kind", "NAME", "table organisation for --trace (default cam)");
    let args = cli.parse_args_or_exit(rest);
    let entries: Option<usize> = args.opt_parsed("--entries").unwrap_or_else(|e| cli.fail(&e));
    let exclusive = [args.flag("--table1"), args.flag("--sweep"), args.opt("--trace").is_some()];
    if exclusive.iter().filter(|&&given| given).count() > 1 {
        cli.fail("--table1, --sweep and --trace are mutually exclusive");
    }
    let addr = required_addr(&cli, &args);
    if let Some(file) = args.opt("--trace") {
        // The trace is read and validated locally, then shipped inline so
        // the daemon needs no access to this machine's filesystem.
        let trace = FlowTrace::read(std::path::Path::new(file)).unwrap_or_else(|e| {
            eprintln!("taco-cli: cannot read trace {file:?}: {e}");
            exit(1);
        });
        let kind =
            parse_table_kind(args.opt("--kind").unwrap_or("cam")).unwrap_or_else(|e| cli.fail(&e));
        let mut eval = EvalSpec::new(ArchConfig::three_bus_one_fu(kind));
        if let Some(n) = entries {
            eval.entries = n;
        }
        eval.trace = Some(std::sync::Arc::new(trace));
        check(&exchange_retrying(&addr, &ApiRequest::Eval(eval).to_json()));
    } else if args.flag("--table1") {
        for config in ArchConfig::table1_cells() {
            let mut eval = EvalSpec::new(config);
            if let Some(n) = entries {
                eval.entries = n;
            }
            check(&exchange_retrying(&addr, &ApiRequest::Eval(eval).to_json()));
        }
    } else if args.flag("--sweep") {
        let mut spec = SweepSpec::default();
        if let Some(n) = entries {
            spec.entries = n;
        }
        let request = ApiRequest::Sweep {
            spec,
            rate: LineRate::TEN_GBE,
            constraints: Constraints::default(),
        };
        check(&exchange_retrying(&addr, &request.to_json()));
    } else {
        let mut line = String::new();
        if std::io::stdin().read_line(&mut line).unwrap_or(0) == 0 {
            cli.fail("no job given: pass --table1 or --sweep, or pipe a request line to stdin");
        }
        check(&exchange_retrying(&addr, line.trim_end()));
    }
}
