//! `taco-perf` — the benchmark driver, and (with `--child`) one
//! workload-round.
//!
//! ```text
//! taco-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--quick] [--traced] [--manifest]
//! ```
//!
//! The driver splits `--seconds` over [`ROUNDS`] rounds and runs each
//! workload-round as a child process of its own (this binary with
//! `--child`; `taco-perf-traced` for `--trace 1`), round-robin across the
//! selected workloads, under a hard deadline.  Where set-up is cheap it
//! follows each round with a few `--child --setup-only` processes, so
//! `setup_s` is the median of twenty set-ups rather than of five.  stdout carries one
//! `workload metric value unit` line per metric and — for a single
//! workload — the JSON result line last; everything else goes to stderr.

use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use taco_perf::calib::Calibrator;
use taco_perf::json::{self, Metric};
use taco_perf::manifest;
use taco_perf::round::{run_round, EndToEnd, RoundReport};
use taco_perf::workloads::WORKLOADS;

const USAGE: &str = "usage: taco-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--quick] [--traced] [--manifest]";

/// Rounds a run is split into.  Fixed: the round count sets how passes
/// pool, how many set-ups `setup_s` is the median of and each child's
/// deadline, so runs with different counts would not be comparable.
const ROUNDS: usize = 5;

/// Slack a child gets beyond its measuring time before it is killed:
/// covers set-up, warm-up and a last pass that started just in time.
const CHILD_GRACE: Duration = Duration::from_secs(10);

/// Set-up-only children after each measuring round of a workload whose
/// set-up took under [`CHEAP_SETUP_SHARE`] of the round.  Set-up takes
/// milliseconds on five of the six workloads, where one slow process
/// start moves a median of five by a quarter.
const EXTRA_SETUPS: usize = 3;
const CHEAP_SETUP_SHARE: f64 = 0.05;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run the traced run of every selected workload after the plain one.
    traced_too: bool,
    child: bool,
    /// With `child`: set up, report, and exit before measuring.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2003,
        seconds: f64::from(manifest::RUN_SECONDS),
        trace: false,
        traced_too: false,
        child: false,
        setup_only: false,
    };
    let mut quick = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("an integer")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--quick" => quick = true,
            "--traced" => args.traced_too = true,
            "--manifest" => {
                print!("{}", manifest::render());
                std::process::exit(0);
            }
            "--child" => args.child = true,
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if let Some(name) = &args.workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {name:?}; expected one of {}", names.join(", ")));
        }
    }
    if quick {
        args.seconds /= 10.0;
    }
    Ok(args)
}

/// Runs `command` to completion and returns its stdout, or `None` when it
/// failed or outlived `deadline` (it is then killed and reaped).
fn run_with_deadline(mut command: Command, deadline: Duration) -> Option<String> {
    // A pinned thread count or step loop would change what is measured.
    command.env_remove("TACO_THREADS").env_remove("TACO_STEP_MODE");
    let mut child = command.stdin(Stdio::null()).stdout(Stdio::piped()).spawn().ok()?;
    let mut stdout = child.stdout.take()?;
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        let _ = tx.send(text);
    });
    let text = rx.recv_timeout(deadline).ok();
    if text.is_none() {
        let _ = child.kill();
    }
    let status = child.wait().ok()?;
    let _ = reader.join();
    text.filter(|_| status.success())
}

/// The traced run of `workload`: one child that prints its own lines.
fn traced(workload: &str, args: &Args) -> Result<(), String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut command = Command::new(me.with_file_name("taco-perf-traced"));
    command.args(["--workload", workload, "--seed", &args.seed.to_string()]);
    command.args(["--seconds", &args.seconds.to_string()]);
    let deadline = Duration::from_secs_f64(args.seconds * 4.0) + Duration::from_secs(60);
    let text = run_with_deadline(command, deadline)
        .ok_or(format!("the traced run of {workload} failed or outlived {deadline:?}"))?;
    print!("{text}");
    Ok(())
}

fn results_json(args: &Args, results: &[(&str, Vec<RoundReport>, Option<EndToEnd>)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let revision = std::env::var("TACO_PERF_GIT_REV").unwrap_or_else(|_| "unknown".into());
    let workloads: Vec<String> = results
        .iter()
        .map(|(name, rounds, e2e)| {
            let passes: Vec<String> = rounds
                .iter()
                .filter(|r| !r.pass_ns.is_empty())
                .map(|r| r.pass_ns.len().to_string())
                .collect();
            let mut fields = vec![
                format!("\"name\": {}", json::string(name)),
                format!("\"passes_per_round\": [{}]", passes.join(", ")),
            ];
            if let Some(e) = e2e {
                // The gated value with the ungated statistics of the same
                // passes: calibrated, then wall-clock.
                let stat = |label: &str, f: &dyn Fn(f64) -> f64| {
                    format!(
                        "\"{label}\": {{\"gated\": {}, \"p05\": {}, \"median\": {}, \"p95\": {}, \
                         \"wall_p05\": {}, \"wall_median\": {}, \"wall_p95\": {}}}",
                        json::number(f(e.gated_cost_ns)),
                        json::number(f(e.cost_ns.p05)),
                        json::number(f(e.cost_ns.median)),
                        json::number(f(e.cost_ns.p95)),
                        json::number(f(e.pass_ns.p05)),
                        json::number(f(e.pass_ns.median)),
                        json::number(f(e.pass_ns.p95))
                    )
                };
                fields.extend([
                    format!("\"ops_per_pass\": {}", e.ops_per_pass),
                    format!("\"cycles_per_pass\": {}", e.cycles_per_pass),
                    format!("\"passes\": {}", e.pass_ns.samples),
                    stat("pass_ms", &|ns| ns / 1e6),
                    stat("evals_per_s", &|ns| e.evals_per_s(ns)),
                    stat("sim_cycles_per_s", &|ns| e.sim_cycles_per_s(ns)),
                    format!("\"setup_s\": {}", json::number(e.setup_s)),
                    format!("\"setups\": {}", e.setups),
                    format!("\"peak_rss_kib\": {}", json::number(e.peak_rss_kib)),
                    format!("\"attempted\": {}", e.attempted),
                    format!("\"failed\": {}", e.failed),
                    format!("\"failed_share\": {}", json::number(e.failed_share())),
                ]);
            }
            format!("    {{{}}}", fields.join(", "))
        })
        .collect();
    format!(
        "{{\n  \"nproc\": {nproc},\n  \"seed\": {},\n  \"git_revision\": {},\n  \"seconds\": {},\n  \
         \"rounds\": {},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        args.seed,
        json::string(&revision),
        json::number(args.seconds),
        ROUNDS,
        workloads.join(",\n")
    )
}

fn drive(args: &Args) -> Result<ExitCode, String> {
    if args.trace {
        let workload = args.workload.as_deref().ok_or("--trace 1 needs --workload")?;
        return traced(workload, args).map(|()| ExitCode::SUCCESS);
    }
    let me = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let selected: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| args.workload.as_deref().map_or(true, |only| only == *name))
        .collect();
    let round_seconds = args.seconds / ROUNDS as f64;
    let deadline = Duration::from_secs_f64(round_seconds * 2.0) + CHILD_GRACE;

    // Round-robin across workloads, so a slow phase of the machine lands
    // on every workload rather than on all rounds of one.
    let mut rounds: Vec<Vec<RoundReport>> = vec![Vec::new(); selected.len()];
    for round in 0..ROUNDS {
        for (index, name) in selected.iter().enumerate() {
            let child = |setup_only: bool| {
                let mut command = Command::new(&me);
                command.args(["--child", "--workload", name, "--seed", &args.seed.to_string()]);
                command.args(["--seconds", &round_seconds.to_string()]);
                if setup_only {
                    command.arg("--setup-only");
                }
                let report =
                    run_with_deadline(command, if setup_only { CHILD_GRACE } else { deadline })
                        .and_then(|text| RoundReport::parse(&text));
                report.unwrap_or_else(|| {
                    eprintln!("taco-perf: {name} round {round} was lost (failed or hung)");
                    RoundReport::lost(rounds[index].first().map_or(0, |r| r.ops_per_pass))
                })
            };
            let started = Instant::now();
            let report = child(false);
            eprintln!(
                "taco-perf: {name} round {round}: {} passes, {} failed of {}, {:.1} s",
                report.pass_ns.len(),
                report.failed,
                report.attempted,
                started.elapsed().as_secs_f64()
            );
            // A lost round reports no set-up time, and earns no extras.
            let setup_s = report.setup_ns as f64 / 1e9;
            let cheap = setup_s > 0.0 && setup_s < round_seconds * CHEAP_SETUP_SHARE;
            let extras: Vec<RoundReport> =
                (0..if cheap { EXTRA_SETUPS } else { 0 }).map(|_| child(true)).collect();
            rounds[index].push(report);
            rounds[index].extend(extras);
        }
    }

    let results: Vec<(&str, Vec<RoundReport>, Option<EndToEnd>)> = selected
        .iter()
        .zip(rounds)
        .map(|(name, rounds)| {
            let e2e = EndToEnd::pool(&rounds);
            (*name, rounds, e2e)
        })
        .collect();

    let out = taco_perf::out_dir();
    std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(out.join("results.json"), results_json(args, &results)))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;

    let mut clean = true;
    for (name, _, e2e) in &results {
        let Some(e2e) = e2e else {
            eprintln!("taco-perf: {name}: no round measured a pass");
            clean = false;
            continue;
        };
        if e2e.failed > 0 {
            eprintln!("taco-perf: {name}: {} of {} operations failed", e2e.failed, e2e.attempted);
            clean = false;
        }
        let metrics: Vec<Metric> = e2e.metrics();
        for m in &metrics {
            println!("{name} {} {} {}", m.name, json::number(m.value), m.unit);
        }
        println!("{name} failed_share {} ratio", json::number(e2e.failed_share()));
        eprintln!(
            "taco-perf: {name}: {} passes pooled; pass p05/median/p95 = {:.3}/{:.3}/{:.3} ms \
             calibrated, {:.3}/{:.3}/{:.3} ms wall",
            e2e.pass_ns.samples,
            e2e.cost_ns.p05 / 1e6,
            e2e.cost_ns.median / 1e6,
            e2e.cost_ns.p95 / 1e6,
            e2e.pass_ns.p05 / 1e6,
            e2e.pass_ns.median / 1e6,
            e2e.pass_ns.p95 / 1e6
        );
        if args.workload.is_some() {
            println!("{}", json::result_line(e2e.attempted, e2e.failed, &metrics));
        }
    }
    if args.traced_too {
        for name in &selected {
            traced(name, args)?;
        }
    }
    Ok(if clean { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let cal = Calibrator::new();
    let outcome = parse_args().and_then(|args| {
        if !args.child {
            return drive(&args);
        }
        let workload = args.workload.as_deref().ok_or("--child needs --workload")?;
        let seconds = (!args.setup_only).then_some(args.seconds);
        let report = run_round(workload, args.seed, seconds, process_start, cal)?;
        print!("{}", report.to_lines());
        Ok(ExitCode::SUCCESS)
    });
    outcome.unwrap_or_else(|message| {
        eprintln!("taco-perf: {message}\n{USAGE}");
        ExitCode::FAILURE
    })
}
