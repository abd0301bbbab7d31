//! `taco-cli trace` — cycle-level trace inspection for any Table 1 cell:
//! an ASCII per-cycle bus-occupancy strip (one row per bus, one column per
//! cycle) from a `RingTracer` capture of the measurement run.

use crate::cli::{write_chrome_trace, Cli};
use taco_core::api::{parse_machine_spec, parse_table_kind};
use taco_core::{trace_request, EvalRequest};
use taco_routing::TableKind;
use taco_sim::{RingTracer, TraceEvent};

/// Renders the first `limit` cycles of the capture as one character per
/// bus-cycle: `#` executed move, `~` squashed move, `.` idle; plus a stall
/// row (`S` RTU interlock, `F` injected fault) and a datagram row (`v`
/// begin, `^` end, `-` in flight).
fn render_strip(events: &RingTracer, buses: u8, limit: usize) -> String {
    let width =
        events.events().iter().map(|e| e.cycle() as usize + 1).max().unwrap_or(0).min(limit);
    let rows = usize::from(buses);
    let mut bus_rows = vec![vec![b'.'; width]; rows];
    let mut stall_row = vec![b'.'; width];
    let mut dgram_row = vec![b'.'; width];
    let mut stall_from: Option<usize> = None;
    let mut fault_from: Option<usize> = None;
    let mut dgram_from: Vec<(u32, usize)> = Vec::new();
    let mark = |row: &mut Vec<u8>, cycle: u64, ch: u8| {
        if (cycle as usize) < width {
            row[cycle as usize] = ch;
        }
    };
    for event in events.events() {
        match *event {
            TraceEvent::MoveExecuted { cycle, bus, .. } => {
                mark(&mut bus_rows[usize::from(bus)], cycle, b'#');
            }
            TraceEvent::MoveSquashed { cycle, bus, .. } => {
                mark(&mut bus_rows[usize::from(bus)], cycle, b'~');
            }
            TraceEvent::StallBegin { cycle } => stall_from = Some(cycle as usize),
            TraceEvent::StallEnd { cycle } => {
                if let Some(from) = stall_from.take() {
                    let from = from.min(width);
                    let to = (cycle as usize).min(width).max(from);
                    stall_row[from..to].fill(b'S');
                }
            }
            TraceEvent::FaultStallBegin { cycle } => fault_from = Some(cycle as usize),
            TraceEvent::FaultStallEnd { cycle } => {
                if let Some(from) = fault_from.take() {
                    let from = from.min(width);
                    let to = (cycle as usize).min(width).max(from);
                    stall_row[from..to].fill(b'F');
                }
            }
            TraceEvent::DatagramBegin { cycle, ptr, .. } => {
                dgram_from.push((ptr, cycle as usize));
                mark(&mut dgram_row, cycle, b'v');
            }
            TraceEvent::DatagramEnd { cycle, ptr, .. } => {
                if let Some(i) = dgram_from.iter().position(|(p, _)| *p == ptr) {
                    let (_, from) = dgram_from.remove(i);
                    let to = (cycle as usize).min(width);
                    for slot in &mut dgram_row[(from + 1).min(to)..to] {
                        if *slot == b'.' {
                            *slot = b'-';
                        }
                    }
                }
                mark(&mut dgram_row, cycle, b'^');
            }
            TraceEvent::FuTriggered { .. } | TraceEvent::FuRetired { .. } => {}
        }
    }
    // An unclosed stall extends to the edge of the strip.
    if let Some(from) = stall_from {
        stall_row[from.min(width)..].fill(b'S');
    }
    if let Some(from) = fault_from {
        stall_row[from.min(width)..].fill(b'F');
    }

    const CHUNK: usize = 100;
    let mut out = String::new();
    let row_str = |row: &[u8]| String::from_utf8_lossy(row).into_owned();
    for start in (0..width).step_by(CHUNK) {
        let end = (start + CHUNK).min(width);
        out.push_str(&format!("cycles {start}..{end}\n"));
        for (b, row) in bus_rows.iter().enumerate() {
            out.push_str(&format!("  bus{b}  |{}|\n", row_str(&row[start..end])));
        }
        out.push_str(&format!("  stall |{}|\n", row_str(&stall_row[start..end])));
        out.push_str(&format!("  dgram |{}|\n", row_str(&dgram_row[start..end])));
    }
    out
}

pub fn run(args: Vec<String>) {
    let kinds = TableKind::ALL_KINDS.map(|kind| kind.to_string()).join(", ");
    let cli = Cli::new("taco-cli trace", "cycle-level trace inspection for any Table 1 cell")
        .opt("--cycles", "N", "cycles of the occupancy strip to render")
        .opt("--chrome", "PATH", "also write the run as Chrome about://tracing JSON")
        .positional("kind", &format!("table organisation: {kinds}"), Some("cam"))
        .positional("config", "machine shape: 1x1, 3x1, 3x3 (Table 1 labels accepted)", Some("3x1"))
        .positional("entries", "routing-table size", Some("16"));
    let args = cli.parse_args_or_exit(args);
    let limit: usize = args.opt_parsed("--cycles").unwrap_or_else(|e| cli.fail(&e)).unwrap_or(300);
    // The same name parsers the wire API uses — one validation dialect
    // across the CLI, the daemon and the builder.
    let kind = parse_table_kind(args.pos("kind")).unwrap_or_else(|e| cli.fail(&e));
    let config = parse_machine_spec(kind, args.pos("config")).unwrap_or_else(|e| cli.fail(&e));
    let entries: usize = args.pos_parsed("entries").unwrap_or_else(|e| cli.fail(&e));

    let request = EvalRequest::new(config.clone()).entries(entries);
    let report = request.run();
    if let Some(e) = &report.sim_error {
        eprintln!("{} is not simulatable: {e}", config.label());
        std::process::exit(1);
    }
    println!("{report}");
    println!();

    let mut ring = RingTracer::new(4_000_000);
    let stats = match trace_request(&request, &mut ring) {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("traced replay failed: {e}");
            std::process::exit(1);
        }
    };
    if !ring.is_complete() {
        eprintln!("note: capture truncated, {} oldest events dropped", ring.dropped());
    }
    println!(
        "measurement run: {} cycles, {} stalled, {} moves ({} squashed)",
        stats.cycles, stats.stall_cycles, stats.moves_executed, stats.moves_squashed
    );
    println!("legend: # move  ~ squashed  S rtu stall  v/^ datagram in/out  - in flight");
    println!();
    print!("{}", render_strip(&ring, config.machine.buses(), limit));
    if stats.cycles as usize > limit {
        println!("... {} more cycles (raise --cycles to see them)", stats.cycles as usize - limit);
    }

    if let Some(path) = args.opt("--chrome") {
        if let Err(e) = write_chrome_trace(&request, path) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        println!("\nchrome trace written to {path}");
    }
}
