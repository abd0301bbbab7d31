//! The wire, attacked offline (seeded; see `common/mod.rs`).
//!
//! Four parsers read bytes a client or an operator chose — request and
//! response lines of both dialects, `taco-flowtrace` bodies, the boot cache
//! snapshot — and each must answer any input with a value or a structured
//! error: never a panic, a hang or a stack overflow.  Random requests must
//! round-trip exactly; and one daemon must answer every mutated v2 frame
//! with the same bytes whether or not the frame's unmutated body has been
//! memoised, since the memo fast path and the strict parser are two
//! readers of one grammar.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use common::{
    bytes, cases, corrupt, corrupted, envelope, eval, index, pick, reread_request, response_lines,
    unicode, wire_line, SplitMix64,
};
use taco::eval::api::json::Json;
use taco::eval::api::{ApiErrorCode, ApiRequest, ApiResponse, Envelope, EvalSpec, WireResponse};
use taco::eval::{
    ArchConfig, Constraints, EvalCache, EvalRequest, FaultPlan, FlowTrace, LineRate, SweepSpec,
    TableKind, TraceGen, Workload,
};
use taco::served::{Server, ServerConfig};
use taco_workload::trace::trace_fnv1a64;

const SEED: u64 = 0xF022_0001;
const CASES: u64 = 256;

/// `common::sweep`, one time in four with a constraint that is no bound at
/// all (`null` on the wire).  Drawn here and not in the shared generator,
/// whose stream `golden_wire` pins; −∞ and NaN also encode as `null` and so
/// cannot read back as themselves.
fn sweep(rng: &mut SplitMix64) -> ApiRequest {
    let mut request = common::sweep(rng);
    if let ApiRequest::Sweep { constraints, .. } = &mut request {
        match rng.below(8) {
            0 => constraints.max_power_w = f64::INFINITY,
            1 => constraints.max_area_mm2 = f64::INFINITY,
            _ => {}
        }
    }
    request
}

/// The CAM cell of Table 1's 3BUS/1FU column.
fn cam() -> ArchConfig {
    ArchConfig::three_bus_one_fu(TableKind::Cam)
}

/// A request line of any kind in either dialect.
fn request_line(rng: &mut SplitMix64) -> String {
    let request = match rng.below(8) {
        0 => ApiRequest::Status,
        1 => ApiRequest::Shutdown,
        2 | 3 => sweep(rng),
        _ => eval(rng),
    };
    wire_line(envelope(rng), &request)
}

/// Number spellings a field is unlikely to expect: the boundaries of every
/// integer width the codec reads, values a float loses or overflows on,
/// and two spellings (`007`, `+5`) that are not JSON at all.  None of them
/// is a *valid and expensive* table size, so a daemon may be sent any.
const NUMBERS: &str = "0 -0 -1 1 2 256 65537 4294967296 9007199254740993 18446744073709551615 \
    18446744073709551616 1e400 -1e400 1e-400 5e-324 1.7976931348623157e308 1.5 1E2 007 +5";

fn number(rng: &mut SplitMix64) -> Json {
    Json::Num(pick(rng, &NUMBERS.split_whitespace().collect::<Vec<_>>()).to_owned())
}

/// Strings that are none of the request kinds `status`, `shutdown` and
/// `sweep` — a mutated `eval` stays an `eval` or becomes an error.
const STRINGS: [&str; 10] =
    ["", "cam", "CAM", "sequential", "eval", "v0", "v1", "v2", "\0", "é\"\\"];

/// Calls `visit` on node `n` of `json` in depth-first order; returns the
/// number of nodes seen so far.
fn nth_node(json: &mut Json, n: &mut usize, visit: &mut dyn FnMut(&mut Json)) {
    if *n == 0 {
        visit(json);
    }
    *n = n.wrapping_sub(1);
    match json {
        Json::Arr(items) => items.iter_mut().for_each(|item| nth_node(item, n, visit)),
        Json::Obj(members) => members.iter_mut().for_each(|(_, v)| nth_node(v, n, visit)),
        _ => {}
    }
}

fn count_nodes(json: &mut Json) -> usize {
    let mut n = usize::MAX;
    nth_node(json, &mut n, &mut |_| {});
    usize::MAX - n
}

/// One structural mutation of a random node: members duplicated, renamed,
/// reordered or dropped; a number respelled; a value replaced by one of
/// another type, by an object wider than any parser scans, or by more
/// nesting than any parser follows.
fn mutate_node(rng: &mut SplitMix64, json: &mut Json) {
    let mut n = index(rng, count_nodes(json));
    nth_node(json, &mut n, &mut |node| match node {
        Json::Obj(members) if !members.is_empty() && rng.chance(0.7) => {
            let at = index(rng, members.len());
            match rng.below(4) {
                0 => members.push(members[at].clone()),
                1 => {
                    members[at].0 = pick(rng, &["", "id", "kind", "Entries", "entries "]).to_owned()
                }
                2 => members.rotate_left(at),
                _ => drop(members.remove(at)),
            }
        }
        Json::Num(_) if rng.chance(0.8) => *node = number(rng),
        Json::Str(s) if rng.chance(0.5) => *s = pick(rng, &STRINGS).to_owned(),
        other => {
            let depth = pick(rng, &[1, 33, 100_000]);
            *other = match rng.below(7) {
                0 => Json::Null,
                1 => Json::Bool(true),
                2 => number(rng),
                3 => Json::Obj(Vec::new()),
                4 => Json::Str(pick(rng, &STRINGS).to_owned()),
                5 => Json::Obj((0..2000).map(|i| (format!("k{i}"), Json::Null)).collect()),
                _ => Json::Str(format!("{}{}", "[".repeat(depth), "]".repeat(depth))),
            };
        }
    });
}

/// A valid line after one to three mutations, structural or bytewise.  The
/// deep-nesting placeholder is unquoted last, so the brackets are syntax.
fn mutated(rng: &mut SplitMix64, line: &str) -> String {
    let mut json = Json::parse(line).expect("the unmutated line is valid");
    let mut raw = None;
    for _ in 0..=rng.below(3) {
        if raw.is_none() && rng.chance(0.6) {
            mutate_node(rng, &mut json);
        } else {
            let buf = raw.get_or_insert_with(|| json.encode().into_bytes());
            corrupt(rng, buf);
        }
    }
    let raw = raw.unwrap_or_else(|| json.encode().into_bytes());
    // One frame stays one frame: the daemon splits on newlines.
    String::from_utf8_lossy(&raw).replace("\"[[", "[[").replace("]]\"", "]]").replace('\n', " ")
}

fn assert_identity(request: &ApiRequest, id: Option<u64>) {
    let envelope = id.map_or(Envelope::V1, |id| Envelope::V2(Some(id)));
    let line = wire_line(envelope, request);
    let parsed = ApiRequest::from_wire(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
    assert_eq!(parsed, (envelope, request.clone()), "{line}");
    assert_eq!(reread_request(&line).as_ref(), Ok(&line), "re-serialisation drifted");
}

#[test]
fn random_eval_requests_round_trip() {
    cases(SEED, CASES, |rng| {
        let request = eval(rng);
        assert_identity(&request, None);
        assert_identity(&request, Some(rng.next_u64()));
    });
}

#[test]
fn random_sweep_requests_round_trip() {
    cases(SEED, CASES, |rng| {
        let request = sweep(rng);
        assert_identity(&request, None);
        assert_identity(&request, Some(rng.next_u64()));
    });
}

#[test]
fn arbitrary_input_never_panics_the_strict_parsers() {
    cases(SEED, CASES, |rng| {
        let line = unicode(rng, 200);
        let _ = ApiRequest::from_json(&line);
        let _ = ApiResponse::from_json(&line);
        let _ = ApiRequest::from_wire(&line);
        let _ = WireResponse::from_json(&line);
    });
}

#[test]
fn mutated_requests_parse_to_a_value_or_a_structured_error() {
    cases(SEED, 4 * CASES, |rng| {
        let valid = request_line(rng);
        let line = mutated(rng, &valid);
        if let Ok(parsed) = ApiRequest::from_wire(&line) {
            // What was accepted is a value: it has a canonical spelling
            // that reads back as itself.
            let canonical = wire_line(parsed.0, &parsed.1);
            assert_eq!(ApiRequest::from_wire(&canonical).as_ref(), Ok(&parsed), "{line}");
        }
        let _ = ApiRequest::from_json(&line);
        let _ = taco::eval::api::salvage_request_id(&line);
    });
}

#[test]
fn mutated_responses_parse_to_a_value_or_a_structured_error() {
    cases(SEED, 4 * CASES, |rng| {
        let valid = &response_lines()[index(rng, response_lines().len())];
        let line = mutated(rng, valid);
        if let Ok(parsed) = WireResponse::from_json(&line) {
            let canonical = parsed.to_json();
            // Reports of instances that could not be simulated serialise
            // but do not read back (the error type has no wire schema).
            if !canonical.contains("\"sim_error\":") {
                assert_eq!(WireResponse::from_json(&canonical).as_ref(), Ok(&parsed), "{line}");
            }
        }
        let _ = ApiResponse::from_json(&line);
    });
}

/// Integer members of a `workload` object that shape a run without sizing
/// it: any `u32` is admitted.  Every other integer member but `seed` sizes
/// the table, the tick count or the offered-datagram budget.
const SHAPE_MEMBERS: [&str; 5] =
    ["burst_every", "burst_len", "churn_every", "churn_size", "phase_len"];

/// The members of `request`'s `workload` object.
fn workload_members(request: &mut Json) -> &mut Vec<(String, Json)> {
    let Json::Obj(top) = request else { panic!("a request is an object") };
    let workload = top.iter_mut().find(|(k, _)| k == "workload").expect("carries a workload");
    let Json::Obj(members) = &mut workload.1 else { panic!("a workload is an object") };
    members
}

#[test]
fn workloads_round_trip_and_oversize_members_are_refused_by_name() {
    // A table kind the wire spelled through PR 20 is what any unknown kind
    // is: refused naming the member and the accepted names, in both dialects.
    let eval = ApiRequest::Eval(EvalSpec::new(cam()));
    for line in [eval.to_json(), eval.to_json_v2(7)] {
        let line = line.replacen("\"table\":\"cam\"", "\"table\":\"trie\"", 1);
        let e = ApiRequest::from_wire(&line).expect_err("a retired table kind");
        assert_eq!(e.code, ApiErrorCode::BadRequest);
        let names = "\"table\" must be one of: sequential, balanced-tree, cam, patricia";
        assert!(e.message.contains(names), "{e}: {line}");
    }
    // NUMBERS' unsigned spellings (the width boundaries), the first value
    // past the work bound, and the line the issue was filed for: a valid
    // u32 that asks a runner for hours.
    const GREEDY: u64 = u32::MAX as u64;
    let values: Vec<u64> = NUMBERS
        .split_whitespace()
        .filter_map(|n| n.parse().ok())
        .chain([taco_workload::MAX_OFFERED + 1, GREEDY])
        .collect();
    for workload in Workload::builtin() {
        let mut spec = EvalSpec::new(cam());
        spec.workload = Some(workload);
        // A fault plan's frames ride on the same budget: every builtin plan
        // fits beside every builtin workload, 2^64 - 1 thousandths a tick
        // are refused naming the member.
        for (_, plan) in FaultPlan::builtin() {
            spec.faults = Some(plan);
            assert_identity(&ApiRequest::Eval(spec.clone()), Some(7));
            spec.faults = Some(FaultPlan { hop_limit_zero_per_tick_milli: u64::MAX, ..plan });
            let greedy = ApiRequest::Eval(spec.clone());
            for line in [greedy.to_json(), greedy.to_json_v2(7)] {
                let e = ApiRequest::from_wire(&line).expect_err("an over-rate fault plan");
                assert_eq!(e.code, ApiErrorCode::BadRequest);
                assert!(e.message.contains("\"faults\""), "{e}: {line}");
            }
        }
        spec.faults = None;
        let request = ApiRequest::Eval(spec);
        assert_identity(&request, None);
        assert_identity(&request, Some(7));
        for line in [request.to_json(), request.to_json_v2(7)] {
            let mut json = Json::parse(&line).expect("canonical line");
            for at in 0..workload_members(&mut json).len() {
                let (member, canonical) = workload_members(&mut json)[at].clone();
                if member == "name" || member == "seed" {
                    continue;
                }
                let shape = SHAPE_MEMBERS.contains(&member.as_str());
                for &value in &values {
                    workload_members(&mut json)[at].1 = Json::u64(value);
                    let bent = json.encode();
                    let parsed = ApiRequest::from_wire(&bent);
                    match &parsed {
                        // What is admitted is a value within the bound.
                        Ok(parsed) => {
                            let canonical = wire_line(parsed.0, &parsed.1);
                            assert_eq!(ApiRequest::from_wire(&canonical).as_ref(), Ok(parsed));
                            assert!(shape || value <= taco_workload::MAX_OFFERED, "{bent}");
                        }
                        Err(e) => {
                            assert_eq!(e.code, ApiErrorCode::BadRequest);
                            assert!(e.message.contains(&format!("{member:?}")), "{e}: {bent}");
                        }
                    }
                    if value == GREEDY {
                        assert_eq!(parsed.is_ok(), shape, "{bent}");
                    }
                }
                workload_members(&mut json)[at].1 = canonical;
            }
        }
    }
}

#[test]
fn oversize_trace_headers_are_refused_by_name() {
    // The generator's first record under each header.
    let generated = TraceGen::generate(3, 6, 3, 4);
    let bytes = generated.to_bytes();
    let record = &bytes[bytes.len() - 44 * generated.records().len()..][..44];
    let fits = |ticks: u32, flows: u32, entries: u32| {
        let header = format!(
            "taco-flowtrace v1\nseed 3\nticks {ticks}\nflows {flows}\nentries {entries}\n\
             records 1\nchecksum {:016x}\n",
            trace_fnv1a64(record)
        );
        FlowTrace::from_bytes(&[header.as_bytes(), record].concat()).expect("valid records")
    };
    let cases = [
        (fits(u32::MAX, 3, 4), "\"ticks\""),
        (fits(6, 3, 0), "\"entries\""),
        (fits(6, 3, 65_537), "\"entries\""),
        (fits(4096, 1 << 20, 4), "\"flows\""),
    ];
    for (trace, member) in cases {
        // An eval and a sweep resolve their trace as it is parsed, in
        // either dialect.
        let trace = Arc::new(trace);
        let mut spec = EvalSpec::new(cam());
        spec.trace = Some(trace.clone());
        let sweep = ApiRequest::Sweep {
            spec: SweepSpec { trace: Some(trace), ..SweepSpec::default() },
            rate: LineRate::TEN_GBE,
            constraints: Constraints::default(),
        };
        for request in [ApiRequest::Eval(spec), sweep] {
            for line in [request.to_json(), request.to_json_v2(7)] {
                let e = ApiRequest::from_wire(&line).expect_err("over-size header");
                let named = e.message.starts_with("trace header: ") && e.message.contains(member);
                assert!(named, "{e}");
            }
        }
    }
    // The same records under a header within the bounds pass.
    let mut spec = EvalSpec::new(cam());
    spec.trace = Some(Arc::new(fits(6, 3, 4)));
    let line = ApiRequest::Eval(spec.clone()).to_json();
    assert_eq!(ApiRequest::from_json(&line), Ok(ApiRequest::Eval(spec.clone())));
    assert!(spec.to_request().is_ok());
}

#[test]
fn one_trace_has_one_spelling_and_one_refusal_point() {
    let trace = Arc::new(TraceGen::generate(5, 6, 3, 4));
    let mut spec = EvalSpec::new(cam());
    spec.trace = Some(trace.clone());
    let eval = ApiRequest::Eval(spec).to_json();
    let sweep = ApiRequest::Sweep {
        spec: SweepSpec { trace: Some(trace), ..SweepSpec::default() },
        rate: LineRate::TEN_GBE,
        constraints: Constraints::default(),
    }
    .to_json();
    // The `"trace"` member, up to the brace that closes it (hex has none).
    let member = |line: &str| -> String {
        let at = line.find("\"trace\":").expect("a trace member");
        line[at..=at + line[at..].find('}').expect("closed")].to_owned()
    };
    assert!(member(&eval).starts_with("\"trace\":{\"inline\":\""), "{eval}");
    assert_eq!(member(&eval), member(&sweep), "an eval and a sweep spell one trace two ways");
    // A corrupt body is refused as the line is parsed, with one message
    // whichever request carries it.
    for corrupt in ["zz", "00ff"] {
        let bad = format!("\"trace\":{{\"inline\":\"{corrupt}\"}}");
        let refusals = [&eval, &sweep].map(|line| {
            let line = line.replacen(&member(line), &bad, 1);
            ApiRequest::from_json(&line).expect_err("a corrupt trace")
        });
        assert_eq!(refusals[0].code, ApiErrorCode::BadRequest);
        assert!(refusals[0].message.starts_with("trace: "), "{}", refusals[0]);
        assert_eq!(refusals[0], refusals[1], "{corrupt}");
    }
}

/// Header lines of a `taco-flowtrace` file before its binary body.
const TRACE_HEADER_LINES: usize = 7;

/// Rewrites the header's record count and checksum to fit the body, so a
/// corrupted record is parsed instead of failing the checksum.
fn repair_trace(buf: &[u8]) -> Option<Vec<u8>> {
    let newlines: Vec<usize> = (0..buf.len()).filter(|&i| buf[i] == b'\n').collect();
    let body = buf.get(*newlines.get(TRACE_HEADER_LINES - 1)? + 1..)?;
    let keep = *newlines.get(TRACE_HEADER_LINES - 3)? + 1;
    let mut out = buf[..keep].to_vec();
    let header = format!("records {}\nchecksum {:016x}\n", body.len() / 44, trace_fnv1a64(body));
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(body);
    Some(out)
}

#[test]
fn mutated_flow_traces_parse_to_a_value_or_a_structured_error() {
    cases(SEED, CASES, |rng| {
        let trace = TraceGen::generate(rng.next_u64(), 12, 4, 6);
        let buf = if rng.below(8) == 0 { bytes(rng, 300) } else { trace.to_bytes() };
        let mut buf = corrupted(rng, buf);
        if rng.chance(0.5) {
            buf = repair_trace(&buf).unwrap_or(buf);
        }
        if let Ok(parsed) = FlowTrace::from_bytes(&buf) {
            assert_eq!(FlowTrace::from_bytes(&parsed.to_bytes()).ok().as_ref(), Some(&parsed));
        }
    });
}

#[test]
fn mutated_snapshots_load_whole_or_not_at_all() {
    // A real snapshot written by the cache itself: the twelve Table 1
    // cells, a scenario and a fault plan.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join(format!("fuzz-wire-{}.snapshot", std::process::id()));
    let resaved = path.with_extension("resaved");
    let cache = EvalCache::new();
    let mut requests: Vec<EvalRequest> =
        ArchConfig::table1_cells().into_iter().map(EvalRequest::new).collect();
    let small = Workload::SteadyForward { seed: 3, ticks: 20, packets_per_tick: 4, entries: 8 };
    requests.push(EvalRequest::new(cam()).entries(8).workload(small));
    requests.push(EvalRequest::new(cam()).entries(8).faults(FaultPlan::storm()));
    for request in &requests {
        cache.evaluate(request);
    }
    cache.save_snapshot(&path).expect("write snapshot");
    let pristine = std::fs::read_to_string(&path).expect("read snapshot back");
    let (header, body) =
        pristine.split_at(pristine.match_indices('\n').nth(1).expect("header").0 + 1);
    for (kind, needle) in [("scenario", "\"scenario\":{"), ("fault plan", "\"faults\":{")] {
        assert!(body.contains(needle), "no {kind} entry");
    }
    let loaded = EvalCache::new().load_snapshot(&path).expect("pristine loads");
    assert_eq!(loaded, requests.len() as u64);

    cases(SEED, CASES / 2, |rng| {
        // Corrupt the file bytewise, or mutate one entry's JSON and repair
        // the checksum so the entry parser sees it.
        let content = if rng.chance(0.5) {
            let mut buf = pristine.clone().into_bytes();
            corrupt(rng, &mut buf);
            buf
        } else {
            let mut lines: Vec<String> = body.lines().map(str::to_owned).collect();
            let at = index(rng, lines.len());
            lines[at] = mutated(rng, &lines[at]);
            let body = lines.join("\n") + "\n";
            let magic = header.lines().next().expect("magic line");
            format!("{magic}\nchecksum {:016x}\n{body}", trace_fnv1a64(body.as_bytes()))
                .into_bytes()
        };
        std::fs::write(&path, content).expect("write mutated snapshot");
        let cache = EvalCache::new();
        match cache.load_snapshot(&path) {
            Ok(loaded) => {
                assert!(cache.len() as u64 <= loaded, "more entries than lines");
                // Whatever loaded is a value: every report in it writes again.
                cache.save_snapshot(&resaved).expect("a loaded snapshot saves again");
            }
            Err(_) => {
                assert!(cache.is_empty(), "a rejected snapshot must leave the cache untouched")
            }
        }
    });
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&resaved).ok();
}

/// Cases of the differential: each simulates one small CAM cell and makes
/// some forty exchanges.
const MEMO_CASES: u64 = 24;

#[test]
fn memo_and_strict_paths_answer_mutated_v2_frames_identically() {
    let server = Server::bind(ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.run());
    // One persistent connection; every read runs under a timeout, and every
    // frame is answered with exactly one line.
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("set read timeout");
    let mut reader = BufReader::new(stream);
    let mut ask = |frame: &str| {
        reader.get_ref().write_all(format!("{frame}\n").as_bytes()).expect("send frame");
        let mut line = String::new();
        let read = reader.read_line(&mut line);
        assert!(matches!(read, Ok(n) if n > 0), "no answer ({read:?}) to {frame}");
        line
    };
    // The first frame fixes the connection's dialect.
    assert!(ask(&ApiRequest::Status.to_json_v2(0)).contains("\"kind\":\"status_result\""));

    cases(SEED, MEMO_CASES, |rng| {
        // A body this daemon has not seen: the rate is drawn per case, from
        // 1–10 Gbit/s (terabit rates put the CAM's 40 ns search at tens of
        // thousands of cycles and the cell at seconds).
        let mut spec = EvalSpec::new(cam());
        spec.entries = rng.range_inclusive(1, 16) as usize;
        spec.rate = LineRate::new(1e9 + rng.next_f64() * 9e9, rng.range_inclusive(64, 1500) as u32);
        let request = ApiRequest::Eval(spec);
        let canonical = request.to_json_v2(5);
        let body =
            canonical.strip_prefix("{\"api_version\":\"v2\",\"id\":5,").expect("canonical head");

        // Envelopes the memo's splitter must read exactly as the strict
        // parser does, then mutations of the whole frame.
        let mut frames: Vec<String> = ["+5", "007", "5.0", "5e0", " 5", "-0", "05", "5 ", "null"]
            .iter()
            .chain(&["\"5\"", "18446744073709551615", "18446744073709551616", "", "5,\"id\":6"])
            .map(|id| format!("{{\"api_version\":\"v2\",\"id\":{id},{body}"))
            .collect();
        frames.push(request.to_json());
        frames.push(format!("{{\"id\":5,\"api_version\":\"v2\",{body}"));
        frames.push(format!("{canonical} "));
        frames.push(format!("{canonical}}}"));
        frames.extend((0..12).map(|_| mutated(rng, &canonical)));

        let strict: Vec<String> = frames.iter().map(|frame| ask(frame)).collect();
        // The first canonical send may be a miss or a hit (a mutation can
        // have been a valid respelling); the second is served inline and
        // memoises the body; the third comes from the memo.
        let answers: Vec<String> = (0..3).map(|_| ask(&canonical)).collect();
        assert!(answers[0].starts_with("{\"api_version\":\"v2\",\"id\":5,\"kind\":\"eval_result\""));
        assert!(answers.iter().all(|a| *a == answers[0]), "cold, warm and memoised bytes differ");
        for (frame, before) in frames.iter().zip(&strict) {
            assert_eq!(&ask(frame), before, "memoising changed the answer to {frame}");
        }
    });

    let ack = ask(&ApiRequest::Shutdown.to_json_v2(1));
    assert!(ack.contains("\"kind\":\"shutdown_ack\""), "{ack}");
    daemon.join().expect("server thread").expect("clean exit");
}
