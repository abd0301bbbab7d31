//! Differential forwarding test: the behavioural reference router and the
//! cycle-accurate microcoded router must hand down the same per-datagram
//! verdict — forwarded (same port, same bytes on the wire), dropped, or
//! dropped-with-ICMP-error — for traffic drawn from **every builtin
//! workload** over **every routing-table organisation**.
//!
//! The reference is the oracle (plain Rust over a `SequentialTable`, the
//! organisation-independent LPM semantics); the subject is
//! [`CycleRouter::for_kind`] running the generated microcode on the
//! simulator.  Traffic is seeded from each workload's own seed, so the
//! whole suite is reproducible bit for bit.

use taco_ipv6::{Datagram, Ipv6Header, NextHeader};
use taco_isa::MachineConfig;
use taco_router::layout::bytes_to_words;
use taco_router::{
    CycleRouter, DropReason, ForwardDecision, MicrocodeOptions, ReferenceRouter, SplitMix64,
    TrafficGen,
};
use taco_routing::{PortId, Route, SequentialTable, TableKind};
use taco_workload::Workload;

/// Data datagrams sampled per workload (the cycle router's buffer area
/// holds ~100 slots; edges ride on top of this).
const SAMPLE: usize = 24;

/// CAM search latency used for the `cam` organisation, in cycles.
const CAM_LATENCY: u32 = 3;

/// One of the router's own addresses — needed so the reference generates
/// ICMPv6 errors (an ICMP source must exist).  Traffic never targets it.
const ROUTER_ADDR: &str = "fe80::fe";

/// Every routing-table organisation the repo implements — the paper's
/// three plus the path-compressed PATRICIA engine.
const ALL_KINDS: [TableKind; 4] = TableKind::ALL_KINDS;

/// The projection of a forwarding decision both routers can express.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Sent out `port` with the hop limit rewritten to `hop_limit`.
    Forwarded { port: u16, hop_limit: u8 },
    /// Discarded; `icmp_error` records whether the reference bounced an
    /// ICMPv6 error (the fast path drops silently either way).
    Dropped { icmp_error: bool },
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Forwarded { port, hop_limit } => write!(f, "fwd:{port}:{hop_limit}"),
            Verdict::Dropped { icmp_error: true } => write!(f, "drop+icmp"),
            Verdict::Dropped { icmp_error: false } => write!(f, "drop"),
        }
    }
}

/// The oracle's verdicts, one per datagram, each with the frame it put on
/// the wire when it forwarded.
fn reference_verdicts(routes: &[Route], traffic: &[Datagram]) -> Vec<(Verdict, Option<Vec<u8>>)> {
    let table = SequentialTable::from_routes(routes.iter().copied());
    let mut reference = ReferenceRouter::new(table, vec![ROUTER_ADDR.parse().unwrap()]);
    traffic
        .iter()
        .map(|d| match reference.process(PortId(0), d.to_bytes()) {
            ForwardDecision::Forward { out_port, frame } => {
                (Verdict::Forwarded { port: out_port.0, hop_limit: frame[7] }, Some(frame))
            }
            ForwardDecision::Drop { icmp, .. } => {
                (Verdict::Dropped { icmp_error: icmp.is_some() }, None)
            }
            ForwardDecision::Deliver { datagram } => {
                panic!("differential traffic must not be local: {:?}", datagram.header().dst)
            }
        })
        .collect()
}

/// The subject's observable outcome per datagram: `Some((port, bytes))` —
/// the forwarded datagram re-encoded — when it came back out of the oPPU,
/// `None` when it was dropped.
fn cycle_outcomes(
    kind: TableKind,
    config: &MachineConfig,
    routes: &[Route],
    traffic: &[Datagram],
) -> Vec<Option<(u16, Vec<u8>)>> {
    let mut router =
        CycleRouter::for_kind(kind, config, routes, CAM_LATENCY, &MicrocodeOptions::default())
            .expect("microcode validates");
    for d in traffic {
        router.enqueue(PortId(0), d).expect("traffic fits the buffer area");
    }
    router.run(50_000_000).expect("batch run halts");

    // Match outputs to inputs by byte image with the hop-limit decrement
    // undone (traffic is unique-ified below, so the mapping is exact).
    let out: std::collections::BTreeMap<Vec<u8>, (u16, Vec<u8>)> = router
        .forwarded()
        .iter()
        .map(|(p, d)| {
            let sent = d.to_bytes();
            let mut arrived = sent.clone();
            arrived[7] += 1; // byte 7 of the IPv6 header is the hop limit
            (arrived, (p.0, sent))
        })
        .collect();
    traffic.iter().map(|d| out.get(&d.to_bytes()).cloned()).collect()
}

/// Asserts agreement for one workload × organisation × machine, returning
/// the verdict transcript (used by the determinism test).
fn check_agreement(
    label: &str,
    kind: TableKind,
    config: &MachineConfig,
    routes: &[Route],
    traffic: &[Datagram],
) -> Vec<Verdict> {
    let reference = reference_verdicts(routes, traffic);
    let cycle = cycle_outcomes(kind, config, routes, traffic);
    for (i, ((r, frame), c)) in reference.iter().zip(&cycle).enumerate() {
        // Both routers forward the bytes they were given, so a forwarded
        // datagram is one image on both sides, hop limit included.
        let agree = match (r, c) {
            (Verdict::Forwarded { port, .. }, Some((p, sent))) => {
                port == p && frame.as_ref() == Some(sent)
            }
            (Verdict::Dropped { .. }, None) => true,
            _ => false,
        };
        assert!(
            agree,
            "{label} on {kind} {config}: datagram {i} (dst {:?}): reference says {r} \
             ({frame:02x?}), cycle says {c:02x?}",
            traffic[i].header().dst,
        );
    }
    reference.into_iter().map(|(verdict, _)| verdict).collect()
}

/// Seeded routes + traffic for one builtin workload: a sample of its data
/// stream plus hand-made edge datagrams (hop limits 0/1/2 and an
/// unroutable destination).
fn traffic_for(w: &Workload) -> (Vec<Route>, Vec<Datagram>) {
    let entries = match *w {
        Workload::SteadyForward { entries, .. }
        | Workload::BurstOverload { entries, .. }
        | Workload::TableChurn { entries, .. }
        | Workload::TraceReplay { entries, .. } => entries,
        Workload::RipngConvergence { neighbours, routes_per_neighbour, .. }
        | Workload::MixedPlane { neighbours, routes_per_neighbour, .. } => {
            neighbours * routes_per_neighbour
        }
    } as usize;
    let mut gen = TrafficGen::new(w.seed(), 4);
    let routes = gen.table(entries, false);
    let mut traffic: Vec<Datagram> =
        gen.forwarding_workload(&routes, SAMPLE, 0.85, 24).into_iter().map(|(_, d)| d).collect();

    // Edge datagrams: expiring, barely-surviving and unroutable.
    let routed = routes[0].prefix().addr();
    let src = "2001:db8:99::1".parse().unwrap();
    for hl in [0u8, 1, 2] {
        traffic.push(
            Datagram::builder(src, routed).hop_limit(hl).payload(NextHeader::Udp, vec![hl]).build(),
        );
    }
    // 9999::/16 is outside the generator's 2000::/4 allocation, so no
    // route ever covers it.
    traffic.push(
        Datagram::builder(src, "9999::1".parse().unwrap())
            .hop_limit(64)
            .payload(NextHeader::Udp, vec![0xee])
            .build(),
    );

    uniquify(&mut traffic);
    (routes, traffic)
}

/// Stamps each datagram's index into its flow label, so matching outputs
/// to inputs by byte image is exact.
fn uniquify(traffic: &mut [Datagram]) {
    for (i, d) in traffic.iter_mut().enumerate() {
        let mut bytes = d.to_bytes();
        bytes[2] = i as u8;
        *d = Datagram::parse(&bytes).expect("reparse");
    }
}

/// One cell of the seeded matrix: a `table_size`-entry table (with a
/// default route on even seeds) and twelve datagrams, 70 % of them routed,
/// all drawn from `seed`.
fn random_table_agrees(seed: u64, table_size: usize, kind: TableKind, config: &MachineConfig) {
    let mut gen = TrafficGen::new(seed, 4);
    let routes = gen.table(table_size, seed.is_multiple_of(2));
    let mut traffic: Vec<Datagram> =
        gen.forwarding_workload(&routes, 12, 0.7, 24).into_iter().map(|(_, d)| d).collect();
    uniquify(&mut traffic);
    check_agreement(&format!("seed {seed}, {table_size} entries"), kind, config, &routes, &traffic);
}

/// Cases and seed of the matrix below; case `n` draws its cell from
/// `SplitMix64::new(MATRIX_SEED ^ n)`.
const MATRIX_CASES: u64 = 48;
const MATRIX_SEED: u64 = 0xD1FF_0001;

#[test]
fn random_small_tables_agree_on_every_kind_and_paper_machine() {
    // The builtin workloads above fix the machine and the table size; this
    // walks what they leave out: 1- to 23-entry tables, with and without a
    // default route, on all three Table 1 machines.
    let machines = [
        MachineConfig::one_bus_one_fu(),
        MachineConfig::three_bus_one_fu(),
        MachineConfig::three_bus_three_fu(),
    ];
    for case in 0..MATRIX_CASES {
        let mut rng = SplitMix64::new(MATRIX_SEED ^ case);
        let seed = rng.next_u64();
        let table_size = rng.range_inclusive(1, 23) as usize;
        let kind = ALL_KINDS[rng.below(ALL_KINDS.len() as u64) as usize];
        let config = &machines[rng.below(3) as usize];
        random_table_agrees(seed, table_size, kind, config);
    }
}

/// `equivalence.proptest-regressions`, the one saved case: a one-entry
/// sequential table (padded up to the scan's unroll factor) on 3BUS/1FU.
#[test]
fn regression_one_entry_sequential_table_on_three_buses() {
    random_table_agrees(
        17_263_102_533_039_964_278,
        1,
        TableKind::Sequential,
        &MachineConfig::three_bus_one_fu(),
    );
}

#[test]
fn builtin_workloads_agree_with_the_reference_on_every_kind() {
    for w in Workload::builtin() {
        let (routes, traffic) = traffic_for(&w);
        for kind in ALL_KINDS {
            let verdicts = check_agreement(
                w.name(),
                kind,
                &MachineConfig::three_bus_one_fu(),
                &routes,
                &traffic,
            );
            // The sample must exercise both paths, or the test is vacuous.
            let forwarded =
                verdicts.iter().filter(|v| matches!(v, Verdict::Forwarded { .. })).count();
            assert!(forwarded > 0, "{} on {kind}: nothing forwarded", w.name());
            assert!(forwarded < verdicts.len(), "{} on {kind}: nothing dropped", w.name());
        }
    }
}

#[test]
fn edge_datagrams_classify_as_the_rfc_says() {
    let routes = vec![
        Route::new("2001:db8::/32".parse().unwrap(), "fe80::1".parse().unwrap(), PortId(1), 1),
        Route::new("2001:db8:aa::/48".parse().unwrap(), "fe80::2".parse().unwrap(), PortId(2), 1),
    ];
    let src = "2001:db8:99::1".parse().unwrap();
    let dgram = |dst: &str, hl: u8, tag: u8| {
        Datagram::builder(src, dst.parse().unwrap())
            .hop_limit(hl)
            .payload(NextHeader::Udp, vec![tag])
            .build()
    };
    // The paper keeps whole datagrams in memory because of extension
    // headers: the fast path reads the destination at its fixed offset and
    // forwards the chain untouched (outputs are matched by bytes).  A
    // hop-by-hop header (one PadN), a type 0 routing header with one
    // address left and a fragment at offset 4 with more to come.
    let chain = [
        &[43u8, 0, 1, 4, 0, 0, 0, 0][..],
        &[44, 2, 0, 1, 0, 0, 0, 0],
        &[7; 16],
        &[17, 0, 0, 0x21, 0, 0, 0, 99],
    ]
    .concat();
    let payload = [0xab; 32];
    let header = Ipv6Header {
        traffic_class: 0,
        flow_label: 0,
        payload_len: (chain.len() + payload.len()) as u16,
        next_header: NextHeader::HopByHop,
        hop_limit: 9,
        src,
        dst: "2001:db8:aa::42".parse().unwrap(),
    };
    let chained = Datagram::parse(&[&header.to_bytes()[..], &chain, &payload].concat())
        .expect("a legal chain");
    let traffic = vec![
        dgram("2001:db8:5::1", 0, 0),   // expires: ICMP time exceeded
        dgram("2001:db8:5::1", 1, 1),   // expires: would not survive the decrement
        dgram("2001:db8:5::1", 2, 2),   // barely survives: out port 1, hop limit 1
        dgram("2001:db8:aa::7", 64, 3), // longest match wins: port 2
        dgram("9999::1", 64, 4),        // no route: ICMP destination unreachable
        dgram("ff02::1", 64, 5),        // unserved multicast: silent drop
        dgram("2001:db8:5::1", 255, 6), // the largest hop limit decrements like any other
        chained,                        // the chain rides along untouched: port 2
    ];
    let expected = vec![
        Verdict::Dropped { icmp_error: true },
        Verdict::Dropped { icmp_error: true },
        Verdict::Forwarded { port: 1, hop_limit: 1 },
        Verdict::Forwarded { port: 2, hop_limit: 63 },
        Verdict::Dropped { icmp_error: true },
        Verdict::Dropped { icmp_error: false },
        Verdict::Forwarded { port: 1, hop_limit: 254 },
        Verdict::Forwarded { port: 2, hop_limit: 8 },
    ];
    for kind in ALL_KINDS {
        let verdicts =
            check_agreement("edges", kind, &MachineConfig::three_bus_one_fu(), &routes, &traffic);
        assert_eq!(verdicts, expected, "{kind}");
    }
}

#[test]
fn malformed_frames_drop_in_the_same_class_on_both_routers() {
    // Injected fault traffic: the reference must classify every frame as a
    // silent malformed drop (RFC 2460 parse failure — no ICMP), and the
    // cycle path must drop the frames that reach it, never forward them.
    // A well-formed control frame proves the path stays open.
    let routes = vec![
        Route::new("2001:db8::/32".parse().unwrap(), "fe80::1".parse().unwrap(), PortId(1), 1),
        Route::new("2001:db8:aa::/48".parse().unwrap(), "fe80::2".parse().unwrap(), PortId(2), 1),
    ];
    let good =
        Datagram::builder("2001:db8:99::1".parse().unwrap(), "2001:db8:5::1".parse().unwrap())
            .hop_limit(64)
            .payload(NextHeader::Udp, vec![0xab])
            .build()
            .to_bytes();

    // Truncated frames: shorter than one IPv6 header, or cut mid-payload so
    // the declared payload length disagrees with the byte count.
    let truncated: Vec<Vec<u8>> =
        vec![vec![0x60], vec![0x60; 8], good[..39].to_vec(), good[..good.len() - 1].to_vec()];
    // Length-consistent frames whose version nibble is not 6: these pass a
    // pure length screen and must be caught by the header parse itself.
    let bad_version: Vec<Vec<u8>> = [0u8, 4, 7, 15]
        .iter()
        .map(|v| {
            let mut bytes = good.clone();
            bytes[0] = (bytes[0] & 0x0f) | (v << 4);
            bytes
        })
        .collect();

    // Reference verdicts: every malformed frame is a silent malformed drop.
    let table = SequentialTable::from_routes(routes.iter().copied());
    let mut reference = ReferenceRouter::new(table, vec![ROUTER_ADDR.parse().unwrap()]);
    for bytes in truncated.iter().chain(&bad_version) {
        match reference.process(PortId(0), bytes.clone()) {
            ForwardDecision::Drop { reason: DropReason::Malformed, icmp: None } => {}
            other => panic!("reference must drop malformed frames silently, got {other:?}"),
        }
    }
    assert!(matches!(
        reference.process(PortId(0), good.clone()),
        ForwardDecision::Forward { out_port: PortId(1), .. }
    ));
    assert_eq!(reference.stats().dropped_malformed, (truncated.len() + bad_version.len()) as u64);

    // Cycle verdicts, on every organisation: the paper's linecards hand over
    // fully assembled datagrams, so no truncated frame reaches the
    // processor; bad-version frames enter the pipeline and the microcode's
    // version check drops them.  Nothing malformed ever forwards.
    let config = MachineConfig::three_bus_one_fu();
    for kind in ALL_KINDS {
        let mut router = CycleRouter::for_kind(
            kind,
            &config,
            &routes,
            CAM_LATENCY,
            &MicrocodeOptions::default(),
        )
        .expect("microcode validates");
        for bytes in bad_version.iter().chain([&good]) {
            router
                .enqueue_words(PortId(0), &bytes_to_words(bytes), bytes.len())
                .expect("fits the buffer area");
        }
        router.run(50_000_000).expect("batch run halts");
        let forwarded = router.forwarded();
        assert_eq!(forwarded.len(), 1, "{kind}: only the well-formed frame forwards");
        assert_eq!(forwarded[0].0, PortId(1), "{kind}");
    }
}

#[test]
fn verdict_transcripts_are_seeded_and_deterministic() {
    let w = Workload::burst_overload();
    let transcript = || -> String {
        let (routes, traffic) = traffic_for(&w);
        let mut out = String::new();
        for kind in ALL_KINDS {
            for v in check_agreement(
                w.name(),
                kind,
                &MachineConfig::three_bus_one_fu(),
                &routes,
                &traffic,
            ) {
                out.push_str(&format!("{kind}:{v}\n"));
            }
        }
        out
    };
    assert_eq!(transcript(), transcript(), "same seed, same verdicts, byte for byte");

    // A different seed draws different traffic (the transcripts are seeded,
    // not accidental).
    let (_, a) = traffic_for(&w);
    let (_, b) = traffic_for(&w.with_seed(w.seed() ^ 1));
    assert_ne!(
        a.iter().map(Datagram::to_bytes).collect::<Vec<_>>(),
        b.iter().map(Datagram::to_bytes).collect::<Vec<_>>(),
    );
}
