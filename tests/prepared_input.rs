//! `evaluate_request` through the shared `PreparedInput`, the compiled-
//! program cache and the re-armed router must report exactly what one
//! freshly built `CycleRouter::for_kind` per measurement reports — for
//! every table organisation, on both sides of the 661-entry boundary where
//! the datagram slots move above the table image, cold or warm, from one
//! thread or eight.  The route draws behind every input are pinned by
//! known digests.

use std::sync::Barrier;

use taco::estimate::{Estimator, ExternalCam};
use taco::eval::{benchmark_routes, evaluate_request, ArchConfig, EvalReport, EvalRequest};
use taco::ipv6::{Datagram, NextHeader};
use taco::router::cycle::CycleRouter;
use taco::router::layout::serialize_tree;
use taco::router::microcode::MicrocodeOptions;
use taco::router::traffic::TrafficGen;
use taco::routing::{BalancedTreeTable, PortId, Route, SequentialTable, TableKind};
use taco::sim::{SimError, SimStats};

/// The measurement workload, rebuilt from public pieces: one datagram
/// addressed to the entry the sequential scan reaches last, eight times.
fn measurement_datagrams(routes: &[Route]) -> Vec<Datagram> {
    let mut gen = TrafficGen::new(0x0DA7A, 4);
    let table = SequentialTable::from_routes(routes.iter().copied());
    let deepest = *table.entries().last().expect("non-empty table");
    let datagram =
        Datagram::builder("2001:db8:ffff::1".parse().unwrap(), gen.addr_in(&deepest.prefix()))
            .hop_limit(64)
            .payload(NextHeader::Udp, vec![0u8; 32])
            .build();
    vec![datagram; 8]
}

/// One measurement on a router built from scratch at `rtu_latency`.
fn fresh_measurement(
    config: &ArchConfig,
    entries: usize,
    rtu_latency: u32,
) -> Result<(SimStats, usize, u64), SimError> {
    let routes = benchmark_routes(entries);
    let mut router = CycleRouter::for_kind(
        config.table,
        &config.machine,
        &routes,
        rtu_latency,
        &MicrocodeOptions::default(),
    )?;
    router.enqueue_batch(measurement_datagrams(&routes).iter().map(|d| (PortId(0), d)))?;
    let stats = router.run(50_000_000)?;
    let bits = taco::isa::encode(router.processor().program(), &config.machine)
        .map_or(0, |e| e.total_bits());
    Ok((stats, router.forwarded().len().max(1), bits))
}

/// Holds `report` to the numbers a from-scratch build at its converged RTU
/// latency produces.
fn assert_matches_a_fresh_build(request: &EvalRequest, report: &EvalReport) {
    let what = format!("{} n={}", request.config, request.entries);
    match fresh_measurement(&request.config, request.entries, report.rtu_latency_cycles) {
        Err(e) => assert_eq!(report.sim_error, Some(e), "{what}"),
        Ok((stats, forwarded, bits)) => {
            assert_eq!(report.sim_error, None, "{what}");
            assert_eq!(report.stats, stats, "{what}");
            assert_eq!(report.program_bits, bits, "{what}");
            let cycles = stats.cycles as f64 / forwarded as f64;
            assert_eq!(report.cycles_per_datagram, cycles, "{what}");
            let frequency = request.line_rate.required_frequency_hz(cycles);
            assert_eq!(report.required_frequency_hz, frequency, "{what}");
            let mut estimator = Estimator::new().with_program_bits(bits);
            if request.config.table == TableKind::Cam {
                estimator = estimator.with_cam(ExternalCam::micron_harmony());
            }
            assert_eq!(
                report.estimate,
                estimator.estimate(&request.config.machine, frequency),
                "{what}"
            );
        }
    }
}

#[test]
fn every_kind_size_and_shape_equals_a_freshly_built_router() {
    let shapes =
        [ArchConfig::one_bus_one_fu, ArchConfig::three_bus_one_fu, ArchConfig::three_bus_three_fu];
    for kind in TableKind::ALL_KINDS {
        for entries in [1, 8, 100, 661, 662, 1024] {
            for shape in shapes {
                let request = EvalRequest::new(shape(kind)).entries(entries);
                let report = evaluate_request(&request);
                assert_matches_a_fresh_build(&request, &report);
                assert_eq!(report.sim_error, None, "{report}");
                // Warm: same input, same compiled program, new router.
                assert_eq!(evaluate_request(&request), report, "{kind} n={entries}");
            }
        }
    }
}

#[test]
fn threads_racing_one_cold_input_get_identical_reports() {
    const THREADS: usize = 8;
    for kind in TableKind::ALL_KINDS {
        // A size nothing else in this test binary evaluates, so the input
        // (and this kind's image in it) is cold when the barrier opens.
        let request = EvalRequest::new(ArchConfig::three_bus_three_fu(kind)).entries(77);
        let barrier = Barrier::new(THREADS);
        let reports: Vec<EvalReport> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        evaluate_request(&request)
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().expect("racer panicked")).collect()
        });
        assert!(reports.iter().all(|r| *r == reports[0]), "{kind}");
        assert_matches_a_fresh_build(&request, &reports[0]);
    }
}

#[test]
fn an_evicted_input_is_rebuilt_to_the_same_report() {
    let request = |entries| {
        EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::BalancedTree)).entries(entries)
    };
    let first = evaluate_request(&request(40));
    // Far more distinct sizes than the memo holds push size 40 out.
    let others: Vec<EvalReport> = (41..=56).map(|n| evaluate_request(&request(n))).collect();
    assert_eq!(evaluate_request(&request(40)), first);
    for (n, other) in (41..=56).zip(&others) {
        assert_eq!(evaluate_request(&request(n)), *other, "n={n}");
    }
}

/// 64-bit FNV-1a over every field of `routes`, in order.
fn route_digest(routes: &[Route]) -> u64 {
    let bytes = routes.iter().flat_map(|r| {
        let prefix = r.prefix();
        let mut row = Vec::with_capacity(38);
        row.extend(prefix.addr().octets());
        row.push(prefix.len());
        row.extend(r.next_hop().octets());
        row.extend(r.interface().0.to_le_bytes());
        row.push(r.metric());
        row.extend(r.route_tag().to_le_bytes());
        row
    });
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The route draws are a fixed stream: every table below is pinned by its
/// digest, so a change to how repeated prefixes are detected cannot move a
/// route.  The draw loop meets repeats, and these sizes include some:
/// counted at the loop's `continue`, `benchmark_routes` skips none at 1 and
/// 100 entries, 1 at 1 024, 4 at 2 048 and 11 at 3 000, and `bgp_table`
/// none at 100 and 94 at 10 000.
#[test]
fn the_route_draws_reproduce_their_known_digests() {
    let known = [
        (1, 0xcca9_ed64_1d52_044c),
        (100, 0xeb3d_f432_4514_fc06),
        (1024, 0xc369_475a_c366_27e8),
        (2048, 0x8d66_b7cb_fb0b_84e0),
        (3000, 0x34f1_2992_0f9e_c2a2),
    ];
    for (entries, digest) in known {
        let routes = benchmark_routes(entries);
        assert_eq!(routes.len(), entries);
        assert_eq!(route_digest(&routes), digest, "benchmark_routes({entries})");
    }
    for (entries, digest) in [(100, 0x6b9e_64c9_8a73_8931), (10_000, 0xaae1_8c03_e089_32d6)] {
        let routes = TrafficGen::new(11, 4).bgp_table(entries, true);
        assert_eq!(routes.len(), entries + 1);
        assert_eq!(route_digest(&routes), digest, "bgp_table({entries})");
    }
}

/// 64-bit FNV-1a over `words`, each as its little-endian bytes, in order.
fn word_digest(words: &[u32]) -> u64 {
    let bytes = words.iter().flat_map(|w| w.to_le_bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The balanced tree built over each pinned route draw above is pinned by
/// its segment count and its serialised image's digest, so a change to how
/// the tree stores its routes or cuts its segments cannot move a word of
/// what the microcode walks.  The BGP-shaped tables nest every prefix
/// inside their default route.
#[test]
fn the_tree_images_reproduce_their_known_digests() {
    let image = |routes: Vec<Route>| {
        let table = BalancedTreeTable::from_routes(routes);
        (table.segments().count(), word_digest(&serialize_tree(&table)))
    };
    let known = [
        (1, 3, 0x2670_e9b0_46f7_ff42),
        (100, 201, 0x3a71_1d12_8f92_ba97),
        (1024, 2049, 0x2fe4_13db_ca9f_54be),
        (2048, 4091, 0x074b_c1d3_5a2b_1718),
        (3000, 5978, 0x2d8f_3238_d5ff_79f5),
    ];
    for (entries, segments, digest) in known {
        assert_eq!(
            image(benchmark_routes(entries)),
            (segments, digest),
            "benchmark_routes({entries})"
        );
    }
    for (entries, segments, digest) in
        [(100, 194, 0xcfa1_15d0_baf4_837b), (10_000, 19_468, 0x199e_3124_0dfa_7086)]
    {
        let routes = TrafficGen::new(11, 4).bgp_table(entries, true);
        assert_eq!(image(routes), (segments, digest), "bgp_table({entries})");
    }
}
