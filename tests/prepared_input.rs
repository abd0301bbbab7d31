//! `evaluate_request` through the shared `PreparedInput`, the compiled-
//! program cache and the re-armed router must report exactly what one
//! freshly built `CycleRouter::for_kind` per measurement reports — for
//! every table organisation, on both sides of the 661-entry boundary where
//! the datagram slots move above the table image, cold or warm, from one
//! thread or eight.

use std::sync::Barrier;

use taco::estimate::{Estimator, ExternalCam};
use taco::eval::{benchmark_routes, evaluate_request, ArchConfig, EvalReport, EvalRequest};
use taco::ipv6::{Datagram, NextHeader};
use taco::router::cycle::CycleRouter;
use taco::router::microcode::MicrocodeOptions;
use taco::router::traffic::TrafficGen;
use taco::routing::{PortId, Route, SequentialTable, TableKind};
use taco::sim::{SimError, SimStats};

/// The measurement workload, rebuilt from public pieces: eight datagrams
/// addressed to the entry the sequential scan reaches last.
fn measurement_datagrams(routes: &[Route]) -> Vec<Datagram> {
    let mut gen = TrafficGen::new(0x0DA7A, 4);
    let table = SequentialTable::from_routes(routes.iter().copied());
    let deepest = *table.entries().last().expect("non-empty table");
    (0..8)
        .map(|_| {
            Datagram::builder("2001:db8:ffff::1".parse().unwrap(), gen.addr_in(&deepest.prefix()))
                .hop_limit(64)
                .payload(NextHeader::Udp, vec![0u8; 32])
                .build()
        })
        .collect()
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
