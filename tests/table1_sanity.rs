//! Integration test over the headline result: the reproduced Table 1 has
//! the paper's qualitative structure.  (The full-size table is printed by
//! `cargo run -p taco-bench --bin taco-cli -- table1`; here a reduced routing table
//! keeps CI fast while preserving every ordering the paper reports.)

use taco::eval::{scaling_sweep, table1, ArchConfig, EvalRequest, LineRate};
use taco::routing::cam::CamSpec;
use taco::routing::TableKind;
use taco::sim::SimError;

const ENTRIES: usize = 32;

#[test]
fn table1_reproduces_the_papers_structure() {
    let reports = table1::table1(LineRate::TEN_GBE, ENTRIES);
    // The paper's nine cells first (indices 0..9), then the appended
    // PATRICIA row (see `ArchConfig::table1_cells`).
    assert_eq!(reports.len(), 12);

    let freq = |kind: TableKind, cfg: usize| -> f64 {
        let idx = TableKind::PAPER_KINDS.iter().position(|k| *k == kind).expect("paper kind");
        reports[idx * 3 + cfg].required_frequency_hz
    };

    // Within every row: more interconnect never hurts.
    for kind in TableKind::PAPER_KINDS {
        assert!(freq(kind, 1) < freq(kind, 0), "{kind}: 3 buses must beat 1");
        assert!(freq(kind, 2) <= freq(kind, 1) * 1.01, "{kind}: 3 FUs must not lose");
    }

    // Between rows, for every configuration: sequential > tree > cam.
    for cfg in 0..3 {
        assert!(freq(TableKind::Sequential, cfg) > freq(TableKind::BalancedTree, cfg));
        assert!(freq(TableKind::BalancedTree, cfg) > freq(TableKind::Cam, cfg));
    }

    // The paper's bus-scaling factor (1 bus -> 3 buses ~ 2-3x).
    let scale = freq(TableKind::Sequential, 0) / freq(TableKind::Sequential, 1);
    assert!((1.8..3.5).contains(&scale), "bus scaling {scale}");

    // The paper's CAM observation: FUs barely matter once lookups are
    // constant-time.
    let cam_gain = freq(TableKind::Cam, 1) / freq(TableKind::Cam, 2);
    assert!(cam_gain < 1.25, "cam fu gain {cam_gain}");

    // 1-bus rows saturate their single bus (paper: 100%).
    for kind in TableKind::PAPER_KINDS {
        let idx = TableKind::PAPER_KINDS.iter().position(|k| *k == kind).expect("kind") * 3;
        assert!(
            reports[idx].bus_utilization() > 0.9,
            "{kind} 1-bus utilisation {}",
            reports[idx].bus_utilization()
        );
    }

    // The appended PATRICIA row keeps the same within-row structure: more
    // interconnect never hurts, and its 1-bus cell saturates the bus.
    let pat = |cfg: usize| reports[9 + cfg].required_frequency_hz;
    assert_eq!(reports[9].config.table, TableKind::Patricia);
    assert!(pat(1) < pat(0), "patricia: 3 buses must beat 1");
    assert!(pat(2) <= pat(1) * 1.01, "patricia: 3 FUs must not lose");
    assert!(reports[9].bus_utilization() > 0.9);
}

#[test]
fn na_pattern_appears_at_full_scale_line_rate() {
    // At minimum-size frames (the adversarial 14.88 Mpps) the sequential
    // organisation is infeasible on 0.18um in every configuration, exactly
    // like the paper's 6 GHz / 2 GHz cells; the CAM stays comfortably
    // feasible.
    let seq = EvalRequest::new(ArchConfig::one_bus_one_fu(TableKind::Sequential))
        .rate(LineRate::TEN_GBE_MIN_FRAMES)
        .entries(ENTRIES)
        .run();
    assert!(!seq.is_feasible());
    let cam = EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam))
        .rate(LineRate::TEN_GBE_MIN_FRAMES)
        .entries(ENTRIES)
        .run();
    assert!(cam.is_feasible(), "{:?}", cam.estimate);
}

#[test]
fn cam_fixed_point_latency_is_consistent() {
    // The CAM evaluation iterates clock <-> RTU latency to a fixed point;
    // verify the published pair is self-consistent: latency equals the
    // 40 ns search converted at the required clock.
    let r = EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam))
        .rate(LineRate::TEN_GBE)
        .entries(ENTRIES)
        .run();
    let spec = taco::routing::cam::CamSpec::paper_default();
    assert_eq!(
        u64::from(r.rtu_latency_cycles),
        spec.search_cycles(r.required_frequency_hz),
        "latency {} inconsistent with clock {}",
        r.rtu_latency_cycles,
        r.required_frequency_hz
    );
}

#[test]
fn cam_latency_is_exact_or_the_watchdog_at_any_rate() {
    // A decade apart from 10 Gbit/s to 10^30 b/s.  Past some rate the 40 ns
    // search alone, once per datagram, outlasts the simulation watchdog;
    // the report must say so, never simulate at a latency wrapped to 32
    // bits.
    let spec = CamSpec::paper_default();
    let mut watchdogs = 0;
    for decade in 10..=30 {
        let rate = LineRate::new(10f64.powi(decade), 1040);
        let r = EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Cam))
            .rate(rate)
            .entries(ENTRIES)
            .run();
        match r.sim_error {
            None => assert_eq!(
                u64::from(r.rtu_latency_cycles),
                spec.search_cycles(r.required_frequency_hz),
                "1e{decade} b/s"
            ),
            Some(SimError::Watchdog { .. }) => watchdogs += 1,
            Some(e) => panic!("1e{decade} b/s: {e}"),
        }
    }
    assert!((1..21).contains(&watchdogs), "{watchdogs} of 21 rates hit the watchdog");
}

#[test]
fn sequential_scales_linearly_tree_logarithmically() {
    let growth = |kind| {
        let series = scaling_sweep(&ArchConfig::one_bus_one_fu(kind), &[16, 64]);
        (series[0].1, series[1].1)
    };
    let (s16, s64) = growth(TableKind::Sequential);
    assert!(s64 / s16 > 2.0, "sequential must scale: {s16} -> {s64}");
    let (t16, t64) = growth(TableKind::BalancedTree);
    assert!(t64 / t16 < 1.6, "tree must not scale linearly: {t16} -> {t64}");
    let (c16, c64) = growth(TableKind::Cam);
    assert!(c64 / c16 < 1.1, "cam must be flat: {c16} -> {c64}");
}
