//! Internet-scale churn regression: the `table-churn` scenario on a
//! BGP-shaped table far beyond the paper's 100-entry cap, proving the
//! arena-backed PATRICIA engine recycles freed slots instead of leaking them.
//!
//! The debug-tier size here is 20k prefixes (the release-built 100k smoke
//! lives in `scripts/verify.sh` via `taco-cli churn`).  The bounded
//! arena invariant is stated as *no growth with churn cycles*: doubling
//! the measured window doubles the withdraw/re-advertise events, and the
//! footprint high-water mark must not move by a single word.

use taco_routing::TableKind;
use taco_workload::{run_scenario, ScenarioConfig, ScenarioMetrics, Workload, DEFAULT_SEED};

/// Debug-build-friendly internet scale.
const ENTRIES: u32 = 20_000;

fn churn(ticks: u32) -> Workload {
    Workload::TableChurn {
        seed: DEFAULT_SEED,
        ticks,
        packets_per_tick: 8,
        entries: ENTRIES,
        churn_every: 10,
        churn_size: 200,
    }
}

fn run(kind: TableKind, ticks: u32) -> ScenarioMetrics {
    run_scenario(&churn(ticks), &ScenarioConfig::new(kind))
}

#[test]
fn the_arena_stays_bounded_across_churn_cycles_at_20k_prefixes() {
    let short = run(TableKind::Patricia, 60);
    let long = run(TableKind::Patricia, 120);
    assert!(long.forwarded > 0, "churn run forwarded nothing");
    assert!(long.table_updates() > 0, "no churn updates were serviced");
    assert!(long.table_memory_words > 0, "footprint metric never sampled");
    assert_eq!(
        short.table_memory_words, long.table_memory_words,
        "arena grew with extra churn cycles — the free list is leaking"
    );
}

#[test]
fn patricia_footprint_matches_the_offline_build_at_scale() {
    // The harness seeds the table incrementally (RIPng adverts in card
    // batches); the high-water mark it reports must be what a one-shot
    // `from_routes` build of the same prefixes costs — incremental insert
    // buys churn capability, not a different memory story.  The scenario
    // router additionally carries one connected prefix per line card,
    // each worth at most a leaf plus a split node.
    use taco_router::traffic::TrafficGen;
    use taco_routing::{LpmTable, PatriciaTable};

    const PAT_NODE_WORDS: u64 = 16;
    const CONNECTED_PREFIXES: u64 = 4; // one per scenario port

    let routes = TrafficGen::new(DEFAULT_SEED, 4).bgp_table(ENTRIES as usize, false);
    let offline = PatriciaTable::from_routes(routes).memory_words() as u64;
    let measured = run(TableKind::Patricia, 30).table_memory_words;
    assert!(measured >= offline, "measured {measured} words below the offline build's {offline}");
    assert!(
        measured <= offline + CONNECTED_PREFIXES * 2 * PAT_NODE_WORDS,
        "incremental seeding changed the arena footprint: {measured} vs offline {offline}"
    );
}

#[test]
fn churn_metrics_are_deterministic_at_scale() {
    let a = run(TableKind::Patricia, 40);
    let b = run(TableKind::Patricia, 40);
    assert_eq!(a.to_json(), b.to_json(), "same seed, same metrics, byte for byte");
}
