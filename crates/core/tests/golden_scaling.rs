//! Golden snapshot of the engines' internet-scale behaviour: probe counts
//! and memory footprint over a 10k-prefix BGP-shaped table.
//!
//! Table 1 stops at 100 entries; this fixture pins what each organisation
//! *becomes* at BGP size — all-integer, so the snapshot is byte-stable on
//! every platform.  For each of the four table kinds it records, over the
//! same seeded table and 1000-probe mix:
//!
//! * `max_probes` / `total_probes` — the engine's search cost signature
//!   (constant CAM, logarithmic tree, branching-bound PATRICIA, linear scan);
//! * `memory_words` — the serialised footprint of the built table;
//! * `hits` — identical for every kind by the LPM oracle, pinned once.
//!
//! Regenerate after an intentional change:
//!
//! ```text
//! BLESS=1 cargo test -p taco-core --test golden_scaling
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use taco_router::TrafficGen;
use taco_routing::TableKind;

const ENTRIES: usize = 10_000;
const PROBES: usize = 1_000;
const SEED: u64 = 0x5_CA1E_10C0;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/scaling10k.json")
}

fn snapshot() -> String {
    let mut gen = TrafficGen::new(SEED, 8);
    let routes = gen.bgp_table(ENTRIES, false);
    // Mostly-hitting probe mix: two of three addresses inside some route.
    let probes: Vec<_> = (0..PROBES)
        .map(|i| {
            if i % 3 == 0 {
                gen.addr_in(&"2000::/3".parse().unwrap())
            } else {
                let r = routes[(i * 2654435761) % routes.len()];
                gen.addr_in(&r.prefix())
            }
        })
        .collect();
    let mut out = String::new();
    let mut hits_by_kind = Vec::new();
    for kind in TableKind::ALL_KINDS {
        let table = kind.build(&routes);
        let mut max_probes = 0u64;
        let mut total_probes = 0u64;
        let mut hits = 0u64;
        for dst in &probes {
            let lookup = table.lookup(dst);
            max_probes = max_probes.max(u64::from(lookup.steps()));
            total_probes += u64::from(lookup.steps());
            hits += u64::from(lookup.route().is_some());
        }
        hits_by_kind.push(hits);
        let _ = writeln!(
            out,
            "{{\"kind\":\"{kind}\",\"entries\":{ENTRIES},\"probes\":{PROBES},\
             \"max_probes\":{max_probes},\"total_probes\":{total_probes},\
             \"memory_words\":{},\"hits\":{hits}}}",
            table.memory_words(),
        );
    }
    // The fixture would silently pin a divergence bug as golden if the
    // engines disagreed; refuse to snapshot that.
    assert!(
        hits_by_kind.windows(2).all(|w| w[0] == w[1]),
        "engines disagree on hit counts: {hits_by_kind:?}"
    );
    out
}

#[test]
fn scaling_at_10k_prefixes_matches_golden_fixture() {
    let current = snapshot();
    let path = fixture_path();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &current).expect("write fixture");
        eprintln!("blessed {} ({} kinds)", path.display(), current.lines().count());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with \
             BLESS=1 cargo test -p taco-core --test golden_scaling",
            path.display()
        )
    });
    assert_eq!(
        current, golden,
        "10k-prefix scaling drifted from the golden fixture; if the change \
         is intentional, regenerate with BLESS=1 and review the diff"
    );
}

#[test]
fn golden_scaling_fixture_shape() {
    let golden = std::fs::read_to_string(fixture_path()).expect("fixture present");
    let lines: Vec<&str> = golden.lines().collect();
    assert_eq!(lines.len(), TableKind::ALL_KINDS.len(), "one line per organisation");
    for (line, kind) in lines.iter().zip(TableKind::ALL_KINDS) {
        assert!(line.starts_with(&format!("{{\"kind\":\"{kind}\"")), "{line}");
        for key in ["\"max_probes\":", "\"total_probes\":", "\"memory_words\":", "\"hits\":"] {
            assert!(line.contains(key), "{key} missing from {line}");
        }
    }
}
