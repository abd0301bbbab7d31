//! An evaluation fails exactly where stepping its eight measurement
//! datagrams fails, with the same report.
//!
//! Two shortcuts make this worth pinning.  A table's block profile is
//! recorded from one datagram, so without its own check it would price a
//! table that has room above its image for one datagram slot but not for
//! eight.  And an evaluation whose table cannot fit on any machine (a
//! sequential image past data memory with its slots, a CAM table past the
//! chip's rows) is refused from arithmetic before an input is prepared.
//! Both must give the stepped oracle's report, error fields included.

use taco::eval::{
    evaluate_request, explore, explore_serial, Constraints, EvalRequest, LineRate, SweepSpec,
    TableKind,
};

/// Per kind, the sizes on either side of where the eight measurement slots
/// stop fitting above the table image in 65 536 words of data memory (the
/// first fits, the second leaves room for one slot, not eight) or, for the
/// CAM, of its 8 192 rows; and for the sequential scan, the two sides of
/// where the image itself stops fitting, which fail with different errors.
const BOUNDARIES: [(TableKind, &[usize]); 4] = [
    (TableKind::Sequential, &[5097, 5098, 5439, 5440]),
    (TableKind::BalancedTree, &[3838, 3839]),
    (TableKind::Cam, &[8192, 8193]),
    (TableKind::Patricia, &[1939, 1940]),
];

#[test]
fn an_evaluation_fails_exactly_where_stepping_eight_datagrams_fails() {
    let constraints = Constraints::default();
    for (kind, sizes) in BOUNDARIES {
        let mut failed = Vec::new();
        for &entries in sizes {
            let spec = SweepSpec {
                buses: vec![1, 3],
                replication: vec![1, 3],
                kinds: vec![kind],
                entries,
                ..SweepSpec::default()
            };
            let stepped = explore_serial(&spec, LineRate::TEN_GBE, &constraints).all;
            let priced = explore(&spec, LineRate::TEN_GBE, &constraints).all;
            assert_eq!(priced, stepped, "{kind} sweep at {entries} entries");
            for oracle in &stepped {
                let request = EvalRequest::new(oracle.config.clone())
                    .rate(LineRate::TEN_GBE)
                    .entries(entries);
                assert_eq!(&evaluate_request(&request), oracle, "{} at {entries}", oracle.config);
            }
            failed.push(stepped[0].sim_error.clone());
        }
        assert!(
            failed[0].is_none() && failed[1..].iter().all(Option::is_some),
            "{kind}: {failed:?}"
        );
    }
}
