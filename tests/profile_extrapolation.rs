//! A table's block profile is recorded from an empty run and a
//! one-datagram run, each count extrapolated to the eight measurement
//! datagrams as `empty + 8 × (one − empty)`.  That is exact because the
//! measurement input is one datagram enqueued eight times.  A sequential
//! table's one-datagram run steps only the table's tail from the block
//! where the screen pass stops, `h`, and one block more, and counts the
//! `h` miss blocks before it as `h` times what that block adds.  This suite
//! holds the recorded profile equal, count for count, to stepping all
//! eight datagrams over the whole table.

use taco::eval::{profile_pair, TableKind};

#[test]
fn the_extrapolated_profile_is_the_eight_datagram_recording() {
    for kind in TableKind::ALL_KINDS {
        for entries in [8, 100, 1024] {
            let (recorded, stepped) = profile_pair(kind, entries);
            assert!(recorded.is_some(), "{kind} records a profile at {entries} entries");
            assert_eq!(recorded, stepped, "{kind} at {entries} entries");
        }
    }
}

#[test]
fn the_tail_recorded_sequential_profile_is_the_whole_table_s_at_every_size() {
    // Every size up to two full three-lane blocks, every 23rd up to one past
    // the largest input the memo keeps, and the last size whose eight
    // datagram slots fit above the image.
    let sizes = (1..=7).chain((1..=2049).step_by(23)).chain([2048, 2049, 5097]);
    for entries in sizes {
        let (recorded, stepped) = profile_pair(TableKind::Sequential, entries);
        assert!(recorded.is_some(), "a profile at {entries} entries");
        assert_eq!(recorded, stepped, "{entries} entries");
    }
    // One entry more and the eighth slot overruns data memory: the recording
    // refuses from the whole image, and stepping eight fails.
    assert_eq!(profile_pair(TableKind::Sequential, 5098), (None, None));
}

#[test]
fn a_table_with_room_for_one_datagram_but_not_eight_records_nothing() {
    // 1 939 PATRICIA entries leave room for the eight datagram slots above
    // the image; 1 940 leave room for one, which a one-datagram run fits.
    assert!(profile_pair(TableKind::Patricia, 1939).0.is_some());
    assert_eq!(profile_pair(TableKind::Patricia, 1940), (None, None));
}
