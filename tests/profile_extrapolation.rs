//! A table's block profile is recorded from an empty run and a
//! one-datagram run, each count extrapolated to the eight measurement
//! datagrams as `empty + 8 × (one − empty)`.  That is exact because the
//! measurement input is one datagram enqueued eight times: this suite holds
//! the extrapolated profile equal, count for count, to a recording that
//! steps all eight.

use taco::eval::{profile_pair, TableKind};

#[test]
fn the_extrapolated_profile_is_the_eight_datagram_recording() {
    for kind in TableKind::ALL_KINDS {
        for entries in [8, 100, 1024] {
            let (extrapolated, stepped) = profile_pair(kind, entries)
                .unwrap_or_else(|| panic!("{kind} records a profile at {entries} entries"));
            assert_eq!(extrapolated, stepped, "{kind} at {entries} entries");
        }
    }
}

#[test]
fn a_table_with_room_for_one_datagram_but_not_eight_records_nothing() {
    // 1 939 PATRICIA entries leave room for the eight datagram slots above
    // the image; 1 940 leave room for one, which a one-datagram run fits.
    assert!(profile_pair(TableKind::Patricia, 1939).is_some());
    assert!(profile_pair(TableKind::Patricia, 1940).is_none());
}
