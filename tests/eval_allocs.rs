//! Heap allocations of one warm `evaluate_request`, counted — the
//! stopwatch-free regression gate for "evaluate once per input" and for
//! "price a single evaluation from its table's block profile".
//!
//! With the routes, packed measurement frame, table image, compiled
//! program with its block summary and the block profile shared, a warm
//! evaluation prices every round and allocates for its report alone.  Stepping a round again builds a
//! router (data memory and machine state) and more than doubles the count;
//! rebuilding any of the shared pieces per evaluation multiplies it: the
//! same cells cost 146 / 184 / 210 / 159 allocations before the pieces were
//! shared.
//!
//! A cold row counts the first evaluation of a machine the binary has not
//! compiled microcode for, a fresh-size row the first evaluation of a table
//! size it has not prepared, and the last row counts a behavioural scenario
//! per offered datagram.  The report's own size is held beside them, as
//! every cache copies it.
//!
//! One test in a binary of its own, so no other test's allocations land in
//! the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use taco::eval::{evaluate_request, ArchConfig, EvalReport, EvalRequest, Workload};
use taco::routing::TableKind;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting calls that obtain memory.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a relaxed statistic that publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_warm_evaluation_allocates_for_one_router_not_for_its_input() {
    // Every cache hit, insert and re-hash copies a report: 248 bytes since
    // its scenario metrics are boxed, 1 000 while every report held them
    // inline, though most carry none.
    let bytes = std::mem::size_of::<EvalReport>();
    assert!(bytes <= 256, "an EvalReport is {bytes} bytes (ceiling 256)");

    // The ceilings are the counts (1 / 1 / 2 / 1): a priced round
    // allocates the one `Vec` of its folded trigger record (one node of a
    // trigger map until the record had one layout) and nothing else (the
    // CAM prices two rounds), so any allocation a round adds — a
    // per-call `Vec` in the price, a stepped round, regenerated routes or
    // re-packed datagrams, a rebuilt table, a re-recorded profile or a
    // re-decoded program — fails here.  They read 5 / 5 / 8 / 4 (ceilings
    // 9 / 9 / 12 / 9) while every priced round re-derived its program's
    // block starts into a growing `Vec`, 13 / 13 / 28 / 13 while every
    // round was stepped on a fresh router (the CAM's second fixed-point
    // round powering a second machine on), 13 / 13 / 23 / 13 while that
    // round re-armed the first router, and 30 / 30 / 56 / 30 (34 / 34 / 64
    // / 34 earlier) while every enqueue serialised and packed its datagram
    // and data memory grew as the slots reached past it.
    let cells = [
        (TableKind::Sequential, 1),
        (TableKind::BalancedTree, 1),
        (TableKind::Cam, 2),
        (TableKind::Patricia, 1),
    ];
    for (kind, ceiling) in cells {
        let request = EvalRequest::new(ArchConfig::three_bus_one_fu(kind));
        let cold = evaluate_request(&request);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let warm = evaluate_request(&request);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(warm, cold);
        assert!(
            allocations <= ceiling,
            "{kind}: a warm evaluation made {allocations} allocations (ceiling {ceiling})"
        );
    }

    // The cold row: the first evaluation of a (kind, machine) this binary
    // has not compiled, at the 100 entries the warm rows prepared, so what
    // it adds to a warm evaluation is compiling the microcode for the new
    // machine: scheduling, validating and decoding it.  The warm rows'
    // 3BUS/1FU machine already generated and optimised the sequence, which
    // depends on the table alone, and recorded the table's profile.  605 /
    // 425 / 228 / 514 since a decode numbers trigger counters by the
    // machine's units instead of growing a list of the units it meets; 608
    // / 428 / 230 / 517 since a compile summarises the program's blocks and
    // a price no longer walks them; 607 / 426 / 233 / 515 since the rounds
    // are priced; 615 / 434 / 253 / 524
    // while they were stepped on a fresh router; 615 / 434 / 248 / 524
    // since the measurement frames are packed with the input; 632 / 451 /
    // 281 / 541 when written; 692 / 516 / 323 / 594 while every machine
    // generated and optimised its own sequence and the first size query
    // encoded the program; 1114 / 906 / 505 / 941 while ports were named by
    // string and the scheduler cloned the sequence and built edge lists and
    // maps per block.
    let cold_cells = [
        (TableKind::Sequential, 725),
        (TableKind::BalancedTree, 525),
        (TableKind::Cam, 325),
        (TableKind::Patricia, 630),
    ];
    for (kind, ceiling) in cold_cells {
        let request = EvalRequest::new(ArchConfig::one_bus_one_fu(kind));
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let cold = evaluate_request(&request);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(cold.sim_error, None, "{kind}");
        assert!(
            allocations <= ceiling,
            "{kind}: a cold evaluation made {allocations} allocations (ceiling {ceiling})"
        );
    }

    // The fresh-size row: the first 3BUS/1FU sequential evaluation at a
    // size this binary has not prepared, after the rows above evaluated 100
    // entries, so every template it runs is compiled.  It prepares the
    // input (routes, frame, image), patches the program its machine runs
    // and records the profile: an empty run and one datagram over the
    // image's window from the block where the screen pass stops, and one
    // datagram over the window one block longer, each window run by the
    // unfolded template with its own bounds patched in, over the image's
    // own words.  86 / 86 since the windows borrow the image; 90 / 90 when
    // written, while each window was a one-use image with its own copy of
    // the words and its own program map; 60 / 60 with only the copy-free
    // patch, where the recording stepped the whole table; 218 / 218 while
    // every patch also copied the template's scheduled program, one
    // allocation per instruction word.  The ceilings leave a fifth.
    for (entries, ceiling) in [(256, 103), (1024, 103)] {
        let request =
            EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::Sequential)).entries(entries);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let fresh = evaluate_request(&request);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(fresh.sim_error, None, "{entries} entries");
        assert!(
            allocations <= ceiling,
            "a fresh sequential size of {entries} entries made {allocations} allocations \
             (ceiling {ceiling})"
        );
    }

    // The scenario row: allocations per offered datagram of one warm
    // `steady-forward` evaluation, in thousandths.  1146 when written: the
    // datagram's wire frame (written once by the generator, queued, checked
    // in place and forwarded as the same buffer), an ICMPv6 error frame on
    // the 10 % misses, and — the remaining 450 allocations of the run —
    // the cycle-accurate measurement, seeding the table over RIPng, the
    // periodic updates and queue growth.  It read 3486 while a datagram was
    // built, serialised and parsed into a third buffer.  One more
    // allocation per datagram reads 1000 higher.
    const PER_DATAGRAM_MILLI_CEILING: u64 = 1300;
    let request = EvalRequest::new(ArchConfig::three_bus_one_fu(TableKind::BalancedTree))
        .workload(Workload::steady_forward());
    let cold = evaluate_request(&request);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let warm = evaluate_request(&request);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(warm, cold);
    let offered = warm.scenario.as_ref().expect("the request carries a workload").offered;
    let per_datagram_milli = allocations * 1000 / offered;
    assert!(
        per_datagram_milli <= PER_DATAGRAM_MILLI_CEILING,
        "steady-forward: {allocations} allocations over {offered} offered datagrams is \
         {per_datagram_milli}/1000 each (ceiling {PER_DATAGRAM_MILLI_CEILING}/1000)"
    );
}
