//! Heap allocations of one warm `evaluate_request`, counted — the
//! stopwatch-free regression gate for "evaluate once per input".
//!
//! With the routes, packed measurement frames, table image and compiled
//! program shared, a warm evaluation allocates for one router (data memory,
//! sized once, and machine state) and its report.  Rebuilding any of the
//! shared pieces per evaluation — or the router per round, or a frame per
//! enqueue — multiplies the count: the same cells cost 146 / 184 / 210 / 159
//! allocations before the pieces were shared.
//!
//! A cold row counts the first evaluation of a machine the binary has not
//! compiled microcode for, and the last row counts a behavioural scenario
//! per offered datagram.
//!
//! One test in a binary of its own, so no other test's allocations land in
//! the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use taco::eval::{evaluate_request, ArchConfig, EvalRequest, Workload};
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
    // Ceilings, not exact counts (13 / 13 / 23 / 13 when written): headroom
    // for the standard library, not for regenerated routes or re-packed
    // datagrams, a rebuilt or re-serialised table, or a re-decoded program —
    // each costs more than the whole margin.  The CAM cell re-arms its
    // router once per further fixed-point round, which powers its machine
    // state on again and collects another run's statistics, but packs no
    // datagram again.  They read 30 / 30 / 56 / 30 (34 / 34 / 64 / 34
    // earlier) while every enqueue serialised and packed its datagram and
    // data memory grew as the slots reached past it.
    let cells = [
        (TableKind::Sequential, 18),
        (TableKind::BalancedTree, 18),
        (TableKind::Cam, 30),
        (TableKind::Patricia, 18),
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
    // depends on the table alone.  615 / 434 / 248 / 524 since the
    // measurement frames are packed with the input; 632 / 451 / 281 / 541
    // when written; 692 / 516 / 323 / 594 while every machine generated and optimised its own
    // sequence and the first size query encoded the program; 1114 / 906 /
    // 505 / 941 while ports were named by string and the scheduler cloned
    // the sequence and built edge lists and maps per block.
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
