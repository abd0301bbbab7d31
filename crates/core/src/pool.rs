//! A `std`-only scoped worker pool with deterministic result ordering.
//!
//! The design-space explorer fans independent grid points out across
//! cores.  Two properties matter more than raw speed:
//!
//! * **no external dependencies** — the workspace must build in an
//!   offline environment, so this is `std::thread::scope` plus two
//!   atomics, not rayon;
//! * **deterministic output order** — results land by *input index*, not
//!   completion order, so a parallel sweep is byte-identical to the
//!   serial one and `Exploration::all` keeps the sweep-order contract.
//!
//! Work is distributed dynamically (an atomic cursor), which keeps cores
//! busy even though grid points vary wildly in cost (a 1-bus sequential
//! scan simulates ~50× longer than a 3-bus CAM lookup).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the thread count, the caller's thread
/// included (so `N` spawns `N − 1` workers).  Must be a positive
/// integer when set; anything else (including `0`) aborts at startup —
/// a user who typed `TACO_THREADS=1O` wants an error, not a silent sweep
/// at some other parallelism.
pub const THREADS_ENV: &str = "TACO_THREADS";

/// The thread count used by the high-level sweep entry points: the
/// `TACO_THREADS` environment variable if set to a positive integer,
/// otherwise [`std::thread::available_parallelism`].
///
/// # Panics
///
/// Panics with an explanatory message when `TACO_THREADS` is set but is
/// not a positive integer.
pub fn default_threads() -> usize {
    resolve_threads(std::env::var(THREADS_ENV).ok().as_deref())
}

/// [`default_threads`] with the environment read factored out; panics on
/// invalid values, naming the variable.
fn resolve_threads(var: Option<&str>) -> usize {
    match threads_from(var) {
        Ok(n) => n,
        Err(why) => panic!("{THREADS_ENV}: {why}"),
    }
}

/// Pure core of [`default_threads`], separated for testing.  `None` and
/// whitespace-only values mean "not configured" and autodetect; anything
/// else must parse as an integer `>= 1`.
fn threads_from(var: Option<&str>) -> Result<usize, String> {
    let Some(raw) = var.map(str::trim).filter(|v| !v.is_empty()) else {
        return Ok(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    };
    match raw.parse::<usize>() {
        Ok(0) => Err(format!("must be a positive worker count, got {raw:?}")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "must be a positive worker count, got {raw:?} (unset it to autodetect parallelism)"
        )),
    }
}

/// Applies `f` to every item on up to `threads` threads — the caller and
/// `threads − 1` scoped workers — and returns the results **in input
/// order**.
///
/// `f` receives `(index, &item)`.  Every thread runs the same loop, the
/// caller included, so with `threads <= 1` (or fewer than two items) no
/// thread is spawned and the loop on the caller's thread is exactly the
/// serial one.
///
/// Panics in `f` — on a worker or in the caller's share — propagate to the
/// caller once every worker has joined (the guarantee
/// `std::thread::scope` provides).
pub fn ordered_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len());
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    let work = || {
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            local.push((i, f(i, &items[i])));
        }
        collected.lock().expect("no worker panics while holding").append(&mut local);
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        work();
    });

    let mut tagged = collected.into_inner().expect("workers joined");
    debug_assert_eq!(tagged.len(), items.len());
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_land_in_input_order() {
        let items: Vec<usize> = (0..97).collect();
        // Uneven per-item cost: make late items finish first.
        let out = ordered_map(&items, 8, |i, &x| {
            if i % 7 == 0 {
                std::thread::yield_now();
            }
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_serial() {
        let items: Vec<u64> = (0..64).collect();
        let serial = ordered_map(&items, 1, |i, &x| x.wrapping_mul(i as u64 + 1));
        let parallel = ordered_map(&items, 6, |i, &x| x.wrapping_mul(i as u64 + 1));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn degenerate_inputs() {
        let empty: Vec<u8> = vec![];
        assert!(ordered_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(ordered_map(&[42], 4, |_, &x| x), vec![42]);
        assert_eq!(ordered_map(&[1, 2, 3], 0, |_, &x| x), vec![1, 2, 3]);
    }

    #[test]
    fn more_threads_than_items() {
        let out = ordered_map(&[10, 20], 16, |i, &x| x + i);
        assert_eq!(out, vec![10, 21]);
    }

    #[test]
    fn env_override_parsing() {
        assert_eq!(threads_from(Some("3")), Ok(3));
        assert_eq!(threads_from(Some(" 12 ")), Ok(12));
        // Unset (or set-but-blank) autodetects.
        assert!(threads_from(None).unwrap() >= 1);
        assert!(threads_from(Some("  ")).unwrap() >= 1);
        // Anything else set is a configuration error, loudly: a silent
        // fallback used to turn a typo into a full-width parallel sweep.
        for bad in ["0", "not-a-number", "-2", "1O", "3.5", "+"] {
            let err = threads_from(Some(bad)).unwrap_err();
            assert!(err.contains("positive worker count"), "{bad}: {err}");
            assert!(err.contains(&format!("{:?}", bad.trim())), "{bad}: {err}");
        }
    }

    #[test]
    fn valid_override_resolves() {
        assert_eq!(resolve_threads(Some("4")), 4);
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    #[should_panic(expected = "TACO_THREADS: must be a positive worker count, got \"abc\"")]
    fn invalid_override_aborts_loudly() {
        resolve_threads(Some("abc"));
    }

    #[test]
    #[should_panic(expected = "TACO_THREADS: must be a positive worker count, got \"0\"")]
    fn zero_override_aborts_loudly() {
        resolve_threads(Some("0"));
    }

    /// The ids of the threads that ran `threads` items, each item waiting
    /// on a barrier of `threads`, so every thread holds exactly one item.
    fn ids_of_threads_running(threads: usize) -> Vec<std::thread::ThreadId> {
        let barrier = std::sync::Barrier::new(threads);
        let items = vec![(); threads];
        ordered_map(&items, threads, |_, _| {
            barrier.wait();
            std::thread::current().id()
        })
    }

    #[test]
    fn the_caller_runs_items_beside_one_worker() {
        let ids = ids_of_threads_running(2);
        assert!(ids.contains(&std::thread::current().id()), "the caller ran nothing: {ids:?}");
    }

    #[test]
    fn three_threads_are_the_caller_and_two_workers() {
        let ids = ids_of_threads_running(3);
        assert!(ids.contains(&std::thread::current().id()), "the caller ran nothing: {ids:?}");
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), 3, "{ids:?}");
    }

    #[test]
    fn a_panic_in_the_callers_share_waits_for_the_worker() {
        use std::sync::atomic::AtomicBool;
        let caller = std::thread::current().id();
        let barrier = std::sync::Barrier::new(2);
        let worker_finished = AtomicBool::new(false);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ordered_map(&[(), ()], 2, |_, _| {
                barrier.wait();
                if std::thread::current().id() == caller {
                    panic!("the caller's share");
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
                worker_finished.store(true, Ordering::SeqCst);
            })
        }));
        let payload = outcome.expect_err("the caller's panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"the caller's share"));
        assert!(worker_finished.load(Ordering::SeqCst), "propagated before the worker joined");
    }

    #[test]
    fn captures_state_by_reference() {
        let table: Vec<u64> = (0..32).map(|i| i * i).collect();
        let out = ordered_map(&table, 4, |i, _| table[i] + 1);
        assert_eq!(out[31], 31 * 31 + 1);
    }
}
