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
//! busy even though items vary wildly in cost (a point that steps its
//! table takes milliseconds, a priced one under a microsecond).  For the
//! same reason the helpers are spawned only once the caller's own pace
//! says the work left outlasts their spawn: a priced sweep runs on the
//! caller alone.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Environment variable overriding the thread count, the caller's thread
/// included: at most `N` threads, so at most `N − 1` helpers, spawned only
/// when the work outlasts their spawn.  Must be a positive
/// integer when set; anything else (including `0`) aborts at startup —
/// a user who typed `TACO_THREADS=1O` wants an error, not a silent sweep
/// at some other parallelism.
pub const THREADS_ENV: &str = "TACO_THREADS";

/// The most threads the high-level sweep entry points use: the
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

/// How much work must be left before helpers pay for themselves: two
/// spawn-and-join round trips of one scoped thread, which measured 44–58 µs
/// each on a 2-vCPU host.  Below it the caller finishes alone sooner than
/// a helper could start and be joined.
const SPAWN_WORTH: Duration = Duration::from_micros(100);

/// Applies `f` to every item on at most `threads` threads — the caller and
/// up to `threads − 1` scoped helpers — and returns the results **in
/// input order**.
///
/// `f` receives `(index, &item)`.  The caller starts alone.  After each
/// item it predicts the work left from its own pace (elapsed time ÷ items
/// done × items left); once that reaches [`SPAWN_WORTH`] it spawns the
/// helpers, and from then on every thread runs the same loop.  So a map
/// whose items take a microsecond spawns nothing, one whose first item
/// takes a millisecond spawns after it, and with `threads <= 1` the
/// caller's loop is exactly the serial one.
///
/// Panics in `f` — on a helper or in the caller's share — propagate to the
/// caller once every helper has joined (the guarantee
/// `std::thread::scope` provides).
pub fn ordered_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len());
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        (i < items.len()).then_some(i)
    };
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    let keep = |local: &mut Vec<(usize, R)>| {
        collected.lock().expect("no thread panics while holding").append(local);
    };
    let work = || {
        let mut local = Vec::new();
        while let Some(i) = claim() {
            local.push((i, f(i, &items[i])));
        }
        keep(&mut local);
    };
    std::thread::scope(|scope| {
        let started = Instant::now();
        let mut mine = Vec::new();
        while let Some(i) = claim() {
            mine.push((i, f(i, &items[i])));
            // Alone so far, so the caller has done every claimed item.
            let (done, left) = (i as u128 + 1, (items.len() - i - 1) as u128);
            if threads > 1 && started.elapsed().as_nanos() * left >= SPAWN_WORTH.as_nanos() * done {
                for _ in 1..threads {
                    scope.spawn(work);
                }
                break;
            }
        }
        keep(&mut mine);
        work();
    });

    let mut tagged = collected.into_inner().expect("every thread joined");
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

    /// A barrier that gives up: [`Gate::wait`] returns once `size` threads
    /// have arrived and panics after ten seconds, so a pool that never
    /// spawns its helpers fails a test instead of hanging it.
    struct Gate {
        arrived: AtomicUsize,
        size: usize,
    }

    impl Gate {
        fn new(size: usize) -> Self {
            Gate { arrived: AtomicUsize::new(0), size }
        }

        fn wait(&self) {
            self.arrived.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.arrived.load(Ordering::SeqCst) < self.size {
                assert!(Instant::now() < deadline, "fewer than {} threads ever arrived", self.size);
                std::thread::sleep(Duration::from_micros(50));
            }
        }
    }

    /// An item slow enough that the caller's pace calls for helpers.
    fn slow_item() {
        std::thread::sleep(Duration::from_millis(1));
    }

    /// The ids of the threads that ran items `1..=threads`: item 0 is slow,
    /// so the helpers spawn after it, and each later item waits at a gate
    /// of `threads`, so every thread holds exactly one.
    fn ids_of_threads_running(threads: usize) -> Vec<std::thread::ThreadId> {
        let gate = Gate::new(threads);
        let items = vec![(); threads + 1];
        let mut ids = ordered_map(&items, threads, |i, _| {
            if i == 0 {
                slow_item();
            } else {
                gate.wait();
            }
            std::thread::current().id()
        });
        assert_eq!(ids.remove(0), std::thread::current().id(), "the caller starts alone");
        ids
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
    fn fast_items_spawn_no_helper() {
        let caller = std::thread::current().id();
        let ids = ordered_map(&[(); 16], 4, |_, _| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller), "a helper ran a fast item: {ids:?}");
    }

    #[test]
    fn no_helper_runs_beside_the_first_item() {
        // The first item waits for a second one to start; a helper spawned
        // before it ended would start one.
        let started = AtomicUsize::new(0);
        ordered_map(&[(); 8], 2, |i, _| {
            started.fetch_add(1, Ordering::SeqCst);
            if i == 0 {
                let deadline = Instant::now() + Duration::from_millis(20);
                while Instant::now() < deadline && started.load(Ordering::SeqCst) == 1 {
                    std::thread::sleep(Duration::from_micros(50));
                }
                assert_eq!(started.load(Ordering::SeqCst), 1, "a helper ran beside the first item");
            }
        });
    }

    #[test]
    fn a_panic_in_the_callers_share_waits_for_the_worker() {
        use std::sync::atomic::AtomicBool;
        let caller = std::thread::current().id();
        let gate = Gate::new(2);
        let worker_finished = AtomicBool::new(false);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ordered_map(&[(), (), ()], 2, |i, _| {
                if i == 0 {
                    return slow_item();
                }
                gate.wait();
                if std::thread::current().id() == caller {
                    panic!("the caller's share");
                }
                std::thread::sleep(Duration::from_millis(50));
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
