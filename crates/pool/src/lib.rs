//! Deterministic sharded worker pool — the one sanctioned concurrency
//! entry point in the workspace (enforced by xtask rule RG007).
//!
//! The model is a seed-stable map-reduce: the input is split into
//! ordered shards whose boundaries depend only on the item count and an
//! explicit shard size — never on the thread count. Each shard carries
//! its own RNG seed, derived as [`splitmix64`]`(master_seed,
//! shard_index)`, so any randomized per-shard work draws from a stream
//! that is a pure function of the shard index. Workers pull shard
//! indexes off a shared atomic counter and results are merged back in
//! shard order. Together these three properties make the merged output
//! **byte-identical across thread counts** — `ROUTERGEO_THREADS=1`,
//! `=2`, and `=8` produce the same bytes for the same seed.
//!
//! A worker panic is captured, attributed to its shard, and re-raised
//! on the calling thread as a `String` payload of the form
//! `"routergeo-pool worker panicked in shard N: <original message>"`.

use std::any::Any;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Environment variable overriding the worker count picked by
/// [`Pool::from_env`].
pub const THREADS_ENV: &str = "ROUTERGEO_THREADS";

/// The `index`-th output of a SplitMix64 stream seeded with `seed`.
///
/// This is the shard-seed derivation: `splitmix64(master, i)` equals
/// what `SplitMix64::new(master)` would produce on its `i+1`-th call,
/// but is computed in O(1) from the index so shards can be seeded out
/// of order. The constants are the reference SplitMix64 finalizer
/// (Steele, Lea & Flood 2014); golden values are pinned by unit tests
/// so a refactor cannot silently change every downstream stream.
#[must_use]
pub fn splitmix64(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One contiguous slice of the input, with its private RNG seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Position of this shard in the plan (and in the merged output).
    pub index: usize,
    /// Seed for this shard's RNG stream: `splitmix64(master, index)`.
    pub seed: u64,
    /// First item covered (inclusive).
    pub start: usize,
    /// One past the last item covered (exclusive).
    pub end: usize,
}

impl Shard {
    /// Number of items this shard covers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the shard covers no items.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Split `items` positions into ordered shards of at most `shard_size`
/// items each, seeding every shard from `master_seed`.
///
/// Boundaries are a pure function of `(items, shard_size)` — the thread
/// count never enters — which is the invariant that keeps parallel
/// output identical to serial output. A `shard_size` of zero is
/// clamped to one; zero items yield an empty plan.
#[must_use]
pub fn plan_shards(master_seed: u64, items: usize, shard_size: usize) -> Vec<Shard> {
    let size = shard_size.max(1);
    let mut shards = Vec::with_capacity(items.div_ceil(size));
    let mut start = 0usize;
    while start < items {
        let index = shards.len();
        shards.push(Shard {
            index,
            seed: splitmix64(master_seed, index as u64),
            start,
            end: (start + size).min(items),
        });
        start = (start + size).min(items);
    }
    shards
}

/// A fixed-width scoped worker pool. Holds no threads between calls —
/// each [`run_shards`](Pool::run_shards) spins up scoped workers and
/// joins them before returning, so borrows of caller state are fine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A single-threaded pool: every shard runs inline on the caller.
    #[must_use]
    pub fn serial() -> Self {
        Pool { threads: 1 }
    }

    /// Thread count from the environment: `ROUTERGEO_THREADS` when set
    /// to a positive integer, otherwise
    /// [`std::thread::available_parallelism`] (1 if unknown).
    #[must_use]
    pub fn from_env() -> Self {
        let from_var = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1);
        let threads = from_var.unwrap_or_else(|| {
            thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        Pool::new(threads)
    }

    /// Number of worker threads this pool will use.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f` once per shard of a `plan_shards(master_seed, items,
    /// shard_size)` plan and return the results **in shard order**,
    /// regardless of which worker finished which shard when.
    ///
    /// With one thread (or at most one shard) everything runs inline on
    /// the caller. If any `f` panics, the first panic (by completion
    /// order) is re-raised here with its shard index prepended; workers
    /// stop pulling new shards once a panic is observed.
    pub fn run_shards<R, F>(
        &self,
        master_seed: u64,
        items: usize,
        shard_size: usize,
        f: F,
    ) -> Vec<R>
    where
        R: Send,
        F: Fn(&Shard) -> R + Sync,
    {
        let shards = plan_shards(master_seed, items, shard_size);
        // Observability: both counters are registered here on the
        // calling thread (deterministic registration order); the
        // per-shard span carries queue-wait (entry → pickup) and run
        // time, parented under whatever span the caller has open.
        routergeo_obs::counter("pool.shards_planned").add(shards.len() as u64);
        let shards_run = routergeo_obs::counter("pool.shards_run");
        let parent = routergeo_obs::current_span();
        let clock = routergeo_obs::stopwatch();
        let observe = routergeo_obs::enabled();
        let run_one = |shard: &Shard| -> R {
            shards_run.incr();
            let _span = if observe {
                let queue_us = clock.elapsed_us();
                let mut s = routergeo_obs::span_under(parent, "pool.shard", Vec::new());
                s.attr("shard", shard.index);
                s.attr("items", shard.len());
                s.attr("queue_us", queue_us);
                s
            } else {
                routergeo_obs::SpanGuard::disabled()
            };
            f(shard)
        };

        let workers = self.threads.min(shards.len());
        if workers <= 1 {
            let mut out = Vec::with_capacity(shards.len());
            for shard in &shards {
                match catch_unwind(AssertUnwindSafe(|| run_one(shard))) {
                    Ok(r) => out.push(r),
                    Err(payload) => reraise(shard.index, &*payload),
                }
            }
            return out;
        }

        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let failure: Mutex<Option<(usize, String)>> = Mutex::new(None);
        let slots: Vec<Mutex<Option<R>>> = shards.iter().map(|_| Mutex::new(None)).collect();

        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        let ix = next.fetch_add(1, Ordering::Relaxed);
                        let Some(shard) = shards.get(ix) else { break };
                        match catch_unwind(AssertUnwindSafe(|| run_one(shard))) {
                            Ok(r) => {
                                if let Ok(mut slot) = slots[ix].lock() {
                                    *slot = Some(r);
                                }
                            }
                            Err(payload) => {
                                stop.store(true, Ordering::Relaxed);
                                if let Ok(mut fail) = failure.lock() {
                                    if fail.is_none() {
                                        *fail = Some((ix, payload_message(&*payload)));
                                    }
                                }
                            }
                        }
                    }
                });
            }
        });

        if let Some((ix, msg)) = failure.into_inner().unwrap_or_else(|e| e.into_inner()) {
            panic_any(format!(
                "routergeo-pool worker panicked in shard {ix}: {msg}"
            ));
        }
        shards
            .iter()
            .zip(slots)
            .map(|(shard, slot)| {
                match slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
                    Some(r) => r,
                    // Unreachable unless a worker died without reporting;
                    // fail loudly rather than return a partial merge.
                    None => panic_any(format!(
                        "routergeo-pool: shard {} produced no result",
                        shard.index
                    )),
                }
            })
            .collect()
    }

    /// [`run_shards`](Pool::run_shards) over a slice: each call of `f`
    /// receives the shard descriptor plus the sub-slice it covers.
    pub fn map_shards<T, R, F>(
        &self,
        master_seed: u64,
        items: &[T],
        shard_size: usize,
        f: F,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&Shard, &[T]) -> R + Sync,
    {
        self.run_shards(master_seed, items.len(), shard_size, |shard| {
            f(shard, &items[shard.start..shard.end])
        })
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_env()
    }
}

fn reraise(shard: usize, payload: &(dyn Any + Send)) -> ! {
    panic_any(format!(
        "routergeo-pool worker panicked in shard {shard}: {}",
        payload_message(payload)
    ))
}

fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference SplitMix64 outputs for seed 0 (Steele et al. 2014, as
    // pinned by the JDK SplittableRandom and the xoshiro seeding code).
    #[test]
    fn splitmix64_golden_values() {
        assert_eq!(splitmix64(0, 0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(0, 1), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(0, 2), 0x06C4_5D18_8009_454F);
        assert_eq!(splitmix64(20_170_301, 0), 0xFBAA_474C_E828_47E4);
        assert_eq!(splitmix64(20_170_301, 1), 0x7CE3_BE5B_D3B5_9CC9);
        assert_eq!(splitmix64(0xDEAD_BEEF, 7), 0xB30A_4CCF_430B_1B5A);
    }

    #[test]
    fn splitmix64_matches_sequential_stream_definition() {
        // splitmix64(seed, i) must be the i-th output of the canonical
        // sequential generator: state += GAMMA; out = mix(state).
        let seed = 0x1234_5678_9ABC_DEF0u64;
        let mut state = seed;
        for i in 0..100u64 {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            assert_eq!(splitmix64(seed, i), z, "index {i}");
        }
    }

    #[test]
    fn plan_covers_input_exactly_once_in_order() {
        let shards = plan_shards(7, 10, 3);
        assert_eq!(shards.len(), 4);
        let spans: Vec<(usize, usize)> = shards.iter().map(|s| (s.start, s.end)).collect();
        assert_eq!(spans, vec![(0, 3), (3, 6), (6, 9), (9, 10)]);
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.seed, splitmix64(7, i as u64));
            assert!(!s.is_empty());
        }
        assert_eq!(shards[3].len(), 1);
    }

    #[test]
    fn plan_is_independent_of_thread_count_by_construction() {
        // The planner takes no thread count at all; pin boundary cases.
        assert!(plan_shards(1, 0, 16).is_empty());
        assert_eq!(plan_shards(1, 1, 16).len(), 1); // shards > items collapse
        assert_eq!(plan_shards(1, 16, 16).len(), 1);
        assert_eq!(plan_shards(1, 17, 16).len(), 2);
        assert_eq!(plan_shards(1, 5, 0).len(), 5); // zero size clamps to 1
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let pool = Pool::new(4);
        let out: Vec<u64> = pool.run_shards(1, 0, 8, |s| s.seed);
        assert!(out.is_empty());
        let none: Vec<usize> = pool.map_shards(1, &[] as &[u8], 8, |_, chunk| chunk.len());
        assert!(none.is_empty());
    }

    #[test]
    fn more_shards_than_items_and_more_threads_than_shards() {
        let pool = Pool::new(32);
        let items = [10u64, 20, 30];
        let out = pool.map_shards(9, &items, 1, |shard, chunk| {
            assert_eq!(chunk.len(), 1);
            chunk[0] + shard.index as u64
        });
        assert_eq!(out, vec![10, 21, 32]);
    }

    #[test]
    fn merge_order_is_input_order_at_every_thread_count() {
        let items: Vec<usize> = (0..1000).collect();
        let serial = Pool::serial().map_shards(42, &items, 7, |s, chunk| (s.index, chunk.to_vec()));
        for threads in [2, 3, 8] {
            let parallel =
                Pool::new(threads).map_shards(42, &items, 7, |s, chunk| (s.index, chunk.to_vec()));
            assert_eq!(serial, parallel, "threads={threads}");
        }
        let flat: Vec<usize> = serial.into_iter().flat_map(|(_, c)| c).collect();
        assert_eq!(flat, items, "concatenated shards reproduce the input");
    }

    #[test]
    fn shard_seeds_are_stable_across_thread_counts() {
        let seeds_at = |threads: usize| -> Vec<u64> {
            Pool::new(threads).run_shards(0xFEED, 64, 4, |s| s.seed)
        };
        let one = seeds_at(1);
        assert_eq!(one, seeds_at(2));
        assert_eq!(one, seeds_at(8));
        assert_eq!(one[0], splitmix64(0xFEED, 0));
    }

    #[test]
    fn worker_panic_is_reraised_with_shard_attribution() {
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run_shards(0, 10, 2, |shard| {
                    if shard.index == 3 {
                        panic!("boom in the middle");
                    }
                    shard.index
                })
            }))
            .expect_err("the pool must propagate the worker panic");
            let msg = caught
                .downcast_ref::<String>()
                .expect("pool panics carry a String payload");
            assert!(msg.contains("shard 3"), "threads={threads}: {msg}");
            assert!(msg.contains("boom in the middle"), "{msg}");
        }
    }

    #[test]
    fn from_env_clamps_to_at_least_one() {
        assert!(Pool::from_env().threads() >= 1);
        assert_eq!(Pool::new(0).threads(), 1);
    }
}
