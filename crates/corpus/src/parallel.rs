//! Work scheduling for corpus ingestion.
//!
//! Every corpus project is ingested independently — the materializer seeds
//! its PRNG per project name (`seed ^ name_hash(name)`), so no project's
//! output depends on any other's. That makes ingestion embarrassingly
//! parallel, and this module provides the fan-out: [`par_map`] distributes
//! items over scoped worker threads via a chunked work-claiming index (one
//! shared atomic cursor; each worker claims [`CLAIM_CHUNK`] indices per
//! bump), then reassembles results **in input order**, so parallel and
//! serial runs produce identical corpora.
//!
//! Workers are **panic-isolated**: each item runs under `catch_unwind`, so
//! one poisoned item can never abort the whole build or take its worker's
//! remaining items down with it. A panicking item becomes a typed
//! [`WorkerFailure`]; injected-transient faults (see `schemachron-fault`)
//! are retried up to [`MAX_ATTEMPTS`] times with a small capped backoff.
//! [`par_map_isolated`] surfaces the per-item outcome; [`par_map`] keeps
//! the infallible signature and panics with the aggregated failures only
//! after every other item has finished.
//!
//! The worker count is resolved by [`effective_jobs`]:
//!
//! 1. a process-wide override installed with [`set_jobs`] (the CLI's
//!    `--jobs` flag),
//! 2. else the `SCHEMACHRON_JOBS` environment variable,
//! 3. else [`std::thread::available_parallelism`].

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use schemachron_fault as fault;

/// Process-wide jobs override; `0` means "not set".
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Installs a process-wide worker-count override (`None` clears it),
/// taking precedence over `SCHEMACHRON_JOBS` and auto-detection.
pub fn set_jobs(jobs: Option<NonZeroUsize>) {
    JOBS_OVERRIDE.store(jobs.map_or(0, NonZeroUsize::get), Ordering::Relaxed);
}

/// The worker count corpus generation will use: the [`set_jobs`] override,
/// else `SCHEMACHRON_JOBS`, else available parallelism (min 1).
pub fn effective_jobs() -> usize {
    let forced = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("SCHEMACHRON_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Minimum number of items each worker must have to justify spawning
/// threads at all. Below `jobs * MIN_ITEMS_PER_WORKER` items, thread
/// spawn/teardown and slot locking outweigh the per-item pipeline work
/// (two workers measured a 0.84× "speedup" on the 151-project corpus) and
/// [`par_map`] runs serially instead. Output is identical on either side
/// of the threshold — only the schedule changes.
pub const MIN_ITEMS_PER_WORKER: usize = 128;

/// Bound on per-item attempts when an injected-transient fault panics the
/// worker closure: the first try plus two retries. Genuine (non-injected)
/// panics are never retried — a deterministic bug would fail identically
/// every time.
pub const MAX_ATTEMPTS: u32 = 3;

/// Base backoff between retries of one item; doubles per retry, capped at
/// [`RETRY_BACKOFF_CAP`]. Kept tiny: transient faults in this workspace
/// clear on re-roll, the backoff only yields the scheduler.
const RETRY_BACKOFF: Duration = Duration::from_millis(2);
/// Upper bound on the per-retry backoff.
const RETRY_BACKOFF_CAP: Duration = Duration::from_millis(8);

/// How many indices a worker claims from the shared cursor per bump.
/// Batch claiming amortizes the cursor's cache-line ping-pong over 8 items
/// — small items no longer pay one contended atomic (let alone the old
/// per-item mutex) each — while keeping the schedule self-balancing: a
/// worker stuck on an expensive chunk simply claims fewer chunks.
pub const CLAIM_CHUNK: usize = 8;

/// The worker count [`par_map`] will actually use for `len` items and a
/// requested `jobs`: `0..=1` means the map runs inline on the caller's
/// thread (too little work to amortize thread spawns), otherwise the
/// requested count capped by the item count.
pub fn effective_workers(len: usize, jobs: usize) -> usize {
    if jobs <= 1 || len < 2 || len < jobs.min(len) * MIN_ITEMS_PER_WORKER {
        1
    } else {
        jobs.min(len)
    }
}

/// One item that could not be produced: its input-order index, how many
/// attempts it got, and the panic message of the last attempt.
#[derive(Clone, Debug)]
pub struct WorkerFailure {
    /// Index of the failed item in the input vector.
    pub index: usize,
    /// Attempts spent (1 for a non-retryable panic, up to [`MAX_ATTEMPTS`]).
    pub attempts: u32,
    /// The panic message of the final attempt.
    pub message: String,
}

impl std::fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "item {} failed after {} attempt{}: {}",
            self.index,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.message
        )
    }
}

/// The typed aggregation of every failed item of one map, ordered by item
/// index. Surviving items' results are preserved in the [`MapOutcome`] this
/// came from.
#[derive(Clone, Debug, Default)]
pub struct WorkerFailures(pub Vec<WorkerFailure>);

impl std::fmt::Display for WorkerFailures {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} worker item(s) failed: ", self.0.len())?;
        for (i, w) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{w}")?;
        }
        Ok(())
    }
}

impl std::error::Error for WorkerFailures {}

/// The per-item outcome of [`par_map_isolated`]: `results[i]` is `Some`
/// exactly when item `i` succeeded, and `failures` lists the rest in index
/// order.
#[derive(Debug)]
pub struct MapOutcome<R> {
    /// One slot per input item, in input order.
    pub results: Vec<Option<R>>,
    /// Every failed item, ordered by index.
    pub failures: Vec<WorkerFailure>,
}

impl<R> MapOutcome<R> {
    /// All results if every item succeeded, else the typed failures.
    ///
    /// # Errors
    /// Returns [`WorkerFailures`] when any item failed.
    pub fn into_result(self) -> Result<Vec<R>, WorkerFailures> {
        if !self.failures.is_empty() {
            return Err(WorkerFailures(self.failures));
        }
        Ok(self
            .results
            .into_iter()
            .map(|slot| {
                let Some(r) = slot else {
                    unreachable!("no failures recorded, so every slot is filled");
                };
                r
            })
            .collect())
    }
}

/// Renders a caught panic payload as a message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one item with panic isolation and bounded retry of injected
/// transient faults. The fault-injection point keys on the item index, and
/// each retry runs under a bumped thread-local attempt so the decision
/// re-rolls deterministically.
fn run_item<T, R, F>(index: usize, item: &T, f: &F) -> Result<R, WorkerFailure>
where
    T: Clone,
    F: Fn(T) -> R,
{
    let mut attempt: u32 = 0;
    loop {
        let tried = fault::with_attempt(attempt, || {
            catch_unwind(AssertUnwindSafe(|| {
                fault::panic_point(fault::site::PAR_MAP_WORKER, &format!("item-{index}"));
                f(item.clone())
            }))
        });
        match tried {
            Ok(r) => return Ok(r),
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                attempt += 1;
                if fault::is_injected_payload(&message) && attempt < MAX_ATTEMPTS {
                    let backoff = RETRY_BACKOFF
                        .saturating_mul(1 << (attempt - 1).min(8))
                        .min(RETRY_BACKOFF_CAP);
                    std::thread::sleep(backoff);
                    continue;
                }
                return Err(WorkerFailure {
                    index,
                    attempts: attempt,
                    message,
                });
            }
        }
    }
}

/// [`par_map`] with panic isolation surfaced instead of re-raised: maps `f`
/// over `items` (same scheduling as [`par_map`]) and reports per-item
/// success or typed failure. One poisoned item costs exactly its own slot;
/// every other item's result is preserved.
pub fn par_map_isolated<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> MapOutcome<R>
where
    T: Send + Sync + Clone,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = effective_workers(items.len(), jobs);
    if workers <= 1 {
        let mut results = Vec::with_capacity(items.len());
        let mut failures = Vec::new();
        for (i, item) in items.iter().enumerate() {
            match run_item(i, item, &f) {
                Ok(r) => results.push(Some(r)),
                Err(w) => {
                    failures.push(w);
                    results.push(None);
                }
            }
        }
        return MapOutcome { results, failures };
    }
    // Workers claim *chunks* of indices from one shared cursor and read the
    // items through a shared slice — no per-item lock, no per-item atomic.
    // `run_item` clones the item per attempt anyway, so moving items out of
    // the vector (the old per-item `Mutex<Option<T>>` slots) bought nothing
    // and cost one lock round-trip per element.
    let len = items.len();
    let next = AtomicUsize::new(0);
    let items = &items;

    let (results, mut failures) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out: Vec<(usize, Result<R, WorkerFailure>)> = Vec::new();
                    loop {
                        let start = next.fetch_add(CLAIM_CHUNK, Ordering::Relaxed);
                        if start >= len {
                            break;
                        }
                        let end = (start + CLAIM_CHUNK).min(len);
                        for (i, item) in items[start..end].iter().enumerate() {
                            let i = start + i;
                            out.push((i, run_item(i, item, &f)));
                        }
                    }
                    out
                })
            })
            .collect();

        let mut merged: Vec<Option<R>> = (0..len).map(|_| None).collect();
        let mut failed: Vec<WorkerFailure> = Vec::new();
        for h in handles {
            // Workers cannot panic (every item runs under catch_unwind);
            // re-raise defensively if one somehow does.
            match h.join() {
                Ok(batch) => {
                    for (i, r) in batch {
                        match r {
                            Ok(v) => merged[i] = Some(v),
                            Err(w) => failed.push(w),
                        }
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        (merged, failed)
    });

    failures.sort_by_key(|w| w.index);
    MapOutcome { results, failures }
}

/// Maps `f` over `items` on `jobs` scoped worker threads, preserving input
/// order in the output.
///
/// Workers pull the next unclaimed chunk of [`CLAIM_CHUNK`] indices from a
/// shared atomic cursor (self-balancing: a worker stuck on an expensive
/// project simply claims fewer chunks), so the schedule adapts to uneven
/// item costs without any partitioning heuristics and cheap items don't pay
/// per-item synchronization. With `jobs <= 1`, fewer than two items, or a
/// batch too small to amortize thread spawns (see [`effective_workers`] and
/// [`MIN_ITEMS_PER_WORKER`]) the map runs inline on the caller's thread.
///
/// # Panics
///
/// Panics with the aggregated [`WorkerFailures`] when any item's closure
/// panicked — but only **after every other item has completed**, so one
/// poisoned item no longer skips the rest of the batch. Callers that want
/// the typed path use [`par_map_isolated`].
pub fn par_map<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send + Sync + Clone,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    match par_map_isolated(items, jobs, f).into_result() {
        Ok(v) => v,
        Err(failures) => panic!("par_map: {failures}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Big enough that 8 workers clear the serial-fallback threshold.
    const BIG: usize = MIN_ITEMS_PER_WORKER * 8;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..BIG).collect();
        assert_eq!(effective_workers(BIG, 8), 8, "meant to hit the pool");
        let out = par_map(items, 8, |i| i * 3);
        assert_eq!(out, (0..BIG).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn chunked_claim_covers_ragged_tails() {
        // Sizes straddling chunk boundaries: every index claimed exactly
        // once even when the last chunk is partial.
        for n in [BIG - 1, BIG + 1, BIG + CLAIM_CHUNK - 1, BIG + CLAIM_CHUNK] {
            let items: Vec<usize> = (0..n).collect();
            let out = par_map(items, 8, |i| i + 1);
            assert_eq!(out, (1..=n).collect::<Vec<_>>(), "size {n}");
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..BIG as u64).collect();
        let serial = par_map(items.clone(), 1, |i| i.wrapping_mul(0x9e37_79b9));
        let parallel = par_map(items, 5, |i| i.wrapping_mul(0x9e37_79b9));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn handles_degenerate_sizes() {
        assert_eq!(par_map(Vec::<u8>::new(), 4, |x| x), Vec::<u8>::new());
        assert_eq!(par_map(vec![7], 4, |x| x + 1), vec![8]);
        assert_eq!(par_map(vec![1, 2], 16, |x| x * 2), vec![2, 4]);
    }

    #[test]
    fn small_batches_fall_back_to_serial() {
        // The 151-card corpus on 2 workers sits below the threshold: the
        // measured parallel run was *slower* than serial there.
        assert_eq!(effective_workers(151, 2), 1);
        assert_eq!(effective_workers(2 * MIN_ITEMS_PER_WORKER - 1, 2), 1);
        // At and above the threshold the requested pool is used.
        assert_eq!(effective_workers(2 * MIN_ITEMS_PER_WORKER, 2), 2);
        assert_eq!(effective_workers(BIG, 8), 8);
        // Degenerate shapes stay inline regardless of size.
        assert_eq!(effective_workers(0, 8), 1);
        assert_eq!(effective_workers(1, 8), 1);
        assert_eq!(effective_workers(BIG, 1), 1);
    }

    #[test]
    fn threshold_crossing_is_invisible_in_output() {
        // Identical input → identical output on either side of the serial
        // fallback, for the exact sizes that straddle it.
        let cut = 2 * MIN_ITEMS_PER_WORKER;
        for n in [cut - 1, cut, cut + 1] {
            let items: Vec<u64> = (0..n as u64).collect();
            let expect: Vec<u64> = items.iter().map(|i| i * 7 + 1).collect();
            assert_eq!(par_map(items, 2, |i| i * 7 + 1), expect, "size {n}");
        }
    }

    #[test]
    fn override_beats_env_and_detection() {
        set_jobs(NonZeroUsize::new(3));
        assert_eq!(effective_jobs(), 3);
        set_jobs(None);
        assert!(effective_jobs() >= 1);
    }

    #[test]
    fn one_poisoned_item_preserves_the_rest() {
        // Satellite regression: 1 poisoned item out of 151 must still yield
        // the other 150 results (serial path — 151 items fall back inline).
        let items: Vec<usize> = (0..151).collect();
        let outcome = par_map_isolated(items, 8, |i| {
            assert!(i != 37, "poisoned item");
            i * 2
        });
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].index, 37);
        assert_eq!(
            outcome.failures[0].attempts, 1,
            "genuine panics are not retried"
        );
        assert!(outcome.failures[0].message.contains("poisoned item"));
        assert_eq!(outcome.results.iter().filter(|r| r.is_some()).count(), 150);
        for (i, slot) in outcome.results.iter().enumerate() {
            if i != 37 {
                assert_eq!(*slot, Some(i * 2), "item {i}");
            }
        }
    }

    #[test]
    fn poisoned_item_in_parallel_pool_preserves_the_rest() {
        // Same isolation through the threaded path.
        let items: Vec<usize> = (0..BIG).collect();
        assert_eq!(effective_workers(BIG, 8), 8);
        let outcome = par_map_isolated(items, 8, |i| {
            assert!(i != 700, "poisoned item");
            i + 1
        });
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].index, 700);
        assert_eq!(
            outcome.results.iter().filter(|r| r.is_some()).count(),
            BIG - 1
        );
    }

    #[test]
    fn par_map_panics_with_aggregated_failures_only_at_the_end() {
        let seen = AtomicUsize::new(0);
        let items: Vec<usize> = (0..200).collect();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            par_map(items, 1, |i| {
                seen.fetch_add(1, Ordering::Relaxed);
                assert!(i != 3 && i != 9, "boom {i}");
                i
            })
        }))
        .expect_err("two poisoned items must fail the infallible map");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("2 worker item(s) failed"), "{msg}");
        assert!(msg.contains("item 3") && msg.contains("item 9"), "{msg}");
        // Every item ran before the aggregate panic was raised.
        assert_eq!(seen.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn into_result_round_trips() {
        let ok = par_map_isolated((0..8u32).collect(), 1, |i| i * i)
            .into_result()
            .expect("no failures");
        assert_eq!(ok, vec![0, 1, 4, 9, 16, 25, 36, 49]);
        let err = par_map_isolated((0..8u32).collect(), 1, |i| {
            assert!(i != 5, "nope");
            i
        })
        .into_result()
        .expect_err("item 5 fails");
        assert_eq!(err.0.len(), 1);
        assert!(err.to_string().contains("item 5"), "{err}");
    }
}
