//! Generic stage machinery: cache [`Namespace`]s, content-hash keys, the
//! process-wide **sharded** stage cache with its one get-or-build path, and
//! its wait-free hit/miss/wall-time accounting.
//!
//! # Sharding
//!
//! The cache is lock-striped: artifacts are spread over `N` independent
//! shards (`N` = the next power of two ≥ 4 × available parallelism, so a
//! worker pool at full fan-out collides on a shard with probability ≈ 1/4
//! per access), each shard owning its own map and FIFO eviction ring with a
//! per-shard slice of the total capacity. The shard of an entry is selected
//! by masking its FNV-1a content-hash key (`key & (N - 1)`); FNV-1a output
//! is uniform over the low bits, so the stripes stay balanced without a
//! second hash. Concurrent workers ingesting different projects therefore
//! almost never contend on a lock — the regression this design replaces had
//! every worker serializing 8 times per project on one global `Mutex` pair.
//!
//! Stat recording is wait-free: per-stage fixed-slot [`AtomicU64`] counters
//! (hit / miss / quarantined / busy-ns) replace the old `Mutex<HashMap>`,
//! so the hot path never takes a lock just to count.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use schemachron_fault as fault;

pub(crate) use schemachron_hash::{fnv1a, FNV_OFFSET};

/// Locks a shard mutex, ignoring poisoning: the critical sections below
/// only move plain data, so a panic mid-section cannot leave the map in a
/// logically inconsistent state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A content-hash cache key. Keys are chained: each stage's output key is a
/// hash of its name, its version and its input key, so the key of any
/// artifact transitively fingerprints the whole upstream computation
/// (seed + trait card + every stage version on the path).
pub type StageKey = u64;

/// One stage-cache namespace: the identity every artifact built in it is
/// cached, counted and fault-injected under. Each namespace is declared
/// once, as a const, by the engine that owns it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Namespace {
    /// Stable namespace identifier — the cache namespace and counters key.
    pub name: &'static str,
    /// Logic version, mixed into every key derived in this namespace. Bump
    /// it when the build changes so stale cached artifacts can never be
    /// served.
    pub version: u32,
    /// The fault-injection site every build rolls against, if any.
    pub fault_site: Option<&'static str>,
}

impl Namespace {
    /// Derives this namespace's output key from its input key (see
    /// [`derive_key`]).
    pub fn key(&self, in_key: StageKey) -> StageKey {
        derive_key(self.name, self.version, in_key)
    }
}

/// Derives a stage's output key from its identity and its input key.
pub fn derive_key(name: &str, version: u32, in_key: StageKey) -> StageKey {
    let h = fnv1a(FNV_OFFSET, name.as_bytes());
    let h = fnv1a(h, &version.to_le_bytes());
    fnv1a(h, &in_key.to_le_bytes())
}

/// The shard-count formula: the next power of two at or above
/// `4 × parallelism`. Published (and restated independently by the lint
/// `H004` audit) so shard selection can be re-derived outside this module.
pub fn shard_count_for(parallelism: usize) -> usize {
    (4 * parallelism.max(1)).next_power_of_two()
}

/// The shard an entry with the given key lives in, for `shard_count`
/// shards (a power of two): the key masked by `shard_count - 1`.
pub fn shard_of_key(key: StageKey, shard_count: usize) -> usize {
    (key as usize) & (shard_count - 1)
}

/// Per-call record of which stages hit the cache and which recomputed while
/// building one project. Unlike the global counters (which every concurrent
/// build in the process feeds), a trace belongs to exactly one chain walk,
/// so tests can make exact assertions on it.
#[derive(Clone, Debug, Default)]
pub struct StageTrace {
    entries: Vec<TraceEntry>,
}

/// One consulted stage in a [`StageTrace`].
#[derive(Clone, Copy, Debug)]
pub struct TraceEntry {
    /// The stage name.
    pub stage: &'static str,
    /// Whether the artifact came from the cache (`true`) or was recomputed.
    pub hit: bool,
}

impl StageTrace {
    pub(crate) fn record(&mut self, stage: &'static str, hit: bool) {
        self.entries.push(TraceEntry { stage, hit });
    }

    /// Every consulted stage, in consultation order (downstream-first: the
    /// chain asks for the last artifact and walks up only on misses).
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of cache hits in this walk.
    pub fn hits(&self) -> usize {
        self.entries.iter().filter(|e| e.hit).count()
    }

    /// Number of recomputed stages in this walk.
    pub fn misses(&self) -> usize {
        self.entries.iter().filter(|e| !e.hit).count()
    }

    /// Names of the recomputed stages, in consultation order.
    pub fn missed_stages(&self) -> Vec<&'static str> {
        self.entries
            .iter()
            .filter(|e| !e.hit)
            .map(|e| e.stage)
            .collect()
    }
}

/// A snapshot of one stage's global counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageStats {
    /// The stage name.
    pub stage: &'static str,
    /// Artifacts served from the cache.
    pub hits: u64,
    /// Artifacts recomputed (cache misses).
    pub misses: u64,
    /// Recomputations that panicked before producing an artifact: their
    /// key was never published, so the next consumer sees a plain
    /// (retryable) miss instead of a poisoned entry.
    pub quarantined: u64,
    /// Total wall time spent recomputing, in nanoseconds.
    pub busy_ns: u128,
}

/// One stage's wait-free counter block. All orderings are `Relaxed`: the
/// counters are monotone telemetry, never used for synchronization, and a
/// snapshot only promises per-counter atomicity (the same guarantee the old
/// mutex gave between two separately-locked bumps).
#[derive(Default)]
struct StatCell {
    hits: AtomicU64,
    misses: AtomicU64,
    quarantined: AtomicU64,
    busy_ns: AtomicU64,
}

/// A fixed stat slot: a once-claimed stage name plus its counter block.
/// Cache-line aligned so two stages' counters never share a line — without
/// this, concurrent workers bumping *different* stages' counters would
/// still ping-pong one line between cores (false sharing).
#[derive(Default)]
#[repr(align(64))]
struct StatSlot {
    name: OnceLock<&'static str>,
    cell: StatCell,
}

/// Fixed number of distinct stage names the stats table can account.
/// The pipeline has 8; the headroom absorbs future stages and test-local
/// names without ever reallocating (a reallocation would need a lock).
const STAT_SLOTS: usize = 32;

/// One lock stripe: its own map and FIFO ring, bounded by the per-shard
/// capacity split. Cache-line aligned so neighboring shards' lock words
/// never share a line.
#[repr(align(64))]
struct Shard {
    inner: Mutex<ShardInner>,
    capacity: usize,
}

struct ShardInner {
    map: HashMap<(&'static str, StageKey), Arc<dyn Any + Send + Sync>>,
    order: VecDeque<(&'static str, StageKey)>,
}

/// The process-wide stage cache: type-erased artifacts keyed by
/// `(stage name, content-hash key)`, lock-striped over power-of-two shards
/// selected by the key, with per-shard FIFO eviction and wait-free
/// per-stage counters.
///
/// Lookups and insertions are short critical sections on one shard; stage
/// computation always happens outside any lock, so two threads racing on
/// the same key at worst duplicate one computation (both results are
/// identical: every build is a pure function of its key's inputs).
pub(crate) struct PipelineCache {
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; the shard of key `k` is `k & mask`.
    mask: usize,
    stats: [StatSlot; STAT_SLOTS],
}

/// Default bound on cached artifacts across all shards; generous for every
/// corpus size the test suite and benches build, and the backstop that
/// keeps 100k-project scale runs memory-bounded (eviction churn during a
/// cold build is harmless: a chain holds its own artifacts in per-walk
/// memo fields, never by re-fetching).
const DEFAULT_CAPACITY: usize = 32_768;

static CACHE: OnceLock<PipelineCache> = OnceLock::new();

/// The process-default shard count: [`shard_count_for`] of the detected
/// available parallelism.
fn default_shard_count() -> usize {
    shard_count_for(std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

pub(crate) fn cache() -> &'static PipelineCache {
    CACHE.get_or_init(|| PipelineCache::with_shards(default_shard_count(), DEFAULT_CAPACITY))
}

impl PipelineCache {
    /// Builds a cache with `shard_count` shards (rounded up to a power of
    /// two) splitting `total_capacity` evenly (at least one entry each).
    pub(crate) fn with_shards(shard_count: usize, total_capacity: usize) -> Self {
        let shard_count = shard_count.max(1).next_power_of_two();
        let capacity = (total_capacity / shard_count).max(1);
        let shards: Vec<Shard> = (0..shard_count)
            .map(|_| Shard {
                inner: Mutex::new(ShardInner {
                    map: HashMap::new(),
                    order: VecDeque::new(),
                }),
                capacity,
            })
            .collect();
        PipelineCache {
            mask: shard_count - 1,
            shards: shards.into_boxed_slice(),
            stats: std::array::from_fn(|_| StatSlot::default()),
        }
    }

    /// Number of lock stripes.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index entries with this key belong to.
    pub(crate) fn shard_of(&self, key: StageKey) -> usize {
        (key as usize) & self.mask
    }

    /// The counter block for a stage: a bounded lock-free scan of the fixed
    /// slot table, claiming the first free slot for a new name. Returns
    /// `None` (the record is dropped) only past [`STAT_SLOTS`] distinct
    /// names — impossible for the 8-stage pipeline plus test headroom.
    fn stat_cell(&self, stage: &'static str) -> Option<&StatCell> {
        for slot in &self.stats {
            match slot.name.get() {
                Some(n) if *n == stage => return Some(&slot.cell),
                Some(_) => continue,
                None => {
                    if slot.name.set(stage).is_ok() {
                        return Some(&slot.cell);
                    }
                    // Lost the claim race; the slot now has a name — use it
                    // if it is ours, else keep scanning.
                    if slot.name.get().is_some_and(|n| *n == stage) {
                        return Some(&slot.cell);
                    }
                }
            }
        }
        None
    }

    /// Fetches a typed artifact; records a global hit when found.
    pub(crate) fn get<T: Send + Sync + 'static>(
        &self,
        stage: &'static str,
        key: StageKey,
    ) -> Option<Arc<T>> {
        let shard = &self.shards[self.shard_of(key)];
        let found = {
            let inner = lock(&shard.inner);
            inner
                .map
                .get(&(stage, key))
                .cloned()
                .and_then(|v| v.downcast::<T>().ok())
        };
        if found.is_some() {
            if let Some(cell) = self.stat_cell(stage) {
                cell.hits.fetch_add(1, Ordering::Relaxed);
            }
        }
        found
    }

    /// The one get-or-build path. Returns the artifact cached under
    /// `(ns, key)`, recording a hit. Otherwise computes `input()` — outside
    /// the fault point, the panic guard and the busy clock, so upstream work
    /// and upstream panics are never billed to `ns` — then runs `build`
    /// under the namespace's fault site. A `Some` artifact is published with
    /// its busy time (a miss); `None` publishes and counts nothing. A build
    /// that panics records a quarantine and re-raises without publishing, so
    /// the next caller sees a plain retryable miss, never a poisoned entry.
    pub(crate) fn get_or_build<I, T: Send + Sync + 'static>(
        &self,
        ns: &Namespace,
        key: StageKey,
        input: impl FnOnce() -> I,
        build: impl FnOnce(I) -> Option<T>,
    ) -> Option<Arc<T>> {
        if let Some(hit) = self.get(ns.name, key) {
            return Some(hit);
        }
        let input = input();
        let started = Instant::now();
        let built = catch_unwind(AssertUnwindSafe(|| {
            if let Some(site) = ns.fault_site {
                fault::build_point(site, &format!("{}:{key:016x}", ns.name));
            }
            build(input)
        }));
        match built {
            Ok(out) => {
                let out = Arc::new(out?);
                self.insert(ns.name, key, Arc::clone(&out) as _, started.elapsed());
                Some(out)
            }
            Err(payload) => {
                self.record_quarantine(ns.name);
                resume_unwind(payload)
            }
        }
    }

    /// Fetches a typed artifact **without** touching the hit/miss counters.
    /// For observers (lint audits, tests) that must not perturb the
    /// telemetry the benches and `/health` report.
    pub(crate) fn peek<T: Send + Sync + 'static>(
        &self,
        stage: &'static str,
        key: StageKey,
    ) -> Option<Arc<T>> {
        let inner = lock(&self.shards[self.shard_of(key)].inner);
        inner
            .map
            .get(&(stage, key))
            .cloned()
            .and_then(|v| v.downcast::<T>().ok())
    }

    /// Stores a freshly computed artifact; records a global miss plus the
    /// compute wall time.
    pub(crate) fn insert(
        &self,
        stage: &'static str,
        key: StageKey,
        value: Arc<dyn Any + Send + Sync>,
        busy: Duration,
    ) {
        let shard = &self.shards[self.shard_of(key)];
        {
            let mut inner = lock(&shard.inner);
            if inner.map.insert((stage, key), value).is_none() {
                inner.order.push_back((stage, key));
            }
            while inner.order.len() > shard.capacity {
                if let Some(evicted) = inner.order.pop_front() {
                    inner.map.remove(&evicted);
                }
            }
        }
        if let Some(cell) = self.stat_cell(stage) {
            cell.misses.fetch_add(1, Ordering::Relaxed);
            // Saturating: u64 nanoseconds overflow after ~584 years of
            // busy time; clamp rather than wrap if it ever happens.
            let ns = u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX);
            cell.busy_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Drops every cached artifact in every shard (counters are kept; see
    /// [`PipelineCache::reset_stats`]).
    pub(crate) fn clear(&self) {
        for shard in self.shards.iter() {
            let mut inner = lock(&shard.inner);
            inner.map.clear();
            inner.order.clear();
        }
    }

    /// Number of cached artifacts across all shards and stages.
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock(&s.inner).map.len())
            .sum()
    }

    /// Snapshots every cached entry's `(stage, key)` identity, sorted by
    /// stage then key — the read-only view the lint cache auditor walks.
    pub(crate) fn entry_keys(&self) -> Vec<(&'static str, StageKey)> {
        let mut keys: Vec<_> = self
            .shards
            .iter()
            .flat_map(|s| lock(&s.inner).map.keys().copied().collect::<Vec<_>>())
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Snapshots every cached entry together with the shard it actually
    /// resides in, sorted by stage then key — the view the lint `H004`
    /// shard-placement audit walks.
    pub(crate) fn shard_entries(&self) -> Vec<(&'static str, StageKey, usize)> {
        let mut entries: Vec<_> = self
            .shards
            .iter()
            .enumerate()
            .flat_map(|(idx, s)| {
                lock(&s.inner)
                    .map
                    .keys()
                    .map(|&(stage, key)| (stage, key, idx))
                    .collect::<Vec<_>>()
            })
            .collect();
        entries.sort_unstable();
        entries
    }

    /// Re-files an artifact under a different `(stage, key)` identity,
    /// returning whether the source entry existed. The entry moves to its
    /// new key's home shard, so the content-hash → shard invariant is kept;
    /// what breaks (deliberately) is the key → content invariant — the
    /// fault-injection hook behind
    /// [`crate::pipeline::corrupt_stage_cache_entry`].
    pub(crate) fn rekey(
        &self,
        from: (&'static str, StageKey),
        to: (&'static str, StageKey),
    ) -> bool {
        let from_shard = self.shard_of(from.1);
        let to_shard = self.shard_of(to.1);
        if from_shard == to_shard {
            let mut inner = lock(&self.shards[from_shard].inner);
            let Some(value) = inner.map.remove(&from) else {
                return false;
            };
            inner.map.insert(to, value);
            for slot in inner.order.iter_mut() {
                if *slot == from {
                    *slot = to;
                }
            }
            return true;
        }
        // Cross-shard: move map entry and FIFO slot, one lock at a time.
        let value = {
            let mut inner = lock(&self.shards[from_shard].inner);
            let Some(value) = inner.map.remove(&from) else {
                return false;
            };
            inner.order.retain(|slot| *slot != from);
            value
        };
        let mut inner = lock(&self.shards[to_shard].inner);
        if inner.map.insert(to, value).is_none() {
            inner.order.push_back(to);
        }
        true
    }

    /// Plants an existing entry in an explicit (possibly wrong) shard,
    /// returning whether the entry existed. Deliberately breaks the
    /// key → shard invariant the `H004` lint audit checks — the
    /// fault-injection hook behind
    /// [`crate::pipeline::misplace_stage_cache_entry`].
    pub(crate) fn misplace(&self, entry: (&'static str, StageKey), shard: usize) -> bool {
        let target = shard & self.mask;
        // The entry may already be stranded in a foreign shard (a prior
        // misplacement, now being repaired), so search every shard —
        // starting from the key's home — rather than trusting the invariant
        // this hook exists to break. One lock at a time: no deadlock.
        let home = self.shard_of(entry.1);
        let value = 'found: {
            for i in 0..self.shards.len() {
                let at = (home + i) & self.mask;
                let mut inner = lock(&self.shards[at].inner);
                if let Some(value) = inner.map.remove(&entry) {
                    if at == target {
                        // Already resident where requested; put it back.
                        inner.map.insert(entry, value);
                        return true;
                    }
                    inner.order.retain(|slot| *slot != entry);
                    break 'found value;
                }
            }
            return false;
        };
        let mut inner = lock(&self.shards[target].inner);
        if inner.map.insert(entry, value).is_none() {
            inner.order.push_back(entry);
        }
        true
    }

    /// Records a quarantined recomputation: the stage panicked mid-run, so
    /// no artifact was published under its key. The cache itself needs no
    /// cleanup (insertion only happens after a successful run, in whichever
    /// shard the key selects); the counter exists so chaos runs and
    /// `/health` can see how often it happened.
    pub(crate) fn record_quarantine(&self, stage: &'static str) {
        if let Some(cell) = self.stat_cell(stage) {
            cell.quarantined.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Zeroes all per-stage counters (slot registrations are kept — a
    /// zeroed slot snapshots identically to a never-registered one).
    pub(crate) fn reset_stats(&self) {
        for slot in &self.stats {
            slot.cell.hits.store(0, Ordering::Relaxed);
            slot.cell.misses.store(0, Ordering::Relaxed);
            slot.cell.quarantined.store(0, Ordering::Relaxed);
            slot.cell.busy_ns.store(0, Ordering::Relaxed);
        }
    }

    /// Snapshots the counters for the given stages, in the given order
    /// (stages that never ran report zeros).
    pub(crate) fn stats_snapshot(&self, order: &[&'static str]) -> Vec<StageStats> {
        order
            .iter()
            .map(|&stage| {
                let cell = self
                    .stats
                    .iter()
                    .find(|slot| slot.name.get().is_some_and(|n| *n == stage))
                    .map(|slot| &slot.cell);
                StageStats {
                    stage,
                    hits: cell.map_or(0, |c| c.hits.load(Ordering::Relaxed)),
                    misses: cell.map_or(0, |c| c.misses.load(Ordering::Relaxed)),
                    quarantined: cell.map_or(0, |c| c.quarantined.load(Ordering::Relaxed)),
                    busy_ns: cell.map_or(0, |c| u128::from(c.busy_ns.load(Ordering::Relaxed))),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_keys_separate_stages_versions_and_inputs() {
        let k = derive_key("parse", 1, 7);
        assert_ne!(k, derive_key("schema", 1, 7), "stage name must matter");
        assert_ne!(k, derive_key("parse", 2, 7), "stage version must matter");
        assert_ne!(k, derive_key("parse", 1, 8), "input key must matter");
        assert_eq!(k, derive_key("parse", 1, 7), "keys are deterministic");
    }

    #[test]
    fn trace_counts_hits_and_misses() {
        let mut t = StageTrace::default();
        t.record("a", true);
        t.record("b", false);
        t.record("c", false);
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 2);
        assert_eq!(t.missed_stages(), ["b", "c"]);
    }

    #[test]
    fn shard_count_formula_is_pow2_of_4x_parallelism() {
        assert_eq!(shard_count_for(1), 4);
        assert_eq!(shard_count_for(2), 8);
        assert_eq!(shard_count_for(3), 16, "rounds 12 up to 16");
        assert_eq!(shard_count_for(8), 32);
        assert_eq!(shard_count_for(0), 4, "parallelism is clamped to 1");
    }

    #[test]
    fn shard_selection_masks_the_key() {
        for count in [1usize, 4, 8, 64] {
            for key in [0u64, 1, 7, 0xdead_beef, u64::MAX] {
                assert_eq!(shard_of_key(key, count), (key as usize) % count);
            }
        }
    }

    #[test]
    fn single_shard_cache_evicts_fifo_past_capacity() {
        let cache = PipelineCache::with_shards(1, 2);
        for key in 0..3u64 {
            cache.insert("s", key, Arc::new(key), Duration::ZERO);
        }
        assert!(cache.get::<u64>("s", 0).is_none(), "oldest entry evicted");
        assert_eq!(cache.get::<u64>("s", 2).as_deref(), Some(&2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn eviction_is_per_shard_and_shards_are_isolated() {
        // 4 shards × capacity 2 each. Keys 0,4,8,12 all land in shard 0;
        // keys 1,5 land in shard 1.
        let cache = PipelineCache::with_shards(4, 8);
        assert_eq!(cache.shard_count(), 4);
        for key in [0u64, 4, 8, 12] {
            assert_eq!(cache.shard_of(key), 0);
            cache.insert("s", key, Arc::new(key), Duration::ZERO);
        }
        for key in [1u64, 5] {
            assert_eq!(cache.shard_of(key), 1);
            cache.insert("s", key, Arc::new(key), Duration::ZERO);
        }
        // Shard 0 held 4 entries against capacity 2: its two oldest were
        // evicted, in FIFO order.
        assert!(cache.get::<u64>("s", 0).is_none(), "shard-0 FIFO evicted 0");
        assert!(cache.get::<u64>("s", 4).is_none(), "shard-0 FIFO evicted 4");
        assert_eq!(cache.get::<u64>("s", 8).as_deref(), Some(&8));
        assert_eq!(cache.get::<u64>("s", 12).as_deref(), Some(&12));
        // Shard 1 never reached its capacity: untouched by shard 0's churn.
        assert_eq!(cache.get::<u64>("s", 1).as_deref(), Some(&1));
        assert_eq!(cache.get::<u64>("s", 5).as_deref(), Some(&5));
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn capacity_splits_across_shards_with_a_floor_of_one() {
        let tiny = PipelineCache::with_shards(8, 2);
        // 2 / 8 rounds to 0; every shard still holds at least one entry.
        for key in 0..8u64 {
            tiny.insert("s", key, Arc::new(key), Duration::ZERO);
        }
        assert_eq!(tiny.len(), 8, "one entry per shard survives");
        // A 9th entry into shard 0 evicts shard 0's only entry.
        tiny.insert("s", 8, Arc::new(8u64), Duration::ZERO);
        assert!(tiny.get::<u64>("s", 0).is_none());
        assert_eq!(tiny.get::<u64>("s", 8).as_deref(), Some(&8));
    }

    #[test]
    fn shard_count_rounds_up_to_a_power_of_two() {
        assert_eq!(PipelineCache::with_shards(3, 64).shard_count(), 4);
        assert_eq!(PipelineCache::with_shards(0, 64).shard_count(), 1);
        assert_eq!(PipelineCache::with_shards(16, 64).shard_count(), 16);
    }

    #[test]
    fn shard_entries_report_residency() {
        let cache = PipelineCache::with_shards(4, 64);
        cache.insert("s", 6, Arc::new(6u64), Duration::ZERO);
        assert_eq!(cache.shard_entries(), vec![("s", 6, 2)]);
        // Misplacing moves the entry to a foreign shard; lookups by home
        // shard now miss, and the residency view exposes the violation.
        assert!(cache.misplace(("s", 6), 3));
        assert_eq!(cache.shard_entries(), vec![("s", 6, 3)]);
        assert!(cache.get::<u64>("s", 6).is_none(), "home-shard lookup misses");
    }

    #[test]
    fn atomic_stats_accumulate_and_reset() {
        let cache = PipelineCache::with_shards(4, 64);
        cache.insert("s", 1, Arc::new(1u64), Duration::from_nanos(500));
        cache.insert("s", 2, Arc::new(2u64), Duration::from_nanos(250));
        let _ = cache.get::<u64>("s", 1);
        let _ = cache.get::<u64>("s", 99); // miss: no hit counted
        cache.record_quarantine("s");
        let snap = cache.stats_snapshot(&["s", "never-ran"]);
        assert_eq!(snap[0].hits, 1);
        assert_eq!(snap[0].misses, 2);
        assert_eq!(snap[0].quarantined, 1);
        assert_eq!(snap[0].busy_ns, 750);
        assert_eq!(
            snap[1],
            StageStats {
                stage: "never-ran",
                hits: 0,
                misses: 0,
                quarantined: 0,
                busy_ns: 0
            }
        );
        cache.reset_stats();
        let zeroed = cache.stats_snapshot(&["s"]);
        assert_eq!(zeroed[0].hits, 0);
        assert_eq!(zeroed[0].misses, 0);
        assert_eq!(zeroed[0].quarantined, 0);
        assert_eq!(zeroed[0].busy_ns, 0);
    }

    #[test]
    fn concurrent_mixed_stages_count_exactly() {
        // The fixed-slot registration must survive racing first-touches:
        // 8 threads × 4 stage names, every bump lands in the right cell.
        let cache = std::sync::Arc::new(PipelineCache::with_shards(8, 1024));
        let stages: [&'static str; 4] = ["w", "x", "y", "z"];
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = std::sync::Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..100u64 {
                        let stage = stages[(i % 4) as usize];
                        cache.insert(stage, t * 1000 + i, Arc::new(i), Duration::ZERO);
                    }
                });
            }
        });
        for stage in stages {
            let snap = cache.stats_snapshot(&[stage]);
            assert_eq!(snap[0].misses, 8 * 25, "{stage}");
        }
    }

    /// A namespace private to the get-or-build tests.
    const TEST_NS: Namespace = Namespace {
        name: "test-get-or-build",
        version: 1,
        fault_site: None,
    };

    fn test_stats(cache: &PipelineCache) -> StageStats {
        cache.stats_snapshot(&[TEST_NS.name])[0]
    }

    #[test]
    fn get_or_build_hits_misses_and_publishes_nothing_for_none() {
        let cache = PipelineCache::with_shards(4, 64);
        // A miss builds, publishes and records a miss.
        let built = cache.get_or_build(&TEST_NS, 1, || 5u64, |i| Some(i * 2));
        assert_eq!(built.as_deref(), Some(&10));
        assert_eq!((test_stats(&cache).hits, test_stats(&cache).misses), (0, 1));
        assert_eq!(cache.len(), 1);
        // A hit returns the same allocation and runs neither closure.
        let again = cache.get_or_build::<(), u64>(
            &TEST_NS,
            1,
            || panic!("input must not run on a hit"),
            |()| panic!("build must not run on a hit"),
        );
        assert!(Arc::ptr_eq(&built.unwrap(), &again.unwrap()));
        assert_eq!((test_stats(&cache).hits, test_stats(&cache).misses), (1, 1));
        // A `None` build publishes nothing and counts no miss.
        let none = cache.get_or_build(&TEST_NS, 2, || (), |()| None::<u64>);
        assert!(none.is_none());
        assert_eq!((test_stats(&cache).hits, test_stats(&cache).misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn panicking_build_is_quarantined_and_rebuilt_on_the_next_call() {
        let cache = PipelineCache::with_shards(4, 64);
        let build_panics = catch_unwind(AssertUnwindSafe(|| {
            cache.get_or_build::<(), u64>(&TEST_NS, 3, || (), |()| panic!("build bug"))
        }));
        assert!(build_panics.is_err(), "the panic re-raises");
        assert_eq!(test_stats(&cache).quarantined, 1);
        assert_eq!(test_stats(&cache).misses, 0);
        assert_eq!(cache.len(), 0, "a panicking build publishes nothing");
        // An upstream (input) panic is not billed to this namespace.
        let input_panics = catch_unwind(AssertUnwindSafe(|| {
            cache.get_or_build::<(), u64>(&TEST_NS, 3, || panic!("upstream bug"), |()| Some(0))
        }));
        assert!(input_panics.is_err());
        assert_eq!(test_stats(&cache).quarantined, 1);
        // The next call sees a plain miss and rebuilds.
        let rebuilt = cache.get_or_build(&TEST_NS, 3, || (), |()| Some(3u64));
        assert_eq!(rebuilt.as_deref(), Some(&3));
        assert_eq!(test_stats(&cache).quarantined, 1);
        assert_eq!(test_stats(&cache).misses, 1);
    }

    #[test]
    fn cross_shard_rekey_moves_residency() {
        let cache = PipelineCache::with_shards(4, 64);
        cache.insert("s", 0, Arc::new(7u64), Duration::ZERO);
        assert!(cache.rekey(("s", 0), ("s", 3)));
        assert_eq!(cache.get::<u64>("s", 3).as_deref(), Some(&7));
        assert!(cache.get::<u64>("s", 0).is_none());
        assert_eq!(cache.shard_entries(), vec![("s", 3, 3)]);
        assert!(!cache.rekey(("s", 0), ("s", 1)), "source gone");
    }
}
