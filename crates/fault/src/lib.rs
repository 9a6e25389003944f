#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # schemachron-fault
//!
//! Deterministic, seed-keyed fault injection for the whole workspace.
//!
//! A [`FaultPlan`] names a seed, a per-decision probability and (optionally)
//! a subset of injection [`site`]s and [`FaultKind`]s. Once installed with
//! [`install`], the instrumented code paths — corpus I/O, pipeline stages,
//! `par_map` workers, the serve request path — consult [`roll`] at each
//! injection point and act out whatever fault it returns.
//!
//! ## Determinism by construction
//!
//! Every decision is a **pure hash** of
//! `(plan seed, site, stable key, epoch, attempt)` — never of call counts,
//! wall time or thread schedule. The same plan over the same work therefore
//! injects the *same* faults at `--jobs 1` and `--jobs 8`, which is what
//! makes `schemachron chaos` reports byte-identical across worker counts:
//!
//! * the **key** is a stable identity of the unit of work (a chain key, a
//!   file path, a request target) supplied by the call site;
//! * the **attempt** is a thread-local retry counter (see [`with_attempt`])
//!   so a bounded retry re-rolls instead of looping on the same verdict;
//! * the **epoch** is a process-global generation (see [`set_epoch`]) so a
//!   resumed operation (e.g. re-running a corpus materialization) re-rolls
//!   its decisions.
//!
//! ## Zero cost when disabled
//!
//! With no plan installed, every injection point is a single relaxed atomic
//! load and an immediate return. Production builds that never call
//! [`install`] pay nothing else.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use schemachron_hash::{fnv1a, FNV_OFFSET};

/// Locks a mutex ignoring poisoning: the critical sections below only move
/// plain data, so a panic mid-section cannot corrupt them.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The registered injection sites. Call sites pass these constants so a
/// plan's `sites` filter and the CLI's `--site` flag share one vocabulary.
pub mod site {
    /// Corpus materialization: per-file writes in `write_corpus_dir`.
    pub const IO_WRITE: &str = "io::write";
    /// One ingestion stage build (keyed by `stage:chain-key`).
    pub const PIPELINE_STAGE: &str = "pipeline::stage";
    /// One `par_map` work item (keyed by item index).
    pub const PAR_MAP_WORKER: &str = "par_map::worker";
    /// One HTTP request handler (keyed by the request target).
    pub const SERVE_REQUEST: &str = "serve::request";
    /// One HTTP connection, after the response is computed (drops it).
    pub const SERVE_CONN: &str = "serve::conn";
    /// One as-of index or safety analysis build (keyed by
    /// `namespace:cache-key`).
    pub const ASOF_CHECKPOINT: &str = "asof::checkpoint";
    /// One WAL record append (keyed by `project:seq`).
    pub const STREAM_WAL_APPEND: &str = "stream::wal_append";
    /// One WAL fsync before the append is acknowledged (keyed by
    /// `project:seq`).
    pub const STREAM_WAL_FSYNC: &str = "stream::wal_fsync";
    /// One change-feed event emission (keyed by `project:seq:try`).
    pub const STREAM_FEED_EMIT: &str = "stream::feed_emit";

    /// Every registered site, for validation and documentation.
    pub const ALL: [&str; 9] = [
        IO_WRITE,
        PIPELINE_STAGE,
        PAR_MAP_WORKER,
        SERVE_REQUEST,
        SERVE_CONN,
        ASOF_CHECKPOINT,
        STREAM_WAL_APPEND,
        STREAM_WAL_FSYNC,
        STREAM_FEED_EMIT,
    ];
}

/// What kind of fault to act out at an injection point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Fail the operation with an `io::Error` (kind `Other`).
    IoError,
    /// Write a truncated prefix of the bytes, then fail.
    PartialWrite,
    /// Panic with the recognizable injected payload.
    WorkerPanic,
    /// Stall for the plan's `slow` duration before proceeding.
    Slow,
    /// Drop the connection without writing the response.
    ConnDrop,
}

impl FaultKind {
    /// Every kind, in declaration order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::IoError,
        FaultKind::PartialWrite,
        FaultKind::WorkerPanic,
        FaultKind::Slow,
        FaultKind::ConnDrop,
    ];

    /// The stable lowercase name (used by `--site`/env filters and counters).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::IoError => "io-error",
            FaultKind::PartialWrite => "partial-write",
            FaultKind::WorkerPanic => "panic",
            FaultKind::Slow => "slow",
            FaultKind::ConnDrop => "conn-drop",
        }
    }

    /// Parses [`FaultKind::name`] back.
    pub fn from_name(name: &str) -> Option<FaultKind> {
        FaultKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

/// A seed-keyed fault plan: which sites fault, how often, and how.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// The fault seed — independent of the corpus seed.
    pub seed: u64,
    /// Per-decision injection probability in `[0, 1]`.
    pub rate: f64,
    /// Restrict injection to these sites (`None` = all sites).
    pub sites: Option<BTreeSet<String>>,
    /// Restrict injection to these kinds (`None` = whatever the site offers).
    pub kinds: Option<BTreeSet<FaultKind>>,
    /// How long a [`FaultKind::Slow`] fault stalls.
    pub slow: Duration,
}

impl FaultPlan {
    /// A plan faulting every site with every kind it offers.
    pub fn new(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            rate,
            sites: None,
            kinds: None,
            slow: Duration::from_millis(150),
        }
    }

    /// Restricts the plan to the given sites.
    #[must_use]
    pub fn with_sites<I: IntoIterator<Item = String>>(mut self, sites: I) -> FaultPlan {
        let set: BTreeSet<String> = sites.into_iter().collect();
        self.sites = if set.is_empty() { None } else { Some(set) };
        self
    }

    /// Restricts the plan to the given fault kinds.
    #[must_use]
    pub fn with_kinds<I: IntoIterator<Item = FaultKind>>(mut self, kinds: I) -> FaultPlan {
        let set: BTreeSet<FaultKind> = kinds.into_iter().collect();
        self.kinds = if set.is_empty() { None } else { Some(set) };
        self
    }

    /// Sets the stall duration for [`FaultKind::Slow`] faults.
    #[must_use]
    pub fn with_slow(mut self, slow: Duration) -> FaultPlan {
        self.slow = slow;
        self
    }

    fn site_enabled(&self, site: &str) -> bool {
        self.sites.as_ref().is_none_or(|s| s.contains(site))
    }

    fn kind_enabled(&self, kind: FaultKind) -> bool {
        self.kinds.as_ref().is_none_or(|k| k.contains(&kind))
    }
}

/// Fast path: whether any plan is installed at all.
static ACTIVE: AtomicBool = AtomicBool::new(false);
/// The installed plan (behind the fast path).
static PLAN: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);
/// Process-global decision generation; see [`set_epoch`].
static EPOCH: AtomicU32 = AtomicU32::new(0);
/// Per-site distinct injected decisions (deduplicated by decision hash so a
/// retried or duplicated roll of the same decision counts once).
static COUNTS: Mutex<BTreeMap<String, BTreeSet<u64>>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// The current retry attempt, mixed into decisions; see [`with_attempt`].
    static ATTEMPT: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Installs a plan process-wide. Replaces any previous plan.
pub fn install(plan: FaultPlan) {
    *lock(&PLAN) = Some(Arc::new(plan));
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Uninstalls the plan; every injection point becomes a no-op again.
pub fn clear() {
    ACTIVE.store(false, Ordering::SeqCst);
    *lock(&PLAN) = None;
}

/// Whether a plan is currently installed.
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// A snapshot of the installed plan, if any.
pub fn plan() -> Option<Arc<FaultPlan>> {
    if !is_active() {
        return None;
    }
    lock(&PLAN).clone()
}

/// Sets the process-global decision epoch. A resumed operation (e.g. a
/// retried corpus materialization) bumps the epoch so its decisions re-roll
/// instead of deterministically repeating the failure.
pub fn set_epoch(epoch: u32) {
    EPOCH.store(epoch, Ordering::SeqCst);
}

/// The current decision epoch.
pub fn epoch() -> u32 {
    EPOCH.load(Ordering::Relaxed)
}

/// Runs `f` with the thread-local retry attempt set to `attempt`, restoring
/// the previous value afterwards. Retry loops wrap each try in this so the
/// n-th retry rolls a fresh (but still deterministic) decision.
pub fn with_attempt<R>(attempt: u32, f: impl FnOnce() -> R) -> R {
    let prev = ATTEMPT.with(|a| a.replace(attempt));
    let out = f();
    ATTEMPT.with(|a| a.set(prev));
    out
}

/// Zeroes the per-site injected-fault counters.
pub fn reset_counters() {
    lock(&COUNTS).clear();
}

/// Distinct injected decisions per site since the last
/// [`reset_counters`], in site name order.
pub fn counters() -> BTreeMap<String, u64> {
    lock(&COUNTS)
        .iter()
        .map(|(site, ids)| (site.clone(), ids.len() as u64))
        .collect()
}

/// Total distinct injected decisions across all sites.
pub fn injected_total() -> u64 {
    lock(&COUNTS).values().map(|ids| ids.len() as u64).sum()
}

fn decision_hash(seed: u64, site: &str, key: &str) -> u64 {
    let h = fnv1a(FNV_OFFSET, &seed.to_le_bytes());
    let h = fnv1a(h, site.as_bytes());
    let h = fnv1a(h, &[0xff]);
    let h = fnv1a(h, key.as_bytes());
    let h = fnv1a(h, &EPOCH.load(Ordering::Relaxed).to_le_bytes());
    fnv1a(h, &ATTEMPT.with(std::cell::Cell::get).to_le_bytes())
}

/// Maps a hash onto `[0, 1)` with 53 bits of precision.
fn unit_interval(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The core decision: should this injection point fault, and how?
///
/// `site` is one of the [`site`] constants; `key` is the stable identity of
/// the unit of work; `offered` lists the kinds this call site can act out.
/// Returns `None` when disabled, filtered out, or the roll passes. A `Some`
/// verdict is recorded in the per-site counters (deduplicated by decision,
/// so the retry of an *identical* decision does not double-count).
pub fn roll(site_name: &str, key: &str, offered: &[FaultKind]) -> Option<FaultKind> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    let plan = lock(&PLAN).clone()?;
    if !plan.site_enabled(site_name) {
        return None;
    }
    let allowed: Vec<FaultKind> = offered
        .iter()
        .copied()
        .filter(|k| plan.kind_enabled(*k))
        .collect();
    if allowed.is_empty() {
        return None;
    }
    let h = decision_hash(plan.seed, site_name, key);
    if unit_interval(h) >= plan.rate {
        return None;
    }
    let kind = allowed[(fnv1a(h, b"kind") % allowed.len() as u64) as usize];
    lock(&COUNTS)
        .entry(site_name.to_owned())
        .or_default()
        .insert(h);
    Some(kind)
}

/// Prefix of every injected panic payload; [`is_injected_payload`] keys off
/// it to classify a caught panic as transient (retryable) vs genuine.
pub const INJECTED_PANIC_PREFIX: &str = "schemachron-fault: injected";

/// Whether a panic message came from an injected [`FaultKind::WorkerPanic`].
pub fn is_injected_payload(message: &str) -> bool {
    message.starts_with(INJECTED_PANIC_PREFIX)
}

/// An injected I/O failure, recognizable by its message.
pub fn injected_io_error(site_name: &str, key: &str) -> std::io::Error {
    std::io::Error::other(format!(
        "schemachron-fault: injected I/O error at {site_name} ({key})"
    ))
}

/// Convenience point for panic-only sites: panics with the injected payload
/// when the roll says so, otherwise returns.
///
/// # Panics
/// By design, when the installed plan injects a [`FaultKind::WorkerPanic`].
pub fn panic_point(site_name: &str, key: &str) {
    if roll(site_name, key, &[FaultKind::WorkerPanic]) == Some(FaultKind::WorkerPanic) {
        panic!("{INJECTED_PANIC_PREFIX} worker panic at {site_name} ({key})");
    }
}

/// Convenience point for slow-only sites: stalls for the plan's `slow`
/// duration when the roll says so. Returns whether it stalled.
pub fn slow_point(site_name: &str, key: &str) -> bool {
    if roll(site_name, key, &[FaultKind::Slow]) == Some(FaultKind::Slow) {
        if let Some(p) = plan() {
            std::thread::sleep(p.slow);
        }
        return true;
    }
    false
}

/// Combined point for cached builds (slow or panic): every stage-cache
/// namespace with a fault site rolls here, keyed by `namespace:cache-key`.
///
/// # Panics
/// By design, when the installed plan injects a [`FaultKind::WorkerPanic`].
pub fn build_point(site_name: &str, key: &str) {
    match roll(site_name, key, &[FaultKind::Slow, FaultKind::WorkerPanic]) {
        Some(FaultKind::Slow) => {
            if let Some(p) = plan() {
                std::thread::sleep(p.slow);
            }
        }
        Some(FaultKind::WorkerPanic) => {
            panic!("{INJECTED_PANIC_PREFIX} build fault at {site_name} ({key})");
        }
        _ => {}
    }
}

/// Connection-drop point: whether to drop the connection unanswered.
pub fn conn_drop_point(key: &str) -> bool {
    roll(site::SERVE_CONN, key, &[FaultKind::ConnDrop]) == Some(FaultKind::ConnDrop)
}

/// Environment variable parsed by [`install_from_env`].
pub const ENV_VAR: &str = "SCHEMACHRON_FAULTS";

/// Installs a plan from `SCHEMACHRON_FAULTS`, if set. The format is
/// `;`-separated `key=value` pairs; list values are `+`-separated:
///
/// ```text
/// SCHEMACHRON_FAULTS="rate=1.0;seed=3;sites=serve::request;kinds=slow;slow_ms=2000"
/// ```
///
/// Returns whether a plan was installed. Unknown keys, sites, kinds or
/// unparsable values yield an `Err` with the offending fragment.
pub fn install_from_env() -> Result<bool, String> {
    let Ok(spec) = std::env::var(ENV_VAR) else {
        return Ok(false);
    };
    if spec.trim().is_empty() {
        return Ok(false);
    }
    let mut plan = FaultPlan::new(0, 0.0);
    for pair in spec.split(';').filter(|p| !p.trim().is_empty()) {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| format!("{ENV_VAR}: `{pair}` is not key=value"))?;
        match k.trim() {
            "seed" => {
                plan.seed = v
                    .trim()
                    .parse()
                    .map_err(|_| format!("{ENV_VAR}: bad seed `{v}`"))?;
            }
            "rate" => {
                let rate: f64 = v
                    .trim()
                    .parse()
                    .map_err(|_| format!("{ENV_VAR}: bad rate `{v}`"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("{ENV_VAR}: rate `{v}` outside [0, 1]"));
                }
                plan.rate = rate;
            }
            "slow_ms" => {
                let ms: u64 = v
                    .trim()
                    .parse()
                    .map_err(|_| format!("{ENV_VAR}: bad slow_ms `{v}`"))?;
                plan.slow = Duration::from_millis(ms);
            }
            "sites" => {
                let mut sites = BTreeSet::new();
                for s in v.split('+').map(str::trim).filter(|s| !s.is_empty()) {
                    if !site::ALL.contains(&s) {
                        return Err(format!(
                            "{ENV_VAR}: unknown site `{s}` (valid: {})",
                            site::ALL.join(", ")
                        ));
                    }
                    sites.insert(s.to_owned());
                }
                plan.sites = if sites.is_empty() { None } else { Some(sites) };
            }
            "kinds" => {
                let mut kinds = BTreeSet::new();
                for s in v.split('+').map(str::trim).filter(|s| !s.is_empty()) {
                    let kind = FaultKind::from_name(s).ok_or_else(|| {
                        let valid: Vec<&str> = FaultKind::ALL.iter().map(|k| k.name()).collect();
                        format!("{ENV_VAR}: unknown kind `{s}` (valid: {})", valid.join(", "))
                    })?;
                    kinds.insert(kind);
                }
                plan.kinds = if kinds.is_empty() { None } else { Some(kinds) };
            }
            other => return Err(format!("{ENV_VAR}: unknown key `{other}`")),
        }
    }
    install(plan);
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fault state is process-global; serialize the tests that touch it.
    static GUARD: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        GUARD.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_is_a_no_op() {
        let _g = exclusive();
        clear();
        assert_eq!(roll(site::IO_WRITE, "x", &FaultKind::ALL), None);
        panic_point(site::PAR_MAP_WORKER, "x"); // must not panic
        assert!(!slow_point(site::SERVE_REQUEST, "x"));
    }

    #[test]
    fn decisions_are_deterministic_and_key_sensitive() {
        let _g = exclusive();
        set_epoch(0);
        install(FaultPlan::new(7, 0.5));
        reset_counters();
        let first: Vec<Option<FaultKind>> = (0..64)
            .map(|i| roll(site::PIPELINE_STAGE, &format!("k{i}"), &FaultKind::ALL))
            .collect();
        let second: Vec<Option<FaultKind>> = (0..64)
            .map(|i| roll(site::PIPELINE_STAGE, &format!("k{i}"), &FaultKind::ALL))
            .collect();
        assert_eq!(first, second, "same (seed, site, key) → same verdict");
        let hits = first.iter().filter(|v| v.is_some()).count();
        assert!(hits > 8 && hits < 56, "rate 0.5 over 64 keys, got {hits}");
        // Re-rolling identical decisions did not double-count.
        assert_eq!(injected_total(), hits as u64);
        clear();
    }

    #[test]
    fn attempt_and_epoch_re_roll_decisions() {
        let _g = exclusive();
        set_epoch(0);
        install(FaultPlan::new(11, 0.5));
        let base: Vec<Option<FaultKind>> = (0..64)
            .map(|i| roll(site::IO_WRITE, &format!("k{i}"), &FaultKind::ALL))
            .collect();
        let retried: Vec<Option<FaultKind>> = with_attempt(1, || {
            (0..64)
                .map(|i| roll(site::IO_WRITE, &format!("k{i}"), &FaultKind::ALL))
                .collect()
        });
        assert_ne!(base, retried, "attempt must change the decision stream");
        set_epoch(1);
        let epoch2: Vec<Option<FaultKind>> = (0..64)
            .map(|i| roll(site::IO_WRITE, &format!("k{i}"), &FaultKind::ALL))
            .collect();
        assert_ne!(base, epoch2, "epoch must change the decision stream");
        set_epoch(0);
        clear();
    }

    #[test]
    fn site_and_kind_filters_apply() {
        let _g = exclusive();
        set_epoch(0);
        install(
            FaultPlan::new(3, 1.0)
                .with_sites([site::SERVE_REQUEST.to_owned()])
                .with_kinds([FaultKind::Slow]),
        );
        assert_eq!(roll(site::IO_WRITE, "k", &FaultKind::ALL), None, "site filtered");
        assert_eq!(
            roll(site::SERVE_REQUEST, "k", &[FaultKind::ConnDrop]),
            None,
            "kind filtered"
        );
        assert_eq!(
            roll(site::SERVE_REQUEST, "k", &FaultKind::ALL),
            Some(FaultKind::Slow)
        );
        clear();
    }

    #[test]
    fn rates_zero_and_one_are_absolute() {
        let _g = exclusive();
        set_epoch(0);
        install(FaultPlan::new(5, 0.0));
        assert!((0..256).all(|i| roll(site::IO_WRITE, &format!("k{i}"), &FaultKind::ALL).is_none()));
        install(FaultPlan::new(5, 1.0));
        assert!((0..256).all(|i| roll(site::IO_WRITE, &format!("k{i}"), &FaultKind::ALL).is_some()));
        clear();
    }

    #[test]
    fn injected_panics_are_recognizable() {
        let _g = exclusive();
        set_epoch(0);
        install(FaultPlan::new(1, 1.0));
        let payload = std::panic::catch_unwind(|| panic_point(site::PAR_MAP_WORKER, "item-0"))
            .expect_err("rate 1.0 must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(is_injected_payload(&msg), "{msg}");
        assert!(!is_injected_payload("index out of bounds"));
        clear();
    }

    #[test]
    fn env_plan_round_trips() {
        let _g = exclusive();
        // Parse errors surface, valid spec installs.
        std::env::set_var(ENV_VAR, "rate=0.25;seed=9;sites=io::write+serve::conn;kinds=conn-drop;slow_ms=5");
        assert_eq!(install_from_env(), Ok(true));
        let p = plan().expect("installed");
        assert_eq!(p.seed, 9);
        assert_eq!(p.rate, 0.25);
        assert_eq!(p.slow, Duration::from_millis(5));
        assert!(p.site_enabled(site::IO_WRITE) && !p.site_enabled(site::SERVE_REQUEST));
        assert!(p.kind_enabled(FaultKind::ConnDrop) && !p.kind_enabled(FaultKind::Slow));
        std::env::set_var(ENV_VAR, "rate=2.0");
        assert!(install_from_env().is_err());
        std::env::set_var(ENV_VAR, "sites=bogus");
        assert!(install_from_env().is_err());
        std::env::remove_var(ENV_VAR);
        assert_eq!(install_from_env(), Ok(false));
        clear();
    }
}
