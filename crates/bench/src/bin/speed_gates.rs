//! The three timing properties the caches and the worker pool exist to
//! provide, each checked as the minimum of [`REPS`] runs:
//!
//! 1. **stage-rebuild** — rebuilding the 151-card corpus with one card
//!    changed must beat a cold full rebuild (the stage cache);
//! 2. **asof-lookup** — warm checkpointed as-of lookups at K = 12 over
//!    every month of every project must be at least 10x faster than full
//!    replay from birth (the as-of checkpoints);
//! 3. **parallel-ingest** — ingesting 1,510 stratified projects with
//!    jobs = 2 must reach at least 1.0x the serial speed (the worker pool;
//!    skipped on a single-core host, where two workers cannot win).
//!
//! Prints one line per gate, writes no file, and exits nonzero when any
//! gate fails. Run it in release: `cargo run --release -p
//! schemachron-bench --bin speed_gates`. Throughput and latency numbers
//! live in `perfbench`; this program only answers pass or fail.

use std::sync::Arc;
use std::time::Instant;

use schemachron_asof::{index_for, AsOfArtifact};
use schemachron_bench::DEFAULT_SEED;
use schemachron_corpus::cards::{all_cards, scaled_cards};
use schemachron_corpus::{effective_jobs, pipeline, summarize_cards, Card, Corpus};
use schemachron_history::MonthId;

/// Timing repetitions per measured side; the minimum damps scheduler noise.
const REPS: usize = 3;

/// The checkpoint spacing the as-of gate applies to (the engine default).
const ASOF_K: usize = 12;

/// Minimum full-replay / warm-lookup ratio at [`ASOF_K`].
const ASOF_MIN_SPEEDUP: f64 = 10.0;

/// Stratified projects ingested by the parallel gate.
const PAR_SIZE: usize = 1510;

/// Minimum jobs = 2 / serial speed ratio.
const PAR_MIN_SPEEDUP: f64 = 1.0;

/// The minimum over [`REPS`] calls of `run(rep)`, in milliseconds.
fn min_ms(mut run: impl FnMut(usize) -> f64) -> f64 {
    (0..REPS).map(&mut run).fold(f64::INFINITY, f64::min)
}

/// Wall time of `f` in milliseconds.
fn time_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// Prints a gate's verdict line; returns whether it failed.
fn verdict(gate: &str, passed: bool, detail: &str) -> bool {
    println!(
        "gate {gate}: {} — {detail}",
        if passed { "PASS" } else { "FAIL" }
    );
    !passed
}

fn stage_rebuild() -> bool {
    let cards = all_cards();
    let build = |cards: Vec<Card>| {
        time_ms(|| {
            let corpus = Corpus::from_cards(cards, DEFAULT_SEED, effective_jobs());
            assert_eq!(corpus.projects().len(), 151);
        })
    };
    let full_ms = min_ms(|_| {
        pipeline::clear_stage_cache();
        build(cards.clone())
    });
    // A fresh name each repetition, so the mutant is never pre-cached.
    let incremental_ms = min_ms(|rep| {
        let mut mutated = cards.clone();
        mutated[0].name = format!("{}-speedgate-{rep}", mutated[0].name);
        build(mutated)
    });
    verdict(
        "stage-rebuild",
        incremental_ms < full_ms,
        &format!(
            "one card changed {incremental_ms:.3}ms vs cold full {full_ms:.3}ms \
             ({:.1}x, must be faster)",
            full_ms / incremental_ms
        ),
    )
}

/// Looks up every month of every index; returns the total table count,
/// which defeats dead-code elimination and cross-checks the two paths.
fn sweep(
    indexes: &[Arc<AsOfArtifact>],
    lookup: impl Fn(&AsOfArtifact, MonthId) -> Option<usize>,
) -> usize {
    let mut tables = 0;
    for index in indexes {
        let mut m = index.start();
        while m <= index.last_month() {
            tables += lookup(index, m).unwrap_or(0);
            m = m.plus(1);
        }
    }
    tables
}

fn asof_lookup() -> bool {
    let corpus = Corpus::generate(DEFAULT_SEED);
    pipeline::clear_stage_cache();
    let indexes: Vec<_> = corpus
        .projects()
        .iter()
        .filter_map(|p| index_for(p, DEFAULT_SEED, ASOF_K))
        .collect();
    assert_eq!(indexes.len(), corpus.projects().len());
    let (mut replay_tables, mut warm_tables) = (0, 0);
    let replay_ms = min_ms(|_| {
        time_ms(|| {
            replay_tables = sweep(&indexes, |i, m| {
                i.schema_by_full_replay(m).map(|s| s.table_count())
            });
        })
    });
    let warm_ms = min_ms(|_| {
        time_ms(|| {
            warm_tables = sweep(&indexes, |i, m| i.schema_as_of(m).map(|s| s.table_count()));
        })
    });
    assert_eq!(
        warm_tables, replay_tables,
        "the two lookup paths must visit identical schemas"
    );
    verdict(
        "asof-lookup",
        replay_ms >= warm_ms * ASOF_MIN_SPEEDUP,
        &format!(
            "K={ASOF_K} warm {warm_ms:.3}ms vs full replay {replay_ms:.3}ms \
             ({:.1}x, must be >= {ASOF_MIN_SPEEDUP}x)",
            replay_ms / warm_ms
        ),
    )
}

fn parallel_ingest() -> bool {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores < 2 {
        println!("gate parallel-ingest: SKIP — single-core host, parallel speedup is core-bound");
        return false;
    }
    let ingest_ms = |jobs: usize| {
        min_ms(|_| {
            pipeline::clear_stage_cache();
            time_ms(|| {
                let summaries = summarize_cards(scaled_cards(PAR_SIZE), DEFAULT_SEED, jobs)
                    .expect("ingestion succeeds");
                assert_eq!(summaries.len(), PAR_SIZE);
            })
        })
    };
    let serial_ms = ingest_ms(1);
    let parallel_ms = ingest_ms(2);
    let speedup = serial_ms / parallel_ms;
    verdict(
        "parallel-ingest",
        speedup >= PAR_MIN_SPEEDUP,
        &format!(
            "{PAR_SIZE} projects jobs=2 {parallel_ms:.1}ms vs serial {serial_ms:.1}ms \
             ({speedup:.2}x, must be >= {PAR_MIN_SPEEDUP}x; {cores} cores)"
        ),
    )
}

fn main() {
    let failed = [stage_rebuild(), asof_lookup(), parallel_ingest()]
        .into_iter()
        .filter(|&failed| failed)
        .count();
    if failed > 0 {
        std::process::exit(1);
    }
}
