//! Streaming ingestion latency benchmark.
//!
//! Replays real corpus commit chains through [`StreamStore`]s — the same
//! WAL-backed path `POST /project/{id}/commit` takes — and measures, per
//! appended commit:
//!
//! 1. **append→ack** — the fsync-inclusive wall time of
//!    `StreamStore::append` returning the classification ack;
//! 2. **commit→feed** — time from the append call until the transition is
//!    readable on the change feed (`events_since` returns its cursor).
//!
//! Both are measured at 1 and 8 concurrent ingestion threads (each thread
//! owns its own store, as each served project directory does), over the
//! same total commit volume, so the report shows how the shared stage
//! cache behaves under contention.
//!
//! Writes `BENCH_stream.json` at the workspace root and exits nonzero when
//! the incremental-reclassification gate fails: on a warm store, **one
//! append must trigger exactly one stream-classify chain re-run** (the
//! whole point of keying the stage on the WAL chain checksum — an append
//! never re-runs earlier prefixes, and always classifies its own).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use schemachron_corpus::materialize::materialize;
use schemachron_corpus::{pipeline, Corpus};
use schemachron_history::Date;
use schemachron_stream::{Append, StreamStore, STREAM_STAGE};

/// Timing repetitions; the fastest rep is reported to damp scheduler noise.
const REPS: usize = 3;

/// Concurrent ingestion thread counts under test.
const JOBS: [usize; 2] = [1, 8];

/// Chains streamed per run (divisible by every entry of [`JOBS`] so each
/// thread count ingests the same total volume).
const CHAINS: usize = 16;

/// Commits taken per chain (long enough that classification transitions).
const COMMITS_PER_CHAIN: usize = 24;

/// Shortest usable chain; the corpus's flatliner projects are skipped.
const MIN_COMMITS: usize = 4;

/// The gate: chain re-runs (stage-cache misses) one append must trigger —
/// exactly one, so a gate that measured nothing (a drifted namespace name
/// reads as a zeroed counter row) fails instead of passing.
const GATE_RERUNS: u64 = 1;

/// Latencies of one ingestion run, in nanoseconds.
#[derive(Default)]
struct Latencies {
    ack_ns: Vec<u64>,
    feed_ns: Vec<u64>,
}

fn mean_us(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let total: f64 = ns.iter().map(|&n| n as f64).sum();
    total / ns.len() as f64 / 1e3
}

fn max_us(ns: &[u64]) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    ns.iter().copied().max().map_or(0.0, |n| n as f64 / 1e3)
}

/// Streams `chains` into a fresh store under `root`, timing every append.
fn ingest(root: &std::path::Path, chains: &[(String, Vec<(Date, String)>)]) -> Latencies {
    let _ = std::fs::remove_dir_all(root);
    let mut store = StreamStore::open(root).expect("stream store opens");
    let mut lat = Latencies::default();
    for (name, commits) in chains {
        for (i, (date, sql)) in commits.iter().enumerate() {
            let seq = (i + 1) as u64;
            let start = Instant::now();
            let ack = store
                .append(name, seq, &date.to_string(), sql)
                .expect("append succeeds");
            let ack_ns = start.elapsed().as_nanos();
            let Append::Appended { cursor, .. } = ack else {
                panic!("{name} seq {seq}: fresh append reported duplicate");
            };
            // Propagation: the transition must already be on the feed.
            let batch = store.events_since(cursor - 1, 1);
            assert_eq!(
                batch.events.first().map(|e| e.cursor),
                Some(cursor),
                "{name} seq {seq}: feed lost the append"
            );
            let feed_ns = start.elapsed().as_nanos();
            lat.ack_ns.push(u64::try_from(ack_ns).unwrap_or(u64::MAX));
            lat.feed_ns.push(u64::try_from(feed_ns).unwrap_or(u64::MAX));
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(root);
    lat
}

fn main() {
    let seed = schemachron_bench::DEFAULT_SEED;
    let corpus = Corpus::generate(seed);
    let chains: Vec<(String, Vec<(Date, String)>)> = corpus
        .projects()
        .iter()
        .filter_map(|p| {
            let mat = materialize(&p.card, seed);
            let commits: Vec<(Date, String)> = mat
                .ddl_commits
                .into_iter()
                .take(COMMITS_PER_CHAIN)
                .collect();
            (commits.len() >= MIN_COMMITS).then(|| (p.card.name.clone(), commits))
        })
        .take(CHAINS)
        .collect();
    let commits: usize = chains.iter().map(|(_, c)| c.len()).sum();
    println!(
        "bench: stream  {} chains, {commits} commits, reps {REPS}",
        chains.len()
    );

    let mut per_jobs = Vec::new();
    for jobs in JOBS {
        let mut best_ms = f64::INFINITY;
        let mut best = Latencies::default();
        for rep in 0..REPS {
            // Cold stage cache every rep: each append pays its own (single)
            // chain classification, like a freshly started server would.
            pipeline::clear_stage_cache();
            let counter = AtomicU64::new(0);
            let start = Instant::now();
            let lat: Latencies = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..jobs)
                    .map(|worker| {
                        let chains = &chains;
                        let counter = &counter;
                        scope.spawn(move || {
                            let root = std::env::temp_dir().join(format!(
                                "schemachron-stream-bench-{}-{rep}-{jobs}-{worker}",
                                std::process::id()
                            ));
                            let mut lat = Latencies::default();
                            // Work-steal chains by index so every thread
                            // count ingests the identical total volume.
                            loop {
                                let i = counter.fetch_add(1, Ordering::Relaxed) as usize;
                                if i >= chains.len() {
                                    break;
                                }
                                let one = ingest(&root, &chains[i..=i]);
                                lat.ack_ns.extend(one.ack_ns);
                                lat.feed_ns.extend(one.feed_ns);
                            }
                            let _ = std::fs::remove_dir_all(&root);
                            lat
                        })
                    })
                    .collect();
                let mut merged = Latencies::default();
                for h in handles {
                    let one = h.join().expect("ingestion thread");
                    merged.ack_ns.extend(one.ack_ns);
                    merged.feed_ns.extend(one.feed_ns);
                }
                merged
            });
            let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(lat.ack_ns.len(), commits, "every commit must be timed");
            if elapsed_ms < best_ms {
                best_ms = elapsed_ms;
                best = lat;
            }
        }
        println!(
            "bench: stream  jobs={jobs}  append→ack mean {:>8.1}µs max {:>9.1}µs  \
             commit→feed mean {:>8.1}µs max {:>9.1}µs  wall {best_ms:>8.1}ms",
            mean_us(&best.ack_ns),
            max_us(&best.ack_ns),
            mean_us(&best.feed_ns),
            max_us(&best.feed_ns),
        );
        per_jobs.push(serde_json::json!({
            "jobs": jobs,
            "append_ack_mean_us": (mean_us(&best.ack_ns)),
            "append_ack_max_us": (max_us(&best.ack_ns)),
            "feed_propagation_mean_us": (mean_us(&best.feed_ns)),
            "feed_propagation_max_us": (max_us(&best.feed_ns)),
            "elapsed_ms": best_ms,
        }));
    }

    // The incremental gate: stream a whole chain into a warm store, then
    // append one more commit and count stream-classify recomputations.
    let (gate_name, gate_commits) = chains
        .iter()
        .max_by_key(|(_, c)| c.len())
        .expect("at least one chain");
    let gate_root = std::env::temp_dir().join(format!(
        "schemachron-stream-bench-gate-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&gate_root);
    pipeline::clear_stage_cache();
    let mut store = StreamStore::open(&gate_root).expect("gate store opens");
    let (last, warm) = gate_commits.split_last().expect("chain is non-empty");
    for (i, (date, sql)) in warm.iter().enumerate() {
        store
            .append(gate_name, (i + 1) as u64, &date.to_string(), sql)
            .expect("warmup append");
    }
    pipeline::reset_stage_stats();
    store
        .append(gate_name, gate_commits.len() as u64, &last.0.to_string(), &last.1)
        .expect("gated append");
    let stats = pipeline::stage_stats_for(&[STREAM_STAGE]);
    let (reruns, hits) = stats
        .first()
        .map_or((0, 0), |s| (s.misses, s.hits));
    drop(store);
    let _ = std::fs::remove_dir_all(&gate_root);
    println!(
        "bench: stream  gate: 1 append → {reruns} chain re-run(s), {hits} cache hit(s) \
         (required {GATE_RERUNS})"
    );

    let report = serde_json::json!({
        "bench": "stream/append_feed_latency",
        "seed": seed,
        "reps": REPS,
        "chains": (chains.len()),
        "commits": commits,
        "per_jobs": (serde_json::Value::Array(per_jobs)),
        "gate": {
            "stage": STREAM_STAGE,
            "max_chain_reruns_per_append": GATE_RERUNS,
            "observed_reruns": reruns,
            "observed_hits": hits,
        },
    });
    // CARGO_MANIFEST_DIR = crates/bench, so ../.. is the workspace root.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stream.json");
    match std::fs::write(out, serde_json::to_string_pretty(&report).unwrap()) {
        Ok(()) => println!("bench: wrote {out}"),
        Err(e) => eprintln!("bench: could not write {out}: {e}"),
    }

    if reruns != GATE_RERUNS {
        eprintln!(
            "bench: FAIL — a single append re-ran the {STREAM_STAGE} stage {reruns} \
             times (required exactly {GATE_RERUNS}); incremental re-classification \
             regressed or was not measured"
        );
        std::process::exit(1);
    }
}
