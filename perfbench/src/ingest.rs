//! Workload `ingest`: cold-cache batch ingestion of the stratified cards
//! through `summarize_cards`, plus the per-layer probes of the eight
//! pipeline layers (corpus → ddl → model → history → core).

use std::hint::black_box;
use std::time::Instant;

use schemachron_core::metrics::TimeMetrics;
use schemachron_core::quantize::Labels;
use schemachron_core::{classify, Pattern};
use schemachron_corpus::cards::{all_cards, scaled_cards};
use schemachron_corpus::materialize::materialize;
use schemachron_corpus::pipeline::{self, STAGE_ORDER};
use schemachron_corpus::{effective_workers, summarize_cards, Card, Corpus, ProjectSummary};
use schemachron_ddl::SchemaBuilder;
use schemachron_dialect::ingest_dialect;
use schemachron_history::{ProjectHistory, SchemaHistory, SchemaVersion};
use schemachron_model::{diff, Schema};
use schemachron_stats::median;

use crate::report::Metric;
use crate::stats::tail;
use crate::trace::{overhead_pct, per_trace_self_us, Tracer, OVERHEAD_REPS};
use crate::RunResult;

/// Cards ingested per pass: 100 stratified cycles, about 8 cache entries
/// each, so the pass overflows the 32,768-entry stage cache.
pub const CARDS: usize = 15_100;

/// The contrast size that fits the stage cache.
const FITS_CACHE_CARDS: usize = 3_020;

/// Cards the per-layer probes walk (ten stratified cycles).
const PROBE_CARDS: usize = 1_510;

/// Cards of the probe walk that measures the tracing overhead (two
/// stratified cycles).
const OVERHEAD_CARDS: usize = 302;

/// Set-ups measured per run; the median is reported.
const SETUP_REPS: usize = 5;

/// Builds the inputs and the reference answers for the first cycle, then
/// empties the stage cache. The reference is a cold corpus build of the
/// same 151 cards: `Corpus::generate_scaled` names them the way
/// `scaled_cards` does. Returns the cards, the reference summaries and the
/// time each set-up took.
fn setup(seed: u64, jobs: usize) -> (Vec<Card>, Vec<ProjectSummary>, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut cards = Vec::new();
    let mut reference = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        cards = scaled_cards(CARDS);
        pipeline::clear_stage_cache();
        reference = Corpus::generate_scaled_jobs(seed, 151, jobs).summaries();
        pipeline::clear_stage_cache();
        pipeline::reset_stage_stats();
        times.push(t.elapsed().as_secs_f64());
    }
    (cards, reference, times)
}

/// One cold pass over `cards`: seconds taken and the summaries, or the
/// number of projects that failed.
pub fn timed_pass(
    cards: &[Card],
    seed: u64,
    jobs: usize,
    tracer: &Tracer,
) -> Result<(f64, Vec<ProjectSummary>), usize> {
    let input = cards.to_vec();
    pipeline::clear_stage_cache();
    pipeline::reset_stage_stats();
    let span = tracer.begin("ingest.pass", None, 0);
    let t = Instant::now();
    let out = summarize_cards(input, seed, jobs);
    let secs = t.elapsed().as_secs_f64();
    tracer.end(span);
    out.map(|s| (secs, s)).map_err(|f| f.0.len())
}

/// Each pattern's population must be exactly `cycles` times its count in
/// the 151 calibrated cards.
fn check_counts(summaries: &[ProjectSummary], problems: &mut Vec<String>) {
    let cycles = summaries.len() / 151;
    let base = all_cards();
    for p in Pattern::ALL {
        let want = cycles * base.iter().filter(|c| c.pattern == p).count();
        let got = summaries.iter().filter(|s| s.assigned == p).count();
        if got != want {
            problems.push(format!(
                "ingest: {} projects of {}, want {want}",
                got,
                p.name()
            ));
        }
    }
}

/// The end-to-end run: cold passes until `seconds` have elapsed. Every
/// pass must reproduce the calibrated populations and, for its first
/// cycle, the reference summaries.
pub fn run(seed: u64, seconds: u64, jobs: usize) -> RunResult {
    let (cards, reference, setup_s) = setup(seed, jobs);
    let mut res = RunResult::default();
    let mut passes = Vec::new();
    let started = Instant::now();
    loop {
        res.attempted += CARDS as u64;
        match timed_pass(&cards, seed, jobs, &Tracer::new(false)) {
            Ok((secs, summaries)) => {
                passes.push(secs);
                check_counts(&summaries, &mut res.problems);
                if summaries.get(..reference.len()) != Some(reference.as_slice()) {
                    res.problems.push(
                        "ingest: first 151 summaries differ from the corpus build".to_owned(),
                    );
                }
            }
            Err(failed) => res.failed += failed as u64,
        }
        if started.elapsed().as_secs_f64() >= seconds as f64 {
            break;
        }
    }
    if passes.is_empty() {
        res.problems.push("ingest: no pass completed".to_owned());
    }
    let pass_ms: Vec<f64> = passes.iter().map(|s| s * 1e3).collect();
    let pps = CARDS as f64 / median(&passes);
    res.end_to_end(
        &setup_s,
        Metric::new("throughput_per_s", pps, "1/s", passes.len()).note("projects per second"),
        Metric::new("latency_p50_ms", median(&pass_ms), "ms", passes.len())
            .note("one cold pass over 15100 cards"),
        Metric::tail("latency_tail_ms", tail(&pass_ms), "ms"),
    );
    res.detail
        .push(Metric::new("projects_per_s", pps, "1/s", passes.len()));
    res
}

/// Per-layer metrics of the ingest layers: pipeline counters from one
/// traced cold pass at full size, the fits-cache contrast, and per-project
/// probes of each layer's public function.
pub fn layers(seed: u64, jobs: usize, tracer: &Tracer, problems: &mut Vec<String>) -> Vec<Metric> {
    let cards = scaled_cards(CARDS);
    let mut out = Vec::new();
    let summaries = match timed_pass(&cards, seed, jobs, tracer) {
        Ok((wall, summaries)) => {
            out.extend(pipeline_metrics(wall, effective_workers(CARDS, jobs)));
            summaries
        }
        Err(n) => {
            problems.push(format!("ingest: traced pass lost {n} projects"));
            Vec::new()
        }
    };
    let fits = scaled_cards(FITS_CACHE_CARDS);
    let fits_pps = timed_pass(&fits, seed, jobs, tracer)
        .map_or(f64::NAN, |(secs, _)| FITS_CACHE_CARDS as f64 / secs);
    out.push(Metric::new(
        "pipeline.fits_cache_projects_per_s",
        fits_pps,
        "1/s",
        1,
    ));

    let mismatched = cards
        .iter()
        .zip(&summaries)
        .take(PROBE_CARDS)
        .enumerate()
        .filter(|(i, (card, summary))| {
            probe_project(card, seed, *i as u64, tracer) != Some((summary.labels, summary.strict))
        })
        .count();
    if mismatched > 0 {
        problems.push(format!(
            "ingest: {mismatched} layer probes disagree with the pipeline"
        ));
    }
    let spans = tracer.spans();
    for (metric, span) in [
        ("corpus.materialize_us", "corpus.materialize"),
        ("ddl.parse_us", "ddl.parse"),
        ("ddl.schema_us", "ddl.schema"),
        ("model.diff_us", "model.diff"),
        ("history.build_us", "history.build"),
        ("core.metrics_us", "core.metrics"),
        ("core.labels_us", "core.labels"),
        ("core.classify_us", "core.classify"),
    ] {
        let per = per_trace_self_us(&spans, span);
        out.push(Metric::new(metric, median(&per), "us", per.len()).note("median per project"));
    }
    let (pct, untraced_s) = overhead_pct(OVERHEAD_REPS, |t| {
        for (i, card) in cards.iter().take(OVERHEAD_CARDS).enumerate() {
            black_box(probe_project(card, seed, i as u64, t));
        }
    });
    out.push(
        Metric::new("trace.overhead_pct", pct, "%", OVERHEAD_REPS).note(format!(
            "layer walk over {OVERHEAD_CARDS} cards, {untraced_s:.3} s untraced"
        )),
    );
    out
}

/// Stage counters after a cold pass that took `wall` seconds.
fn pipeline_metrics(wall: f64, workers: usize) -> Vec<Metric> {
    let stats = pipeline::stage_stats();
    let mut out = Vec::new();
    let (mut hits, mut misses, mut busy_ns) = (0u64, 0u64, 0u128);
    for s in &stats {
        hits += s.hits;
        misses += s.misses;
        busy_ns += s.busy_ns;
        out.push(Metric::new(
            format!("pipeline.{}.misses", s.stage),
            s.misses as f64,
            "count",
            1,
        ));
        out.push(Metric::new(
            format!("pipeline.{}.busy_ms", s.stage),
            s.busy_ns as f64 / 1e6,
            "ms",
            1,
        ));
    }
    debug_assert_eq!(stats.len(), STAGE_ORDER.len());
    let lookups = (hits + misses).max(1);
    out.push(Metric::new(
        "pipeline.cache_hit_ratio",
        hits as f64 / lookups as f64,
        "ratio",
        1,
    ));
    let evicted = misses as f64 - pipeline::stage_cache_len() as f64;
    out.push(Metric::new("pipeline.evicted", evicted, "count", 1));
    let eff = busy_ns as f64 / 1e9 / (wall * workers as f64);
    out.push(
        Metric::new("pipeline.parallel_efficiency", eff, "ratio", 1)
            .note(format!("{workers} workers")),
    );
    out
}

/// Walks one card through every layer the pipeline stages call, with a
/// span around each layer's share of the work. The result must agree with
/// the pipeline's labels and strict classification of the same card.
fn probe_project(
    card: &Card,
    seed: u64,
    trace: u64,
    tracer: &Tracer,
) -> Option<(Labels, Option<Pattern>)> {
    let root = tracer.begin("ingest.project", None, trace);
    let p = root.id();
    let mat = tracer.time("corpus.materialize", p, trace, || materialize(card, seed));
    let mut dated: Vec<_> = mat.ddl_commits.iter().collect();
    dated.sort_by_key(|(d, _)| *d);
    let dialect = ingest_dialect();
    let parsed: Vec<_> = tracer.time("ddl.parse", p, trace, || {
        dated
            .iter()
            .map(|(date, sql)| (*date, dialect.parse(sql)))
            .collect()
    });
    let mut diagnostics = Vec::new();
    let snapshots: Vec<_> = tracer.time("ddl.schema", p, trace, || {
        let mut prev = Schema::default();
        parsed
            .iter()
            .map(|(date, (statements, diags))| {
                let mut b = SchemaBuilder::with_schema(prev.clone());
                diagnostics.extend(diags.iter().cloned());
                b.apply_statements(statements);
                let (schema, mut more) = b.finish();
                diagnostics.append(&mut more);
                prev = schema.clone();
                (*date, schema)
            })
            .collect()
    });
    let diffs: Vec<_> = tracer.time("model.diff", p, trace, || {
        let empty = Schema::default();
        let mut prev = &empty;
        snapshots
            .iter()
            .map(|(_, schema)| {
                let d = diff(prev, schema);
                prev = schema;
                d
            })
            .collect()
    });
    let history = tracer.time("history.build", p, trace, || {
        let versions = snapshots
            .iter()
            .zip(diffs)
            .map(|((date, schema), diff)| SchemaVersion {
                date: *date,
                schema: schema.clone(),
                diff,
            })
            .collect();
        let schema_history = SchemaHistory::from_versions(versions, diagnostics);
        ProjectHistory::from_schema_history(mat.name.clone(), schema_history, &mat.source_commits)
    });
    let metrics = tracer.time("core.metrics", p, trace, || {
        TimeMetrics::from_project(&history)
    });
    let out = metrics.map(|metrics| {
        let labels = tracer.time("core.labels", p, trace, || Labels::from_metrics(&metrics));
        let strict = tracer.time("core.classify", p, trace, || classify(&labels));
        (labels, strict)
    });
    tracer.end(root);
    out
}
