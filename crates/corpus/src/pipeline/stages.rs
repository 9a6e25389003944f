//! The eight ingestion stages and the cached chain that walks them.
//!
//! Each stage replicates exactly one slice of the historical monolithic
//! ingestion (`materialize` → `ProjectHistoryBuilder` → metrics → labels →
//! classification), so a full chain walk is byte-identical to the old
//! single-pass build — the tests in `tests/stage_cache.rs` and the
//! experiment goldens pin this down.

use std::sync::Arc;

use schemachron_fault as fault;

use schemachron_core::metrics::TimeMetrics;
use schemachron_core::quantize::Labels;
use schemachron_core::{classify, classify_nearest};
use schemachron_ddl::SchemaBuilder;
use schemachron_dialect::{ingest_dialect, PLAN_LOGIC_VERSION};
use schemachron_hash::{fnv1a, FNV_OFFSET};
use schemachron_history::{ProjectHistory, SchemaHistory, SchemaVersion};
use schemachron_model::{diff, Schema};

use crate::corpus::CorpusProject;
use crate::materialize::materialize;
use crate::spec::Card;

use super::artifact::{
    card_fingerprint, CardSpec, DiffSeq, DiffStep, LabelTuple, LogicalSchema, MetricVector,
    ParsedCommit, ParsedDdl, PatternClass, RawScripts,
};
use super::stage::{cache, Namespace, StageKey, StageTrace};

/// An ingestion stage: every build rolls against the `pipeline::stage`
/// fault site.
const fn stage(name: &'static str, version: u32) -> Namespace {
    Namespace {
        name,
        version,
        fault_site: Some(fault::site::PIPELINE_STAGE),
    }
}

/// The eight ingestion stages, in pipeline order.
pub const STAGES: [Namespace; 8] = [
    stage("materialize", 1),
    stage("parse", 1),
    stage("schema", 1),
    stage("diff", 1),
    stage("history", 1),
    stage("metrics", 1),
    stage("labels", 1),
    stage("classify", 1),
];

/// The stage names in pipeline order — the canonical ordering for counter
/// snapshots, `/health` and perfbench's `pipeline.*` metrics.
pub const STAGE_ORDER: [&str; 8] = {
    let mut order = [""; 8];
    let mut i = 0;
    while i < order.len() {
        order[i] = STAGES[i].name;
        i += 1;
    }
    order
};

/// Stage 1: card + seed → dated DDL scripts and source events.
fn materialize_card(spec: &CardSpec) -> RawScripts {
    RawScripts {
        project: materialize(&spec.card, spec.seed),
    }
}

/// Stage 2: scripts → parsed statements per commit, via the ingestion
/// dialect's parser (see [`ingest_dialect`]).
fn parse_scripts(raw: &RawScripts) -> ParsedDdl {
    // Stable sort by date, mirroring `ProjectHistoryBuilder::build`
    // (same-date commits keep insertion order).
    let mut dated: Vec<&(schemachron_history::Date, String)> =
        raw.project.ddl_commits.iter().collect();
    dated.sort_by_key(|(d, _)| *d);
    let dialect = ingest_dialect();
    let commits = dated
        .into_iter()
        .map(|(date, sql)| {
            let (statements, diagnostics) = dialect.parse(sql);
            ParsedCommit {
                date: *date,
                statements,
                diagnostics,
            }
        })
        .collect();
    ParsedDdl { commits }
}

/// Stage 3: parsed statements → the logical schema after every commit.
fn build_schemas(parsed: &ParsedDdl) -> LogicalSchema {
    let mut snapshots = Vec::with_capacity(parsed.commits.len());
    let mut diagnostics = Vec::new();
    let mut prev = Schema::default();
    for c in &parsed.commits {
        // Migration-mode ingestion: apply on top of the previous version,
        // exactly like `SchemaHistory::push`. The parse diagnostics come
        // first, then any builder diagnostics — the order `apply_script`
        // has always produced.
        let mut b = SchemaBuilder::with_schema(prev.clone());
        diagnostics.extend(c.diagnostics.iter().cloned());
        b.apply_statements(&c.statements);
        let (schema, mut b_diags) = b.finish();
        diagnostics.append(&mut b_diags);
        prev = schema.clone();
        snapshots.push((c.date, Arc::new(schema)));
    }
    LogicalSchema {
        snapshots,
        diagnostics,
    }
}

/// Stage 4: schema snapshots → version-over-version diffs.
fn diff_versions(logical: &LogicalSchema) -> DiffSeq {
    let empty = Schema::default();
    let mut prev: &Schema = &empty;
    let mut steps = Vec::with_capacity(logical.snapshots.len());
    for (date, schema) in &logical.snapshots {
        steps.push(DiffStep {
            date: *date,
            schema: Arc::clone(schema),
            diff: diff(prev, schema),
        });
        prev = schema;
    }
    DiffSeq {
        steps,
        diagnostics: logical.diagnostics.clone(),
    }
}

/// Stage 5: diffs + source events (from the raw scripts, with the project
/// name) → the PUP-aligned project history.
fn build_history(diffs: &DiffSeq, raw: &RawScripts) -> ProjectHistory {
    let versions = diffs
        .steps
        .iter()
        .map(|s| SchemaVersion {
            date: s.date,
            schema: (*s.schema).clone(),
            diff: s.diff.clone(),
        })
        .collect();
    let history = SchemaHistory::from_versions(versions, diffs.diagnostics.clone());
    ProjectHistory::from_schema_history(
        raw.project.name.clone(),
        history,
        &raw.project.source_commits,
    )
}

/// Stage 6: project history → §3.2 time metrics.
fn measure(history: &ProjectHistory) -> MetricVector {
    let metrics = TimeMetrics::from_project(history).unwrap_or_else(|| {
        panic!(
            "{}: corpus projects always have schema activity",
            history.name()
        )
    });
    MetricVector { metrics }
}

/// Stage 7: metrics → quantized §3.3 labels.
fn quantize(metrics: &MetricVector) -> LabelTuple {
    LabelTuple {
        labels: Labels::from_metrics(&metrics.metrics),
    }
}

/// Stage 8: labels → strict and nearest pattern classification.
fn pattern_of(labels: &LabelTuple) -> PatternClass {
    let (nearest, violations) = classify_nearest(&labels.labels);
    PatternClass {
        strict: classify(&labels.labels),
        nearest,
        violations,
    }
}

/// The per-stage output keys of one project chain, in [`STAGE_ORDER`].
/// Derivable without running anything: pure hash chaining from the card
/// fingerprint.
pub fn chain_keys(card: &Card, seed: u64) -> [StageKey; 8] {
    let mut key = card_fingerprint(card, seed);
    let mut keys = [0; 8];
    for (i, ns) in STAGES.iter().enumerate() {
        // The parse link salts its upstream key (see [`parse_salt`]).
        if i == 1 {
            key = parse_salt(key);
        }
        key = ns.key(key);
        keys[i] = key;
    }
    keys
}

/// Folds the ingestion dialect's name and the planner logic version into
/// the parse stage's upstream key, so cached parse artifacts invalidate if
/// either ever changes. The lint cache auditor (`H002`/`H003`) restates
/// this fold independently from its own constants.
pub fn parse_salt(in_key: StageKey) -> StageKey {
    let h = fnv1a(FNV_OFFSET, ingest_dialect().name().as_bytes());
    let h = fnv1a(h, &u64::from(PLAN_LOGIC_VERSION).to_le_bytes());
    fnv1a(h, &in_key.to_le_bytes())
}

/// A lazy, memoizing walk of one project's stage chain.
///
/// Artifacts are fetched downstream-first: asking for the history consults
/// the history cache entry and only walks upstream on a miss, so a fully
/// cached project never touches (or counts against) its early stages.
struct Chain<'a> {
    card: &'a Card,
    seed: u64,
    keys: [StageKey; 8],
    trace: StageTrace,
    raw: Option<Arc<RawScripts>>,
    parsed: Option<Arc<ParsedDdl>>,
    schema: Option<Arc<LogicalSchema>>,
    diffs: Option<Arc<DiffSeq>>,
    history: Option<Arc<ProjectHistory>>,
    metrics: Option<Arc<MetricVector>>,
    labels: Option<Arc<LabelTuple>>,
    class: Option<Arc<PatternClass>>,
}

impl<'a> Chain<'a> {
    fn new(card: &'a Card, seed: u64) -> Self {
        Chain {
            card,
            seed,
            keys: chain_keys(card, seed),
            trace: StageTrace::default(),
            raw: None,
            parsed: None,
            schema: None,
            diffs: None,
            history: None,
            metrics: None,
            labels: None,
            class: None,
        }
    }

    /// One memoized stage step: the memo if present, else the cache's
    /// get-or-build for stage `idx`. `input` walks upstream and runs only
    /// on a miss, so the trace records a hit exactly when it never ran.
    fn step<I, T: Send + Sync + 'static>(
        &mut self,
        idx: usize,
        memo: fn(&mut Self) -> &mut Option<Arc<T>>,
        input: impl FnOnce(&mut Self) -> I,
        run: impl FnOnce(I) -> T,
    ) -> Arc<T> {
        if let Some(v) = memo(self) {
            return Arc::clone(v);
        }
        let mut hit = true;
        let fetched = cache().get_or_build(
            &STAGES[idx],
            self.keys[idx],
            || {
                hit = false;
                input(self)
            },
            |i| Some(run(i)),
        );
        let Some(out) = fetched else {
            unreachable!("stage builds always publish an artifact")
        };
        self.trace.record(STAGES[idx].name, hit);
        *memo(self) = Some(Arc::clone(&out));
        out
    }

    fn raw(&mut self) -> Arc<RawScripts> {
        let spec = |c: &mut Self| CardSpec {
            card: c.card.clone(),
            seed: c.seed,
        };
        self.step(0, |c| &mut c.raw, spec, |s| materialize_card(&s))
    }

    fn parsed(&mut self) -> Arc<ParsedDdl> {
        self.step(1, |c| &mut c.parsed, Self::raw, |raw| parse_scripts(&raw))
    }

    fn schema(&mut self) -> Arc<LogicalSchema> {
        self.step(2, |c| &mut c.schema, Self::parsed, |p| build_schemas(&p))
    }

    fn diffs(&mut self) -> Arc<DiffSeq> {
        self.step(3, |c| &mut c.diffs, Self::schema, |s| diff_versions(&s))
    }

    fn history(&mut self) -> Arc<ProjectHistory> {
        let input = |c: &mut Self| (c.diffs(), c.raw());
        self.step(4, |c| &mut c.history, input, |(d, r)| build_history(&d, &r))
    }

    fn metrics(&mut self) -> Arc<MetricVector> {
        self.step(5, |c| &mut c.metrics, Self::history, |h| measure(&h))
    }

    fn labels(&mut self) -> Arc<LabelTuple> {
        self.step(6, |c| &mut c.labels, Self::metrics, |m| quantize(&m))
    }

    fn classify(&mut self) -> Arc<PatternClass> {
        self.step(7, |c| &mut c.class, Self::labels, |l| pattern_of(&l))
    }
}

/// Builds one corpus project through the staged pipeline, returning the
/// per-call [`StageTrace`] alongside it.
///
/// The walk fetches the terminal artifacts (classification, labels,
/// metrics, history) and recomputes upstream only on cache misses; for a
/// fully cached project the trace shows hits only.
pub fn build_project_traced(card: &Card, seed: u64) -> (CorpusProject, StageTrace) {
    let mut chain = Chain::new(card, seed);
    let _class = chain.classify();
    let history = chain.history();
    let metrics = chain.metrics();
    let labels = chain.labels();
    let project = CorpusProject {
        assigned: card.pattern,
        exception: card.exception,
        card: card.clone(),
        history,
        metrics: metrics.metrics.clone(),
        labels: labels.labels,
    };
    (project, chain.trace)
}

/// [`build_project_traced`] without the trace — the corpus builder's
/// per-project entry point.
pub fn build_project(card: &Card, seed: u64) -> CorpusProject {
    build_project_traced(card, seed).0
}

/// Classifies one project through the cached chain, returning the terminal
/// [`PatternClass`] artifact.
pub fn classify_project(card: &Card, seed: u64) -> PatternClass {
    let mut chain = Chain::new(card, seed);
    *chain.classify()
}
