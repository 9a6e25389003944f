//! Shared experiment context: the generated corpus plus derived artifacts
//! every experiment needs.
//!
//! Corpora are expensive to build (full DDL materialization + pipeline
//! ingestion for every project), and every experiment in a run needs the
//! same one — so contexts draw from a process-wide, seed-keyed cache of
//! [`Arc<Corpus>`]: the first `ExpContext::new(seed)` builds the corpus,
//! every later one shares it. Derived models (feature matrix, decision
//! tree, birth predictor) are likewise computed once per context and
//! memoized.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use schemachron_core::predict::BirthPredictor;
use schemachron_core::quantize::{feature_value_names, tree_features, FEATURE_NAMES};
use schemachron_core::Pattern;
use schemachron_corpus::Corpus;
use schemachron_stats::{DecisionTree, TreeConfig};

/// Process-wide corpus cache, keyed by seed.
static CORPUS_CACHE: OnceLock<Mutex<HashMap<u64, Arc<Corpus>>>> = OnceLock::new();

/// The shared corpus for a seed: built (in parallel) on first request,
/// served from the cache afterwards. [`Corpus::build_count`] observes the
/// build-exactly-once behaviour.
///
/// # Panics
/// Propagates a panicking build (e.g. a worker fault that exhausted its
/// retries). The cache stays usable: later calls build or serve normally.
pub fn shared_corpus(seed: u64) -> Arc<Corpus> {
    let cache = CORPUS_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    // The map is written only after a build succeeds, so a lock poisoned by
    // a panicking build never guards a half-written entry.
    let mut map = cache.lock().unwrap_or_else(PoisonError::into_inner);
    Arc::clone(map.entry(seed).or_insert_with(|| {
        eprintln!(
            "[corpus] building seed-{seed} corpus ({} jobs)",
            schemachron_corpus::effective_jobs()
        );
        Arc::new(Corpus::generate(seed))
    }))
}

/// Everything the experiments share: the corpus and a few derived models.
pub struct ExpContext {
    /// The calibrated 151-project corpus (shared across contexts per seed).
    pub corpus: Arc<Corpus>,
    features: OnceLock<Vec<Vec<u8>>>,
    labels: OnceLock<Vec<usize>>,
    tree: OnceLock<DecisionTree>,
    predictor: OnceLock<BirthPredictor>,
}

impl ExpContext {
    /// Builds the context for a seed (experiments use
    /// [`crate::DEFAULT_SEED`]). The corpus comes from the process-wide
    /// cache, so repeated contexts for one seed build it only once.
    pub fn new(seed: u64) -> Self {
        ExpContext {
            corpus: shared_corpus(seed),
            features: OnceLock::new(),
            labels: OnceLock::new(),
            tree: OnceLock::new(),
            predictor: OnceLock::new(),
        }
    }

    /// The ordinal feature matrix for the Fig. 5 tree, one row per project.
    /// Computed once per context.
    pub fn feature_matrix(&self) -> &[Vec<u8>] {
        self.features.get_or_init(|| {
            self.corpus
                .projects()
                .iter()
                .map(|p| tree_features(&p.labels))
                .collect()
        })
    }

    /// The assigned-pattern label vector aligned with
    /// [`ExpContext::feature_matrix`]. Computed once per context.
    pub fn label_vector(&self) -> &[usize] {
        self.labels.get_or_init(|| {
            self.corpus
                .projects()
                .iter()
                .map(|p| p.assigned.ordinal())
                .collect()
        })
    }

    /// Fits the Fig. 5 decision tree (once per context). The paper extracts
    /// a *simple* tree after manual annotation, so depth is kept small;
    /// with this configuration a few exception projects are misclassified,
    /// exactly as in the paper.
    pub fn decision_tree(&self) -> &DecisionTree {
        self.tree.get_or_init(|| {
            DecisionTree::fit(
                self.feature_matrix(),
                self.label_vector(),
                &TreeConfig {
                    max_depth: 4,
                    min_samples_split: 4,
                },
            )
        })
    }

    /// Renders the fitted tree with the study's feature and class names.
    pub fn render_tree(&self, tree: &DecisionTree) -> String {
        let feature_names: Vec<&str> = FEATURE_NAMES.to_vec();
        let value_names = feature_value_names();
        let class_names: Vec<&str> = Pattern::ALL.iter().map(|p| p.name()).collect();
        tree.render(&feature_names, &value_names, &class_names)
    }

    /// The fitted §6.2 birth-point predictor (once per context).
    pub fn birth_predictor(&self) -> &BirthPredictor {
        self.predictor
            .get_or_init(|| BirthPredictor::fit(&self.corpus.birth_data()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builds_and_matrix_is_aligned() {
        let ctx = ExpContext::new(42);
        let m = ctx.feature_matrix();
        let l = ctx.label_vector();
        assert_eq!(m.len(), 151);
        assert_eq!(l.len(), 151);
        assert!(m.iter().all(|r| r.len() == FEATURE_NAMES.len()));
    }

    #[test]
    fn corpus_cache_builds_each_seed_once() {
        // Prime the cache, then observe that further contexts reuse it.
        let a = ExpContext::new(43);
        let builds = Corpus::build_count();
        let b = ExpContext::new(43);
        assert_eq!(Corpus::build_count(), builds, "second context rebuilt");
        assert!(Arc::ptr_eq(&a.corpus, &b.corpus));
    }

    #[test]
    fn derived_models_are_memoized() {
        let ctx = ExpContext::new(44);
        assert!(std::ptr::eq(ctx.decision_tree(), ctx.decision_tree()));
        assert!(std::ptr::eq(ctx.birth_predictor(), ctx.birth_predictor()));
        assert!(std::ptr::eq(
            ctx.feature_matrix().as_ptr(),
            ctx.feature_matrix().as_ptr()
        ));
    }
}
