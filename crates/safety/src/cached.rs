//! Safety analyses in the pipeline's content-hash stage cache.
//!
//! A project's [`SafetyAnalysis`] is published as **one** artifact under the
//! [`SAFETY`] namespace, keyed from the project's history-stage key, and
//! filled through the pipeline's one get-or-build path. DESIGN.md
//! "Stage-cache namespaces" lists its key input, fault site and lint rule.

use std::ops::Deref;
use std::sync::Arc;

use schemachron_corpus::materialize::materialize;
use schemachron_corpus::pipeline::{get_or_build, history_stage_key, Namespace, StageKey};
use schemachron_corpus::Card;
use schemachron_fault as fault;

use crate::analyze::{analyze, SafetyAnalysis};

/// The safety subsystem's stage-cache namespace. Bump the version when the
/// classifier, the inverse synthesizer or the lineage tracker changes.
/// Builds roll against the as-of checkpoint fault site.
pub const SAFETY: Namespace = Namespace {
    name: "safety",
    version: 1,
    fault_site: Some(fault::site::ASOF_CHECKPOINT),
};

/// A cached safety analysis plus the provenance of its own cache key, so
/// the lint auditor can re-derive the key from first principles.
#[derive(Debug)]
pub struct SafetyArtifact {
    /// The history-stage key of the project the analysis was built from.
    pub history_key: StageKey,
    /// The analysis itself.
    pub analysis: SafetyAnalysis,
}

impl Deref for SafetyArtifact {
    type Target = SafetyAnalysis;

    fn deref(&self) -> &SafetyAnalysis {
        &self.analysis
    }
}

/// Derives the cache key of a project's safety analysis: the [`SAFETY`]
/// chain link over the history key. Any change to the card, the seed, an
/// upstream stage version or the safety logic lands on a different key.
pub fn safety_key(history_key: StageKey) -> StageKey {
    SAFETY.key(history_key)
}

/// The safety analysis for a corpus card, served from the stage cache when
/// already built. The analysis is a pure function of the card's
/// materialized DDL commits, so every caller at any `--jobs` level gets a
/// byte-identical rendering.
///
/// # Panics
/// Propagates a panicking build (including injected faults) after
/// recording a quarantine — never after publishing an entry.
pub fn safety_for(card: &Card, seed: u64) -> Arc<SafetyArtifact> {
    let history_key = history_stage_key(card, seed);
    let built = get_or_build(&SAFETY, safety_key(history_key), || {
        let project = materialize(card, seed);
        Some(SafetyArtifact {
            history_key,
            analysis: analyze(&card.name, &project.ddl_commits),
        })
    });
    let Some(artifact) = built else {
        unreachable!("safety builds always publish an artifact")
    };
    artifact
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemachron_corpus::cards::all_cards;
    use schemachron_corpus::Corpus;

    #[test]
    fn safety_keys_chain_from_the_history_key() {
        let k = safety_key(7);
        assert_ne!(k, safety_key(8), "history key must matter");
        assert_eq!(k, safety_key(7), "keys are deterministic");
    }

    #[test]
    fn warm_lookup_returns_the_cached_allocation() {
        // A private seed so this test never races others on the same keys.
        let seed = 71_309;
        let cards: Vec<Card> = all_cards().into_iter().take(2).collect();
        let corpus = Corpus::from_cards(cards, seed, 1);
        let project = &corpus.projects()[0];
        let cold = safety_for(&project.card, seed);
        let warm = safety_for(&project.card, seed);
        assert!(Arc::ptr_eq(&cold, &warm), "second lookup must be a cache hit");
        assert_eq!(cold.project, project.card.name);
        assert_eq!(cold.history_key, history_stage_key(&project.card, seed));
        assert!(cold.versions > 0, "corpus projects have schema versions");
    }
}
