//! Checkpoint artifacts in the pipeline's content-hash stage cache.
//!
//! A built [`AsOfIndex`] is published as **one** artifact per `(project, K)`
//! under the [`CHECKPOINT`] namespace, keyed from the project's
//! history-stage key, and filled through the pipeline's one get-or-build
//! path. DESIGN.md "Stage-cache namespaces" lists its key input, fault site
//! and lint rule.

use std::ops::Deref;
use std::sync::Arc;

use schemachron_corpus::pipeline::{get_or_build, history_stage_key, Namespace, StageKey};
use schemachron_corpus::CorpusProject;
use schemachron_fault as fault;
use schemachron_hash::{fnv1a, FNV_OFFSET};

use crate::index::AsOfIndex;

/// The as-of subsystem's stage-cache namespace. Bump the version when
/// [`AsOfIndex`]'s construction changes.
pub const CHECKPOINT: Namespace = Namespace {
    name: "asof-checkpoint",
    version: 1,
    fault_site: Some(fault::site::ASOF_CHECKPOINT),
};

/// A cached as-of index plus the provenance of its own cache key, so the
/// lint auditor can re-derive the key from first principles. Shared via
/// [`Arc`] (the index's lookup memo makes it deliberately clone-averse).
#[derive(Debug)]
pub struct AsOfArtifact {
    /// The history-stage key of the project the index was built from.
    pub history_key: StageKey,
    /// The (clamped) checkpoint spacing the index was built with.
    pub k_months: usize,
    /// The index itself.
    pub index: AsOfIndex,
}

impl Deref for AsOfArtifact {
    type Target = AsOfIndex;

    fn deref(&self) -> &AsOfIndex {
        &self.index
    }
}

/// Derives the cache key of a project's as-of index: the [`CHECKPOINT`]
/// chain link over the K-salted history key. Any change to the card, the
/// seed, an upstream stage version or K lands on a different key.
pub fn checkpoint_key(history_key: StageKey, k_months: usize) -> StageKey {
    let salted = fnv1a(FNV_OFFSET, &(k_months as u64).to_le_bytes());
    CHECKPOINT.key(fnv1a(salted, &history_key.to_le_bytes()))
}

/// The as-of index for a corpus project at checkpoint spacing `k_months`
/// (clamped to at least 1), served from the stage cache when already built.
/// Returns `None` when the project's history retains no schema versions.
///
/// # Panics
/// Propagates a panicking build (including injected `asof::checkpoint`
/// faults) after recording a quarantine — never after publishing an entry.
pub fn index_for(project: &CorpusProject, seed: u64, k_months: usize) -> Option<Arc<AsOfArtifact>> {
    let k_months = k_months.max(1);
    let history_key = history_stage_key(&project.card, seed);
    get_or_build(&CHECKPOINT, checkpoint_key(history_key, k_months), || {
        let index = AsOfIndex::build(&project.history, k_months)?;
        Some(AsOfArtifact {
            history_key,
            k_months,
            index,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemachron_corpus::cards::all_cards;
    use schemachron_corpus::{Card, Corpus};

    #[test]
    fn checkpoint_keys_chain_from_history_and_k() {
        let k = checkpoint_key(7, 12);
        assert_ne!(k, checkpoint_key(8, 12), "history key must matter");
        assert_ne!(k, checkpoint_key(7, 6), "K must matter");
        assert_eq!(k, checkpoint_key(7, 12), "keys are deterministic");
    }

    #[test]
    fn warm_lookup_returns_the_cached_allocation() {
        // A private seed so this test never races others on the same keys.
        let seed = 90_142;
        let cards: Vec<Card> = all_cards().into_iter().take(2).collect();
        let corpus = Corpus::from_cards(cards, seed, 1);
        let project = &corpus.projects()[0];
        let cold = index_for(project, seed, 12).unwrap();
        let warm = index_for(project, seed, 12).unwrap();
        assert!(Arc::ptr_eq(&cold, &warm), "second lookup must be a cache hit");
        let other_k = index_for(project, seed, 6).unwrap();
        assert!(!Arc::ptr_eq(&cold, &other_k), "K is part of the identity");
        assert_eq!(cold.project(), project.history.name());
        assert_eq!(cold.k_months, 12);
        assert_eq!(cold.history_key, history_stage_key(&project.card, seed));
    }
}
