//! Fault-injection test for the `asof::checkpoint` site: a panicking
//! checkpoint build must never publish a cache entry (the quarantine path
//! the pipeline stages already honor).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use schemachron_asof::{checkpoint_key, index_for, AsOfArtifact, CHECKPOINT};
use schemachron_corpus::cards::all_cards;
use schemachron_corpus::pipeline::{
    history_stage_key, peek_stage_artifact, stage_stats_for,
};
use schemachron_corpus::{Card, Corpus};
use schemachron_fault as fault;

/// Fault state is process-global; every test in this binary touching it
/// serializes on this guard (the same pattern the fault crate's own tests
/// use).
static GUARD: Mutex<()> = Mutex::new(());

fn quarantined_total() -> u64 {
    stage_stats_for(&[CHECKPOINT.name])[0].quarantined
}

#[test]
fn panicking_checkpoint_build_never_publishes_a_cache_entry() {
    let _guard = GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::clear();

    // A private seed: these keys belong to this test alone.
    let seed = 77_031;
    let cards: Vec<Card> = all_cards().into_iter().take(1).collect();
    let corpus = Corpus::from_cards(cards, seed, 1);
    let project = &corpus.projects()[0];
    let key = checkpoint_key(history_stage_key(&project.card, seed), 12);

    // Every checkpoint build panics.
    fault::install(
        fault::FaultPlan::new(3, 1.0)
            .with_sites([fault::site::ASOF_CHECKPOINT.to_owned()])
            .with_kinds([fault::FaultKind::WorkerPanic]),
    );
    let quarantined_before = quarantined_total();

    let outcome = catch_unwind(AssertUnwindSafe(|| index_for(project, seed, 12)));
    fault::clear();

    let payload = outcome.expect_err("the injected panic must propagate");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_default();
    assert!(
        fault::is_injected_payload(&message),
        "expected an injected payload, got: {message}"
    );
    assert!(
        peek_stage_artifact::<AsOfArtifact>(CHECKPOINT.name, key).is_none(),
        "a panicking build must not publish its artifact"
    );
    assert_eq!(
        quarantined_total(),
        quarantined_before + 1,
        "the quarantine counter must record the aborted build"
    );

    // With the plan cleared the same build succeeds and publishes.
    let built = index_for(project, seed, 12).expect("fault-free build succeeds");
    assert!(peek_stage_artifact::<AsOfArtifact>(CHECKPOINT.name, key)
        .is_some_and(|cached| std::sync::Arc::ptr_eq(&cached, &built)));
}
