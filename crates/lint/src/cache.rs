//! The cache-coherence auditor: recomputes stage-cache fingerprints from
//! first principles and reports artifacts whose chained FNV-1a key
//! disagrees.
//!
//! The pipeline's content-hash discipline (see `corpus::pipeline`) is only
//! trustworthy if the keys actually *are* content hashes. This pass
//! re-derives every project's 8-stage key chain independently — straight
//! from the [`schemachron_hash`] primitives, the pipeline's published
//! `STAGE_ORDER` names and stage versions restated here, without calling
//! the pipeline's own `derive_key` — then audits the live cache against the
//! expected key set. The as-of, safety and stream namespaces are audited
//! seed-free from one table of restated rows.

use std::collections::{BTreeMap, BTreeSet};

use schemachron_corpus::pipeline::{
    self, card_fingerprint, chain_keys, StageKey, STAGE_ORDER,
};
use schemachron_corpus::Card;
use schemachron_hash::{fnv1a, FNV_OFFSET};

use crate::diag::{Diagnostic, Report};

/// The stage versions in [`STAGE_ORDER`] order, restated here so the audit
/// does not share code with the audited implementation.
const STAGE_VERSIONS: [u32; 8] = [1, 1, 1, 1, 1, 1, 1, 1];

/// The corpus ingestion dialect's canonical name, restated from
/// `schemachron_dialect::ingest_dialect()` (a registry test pins the two).
const INGEST_DIALECT: &str = "mysql";

/// The planner logic version, restated from
/// [`schemachron_dialect::PLAN_LOGIC_VERSION`].
const INGEST_PLAN_LOGIC_VERSION: u32 = 1;

/// Independent restatement of the parse stage's salt: the ingestion
/// dialect's name and the planner logic version folded into the upstream
/// key before the chain link is derived.
fn rederive_parse_salt(in_key: StageKey) -> StageKey {
    let h = fnv1a(FNV_OFFSET, INGEST_DIALECT.as_bytes());
    let h = fnv1a(h, &u64::from(INGEST_PLAN_LOGIC_VERSION).to_le_bytes());
    fnv1a(h, &in_key.to_le_bytes())
}

/// A derived namespace: a stage-cache namespace outside the ingestion chain
/// whose artifacts record the inputs of their own key, so the audit
/// re-derives each key seed-free. The name and version are restated here,
/// not imported, so the audit stays independent of the engines (a test
/// pins every row to the engine's `Namespace` const and key function).
struct Derived {
    /// The restated namespace name.
    name: &'static str,
    /// The restated namespace version.
    version: u32,
    /// The rule a disagreeing or foreign entry raises.
    code: &'static str,
    /// What the namespace's payload is, for the foreign-payload message.
    payload: &'static str,
    /// Reads the payload cached under `(name, key)` and restates the input
    /// key of its chain link plus a description of the recorded inputs;
    /// `None` when the payload is not this namespace's artifact type.
    restate: fn(&'static str, StageKey) -> Option<(StageKey, String)>,
}

/// Every derived namespace, one row each.
const DERIVED: [Derived; 3] = [
    Derived {
        name: "asof-checkpoint",
        version: 1,
        code: "H005",
        payload: "an as-of index",
        restate: restate_asof,
    },
    Derived {
        name: "safety",
        version: 1,
        code: "H006",
        payload: "a safety analysis",
        restate: restate_safety,
    },
    Derived {
        name: "stream-classify",
        version: 1,
        code: "H008",
        payload: "a streamed classification",
        restate: restate_stream,
    },
];

/// The salt of a two-input chain link: `fnv1a(fnv1a(offset, a_le), b_le)`.
fn salt(a: u64, b: u64) -> StageKey {
    fnv1a(fnv1a(FNV_OFFSET, &a.to_le_bytes()), &b.to_le_bytes())
}

/// As-of checkpoints chain from the history key salted with K.
fn restate_asof(name: &'static str, key: StageKey) -> Option<(StageKey, String)> {
    let a = pipeline::peek_stage_artifact::<schemachron_asof::AsOfArtifact>(name, key)?;
    let inputs = format!(
        "history key {:016x} at K={} (project `{}`)",
        a.history_key,
        a.k_months,
        a.index.project()
    );
    Some((salt(a.k_months as u64, a.history_key), inputs))
}

/// Safety analyses chain straight from the history key, unsalted.
fn restate_safety(name: &'static str, key: StageKey) -> Option<(StageKey, String)> {
    let a = pipeline::peek_stage_artifact::<schemachron_safety::SafetyArtifact>(name, key)?;
    let inputs = format!(
        "history key {:016x} (project `{}`)",
        a.history_key, a.analysis.project
    );
    Some((a.history_key, inputs))
}

/// Streamed classifications chain from the WAL chain checksum salted with
/// the commit count.
fn restate_stream(name: &'static str, key: StageKey) -> Option<(StageKey, String)> {
    let a = pipeline::peek_stage_artifact::<schemachron_stream::StreamArtifact>(name, key)?;
    let inputs = format!(
        "chain checksum {:016x} over {} commit(s) (pattern `{}`)",
        a.chain_crc, a.commit_count, a.pattern
    );
    Some((salt(a.commit_count, a.chain_crc), inputs))
}

/// Independent restatement of the cache's shard-count formula: the next
/// power of two at or above 4 × available parallelism. Deliberately does
/// not call `pipeline::shard_count_for` — drift between the two is exactly
/// what H004 exists to flag.
fn rederive_shard_count() -> usize {
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    (4 * parallelism.max(1)).next_power_of_two()
}

/// Independent re-derivation of one chain link:
/// `fnv1a(fnv1a(fnv1a(offset, name), version_le), in_key_le)`.
fn rederive(name: &str, version: u32, in_key: StageKey) -> StageKey {
    let h = fnv1a(FNV_OFFSET, name.as_bytes());
    let h = fnv1a(h, &version.to_le_bytes());
    fnv1a(h, &in_key.to_le_bytes())
}

/// Independent re-derivation of a card's full key chain.
fn rederive_chain(card: &Card, seed: u64) -> [StageKey; 8] {
    let mut key = card_fingerprint(card, seed);
    let mut keys = [0; 8];
    for (i, (name, version)) in STAGE_ORDER.iter().zip(STAGE_VERSIONS).enumerate() {
        // The parse link (index 1) salts its upstream key with the
        // ingestion dialect + planner logic version before chaining.
        if i == 1 {
            key = rederive_parse_salt(key);
        }
        key = rederive(name, version, key);
        keys[i] = key;
    }
    keys
}

/// Audits the process-wide stage cache against the given card set.
///
/// * **H003** — the pipeline's own [`chain_keys`] disagrees with this
///   module's independent re-derivation for some card: the key-derivation
///   scheme itself has drifted.
/// * **H002** — a cached artifact lives under a stage namespace that is not
///   in [`STAGE_ORDER`].
/// * **H001** — a cached artifact's key is not derivable from any card in
///   the set under the given seed: either the entry was corrupted/re-keyed,
///   or it belongs to an input outside the audited card set.
/// * **H004** — the shard layout drifted: the live shard count disagrees
///   with this module's restated formula (`next_pow2(4 × parallelism)`),
///   the count is not a power of two, or an entry resides outside the
///   shard its key selects (`key & (count - 1)`). A misplaced entry is
///   invisible to lookups, so it silently degrades the cache to a miss.
/// * **H005** (as-of), **H006** (safety), **H008** (stream) — an artifact
///   in one of these derived namespaces carries a key that disagrees with
///   the restated derivation from the inputs its payload records, or the
///   payload is not that namespace's artifact at all. Unlike H001 these
///   audits are seed-free: the artifact restates its own inputs, so its key
///   is checkable without knowing which corpus built it.
pub fn audit_stage_cache(cards: &[Card], seed: u64, report: &mut Report) {
    const PROJECT: &str = "(stage-cache)";

    // Expected key set per stage, plus the owning project for messages.
    let mut expected: BTreeMap<&'static str, BTreeMap<StageKey, &str>> = BTreeMap::new();
    for card in cards {
        let ours = rederive_chain(card, seed);
        let theirs = chain_keys(card, seed);
        if ours != theirs {
            report.push(Diagnostic::new(
                "H003",
                &card.name,
                format!(
                    "pipeline chain keys disagree with the independent FNV-1a re-derivation \
                     (pipeline {theirs:016x?}, re-derived {ours:016x?})"
                ),
            ));
        }
        // Audit the cache against the pipeline's own notion of the chain:
        // H001 must flag corrupted *entries*, not re-report a drifted
        // derivation scheme (that is H003's job).
        for (stage, key) in STAGE_ORDER.iter().zip(theirs) {
            expected.entry(stage).or_default().insert(key, &card.name);
        }
    }

    let known: BTreeSet<&str> = STAGE_ORDER.iter().copied().collect();
    for (stage, key) in pipeline::stage_cache_entries() {
        if let Some(row) = DERIVED.iter().find(|row| row.name == stage) {
            audit_derived_entry(row, key, report);
            continue;
        }
        if !known.contains(stage) {
            report.push(Diagnostic::new(
                "H002",
                PROJECT,
                format!("cached artifact {key:016x} lives under unknown stage namespace `{stage}`"),
            ));
            continue;
        }
        let derivable = expected
            .get(stage)
            .is_some_and(|keys| keys.contains_key(&key));
        if !derivable {
            report.push(Diagnostic::new(
                "H001",
                PROJECT,
                format!(
                    "cached `{stage}` artifact {key:016x} is not derivable from any card \
                     in the audited set (seed {seed})"
                ),
            ));
        }
    }

    // H004: shard-layout audit. The shard count must match the restated
    // formula, and every resident entry must live in the shard its key
    // selects — the same FNV-1a key the H001 pass just validated, masked by
    // the restated count. Anything else means lookups can no longer find
    // the entry, which silently turns the cache into a miss machine.
    let live = pipeline::stage_cache_shard_count();
    let restated = rederive_shard_count();
    if live != restated || !live.is_power_of_two() {
        report.push(Diagnostic::new(
            "H004",
            PROJECT,
            format!(
                "stage-cache shard count {live} disagrees with the restated formula \
                 next_pow2(4 × parallelism) = {restated}"
            ),
        ));
    }
    let mask = live.max(1) - 1;
    for (stage, key, shard) in pipeline::stage_cache_shard_entries() {
        let selected = (key as usize) & mask;
        if shard != selected {
            report.push(Diagnostic::new(
                "H004",
                PROJECT,
                format!(
                    "cached `{stage}` artifact {key:016x} resides in shard {shard} but its \
                     key selects shard {selected} (count {live})"
                ),
            ));
        }
    }
}

/// H005/H006/H008: audits one artifact in a derived namespace against the
/// restated key derivation of its row.
fn audit_derived_entry(row: &Derived, key: StageKey, report: &mut Report) {
    const PROJECT: &str = "(stage-cache)";
    let name = row.name;
    let Some((in_key, inputs)) = (row.restate)(name, key) else {
        report.push(Diagnostic::new(
            row.code,
            PROJECT,
            format!(
                "cached `{name}` artifact {key:016x} is not {} payload",
                row.payload
            ),
        ));
        return;
    };
    let restated = rederive(name, row.version, in_key);
    if restated != key {
        report.push(Diagnostic::new(
            row.code,
            PROJECT,
            format!(
                "cached `{name}` artifact {key:016x} disagrees with the restated \
                 derivation {restated:016x} for {inputs}"
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemachron_corpus::cards::all_cards;
    use schemachron_corpus::pipeline::{build_project, corrupt_stage_cache_entry};

    /// The stage cache is process-wide and these tests assert *cache-global*
    /// facts, so each one takes this lock and starts from an empty cache.
    static CACHE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn codes(r: &Report) -> Vec<&'static str> {
        r.diagnostics().iter().map(|d| d.code).collect()
    }

    #[test]
    fn rederivation_matches_pipeline() {
        for card in all_cards().iter().take(5) {
            assert_eq!(rederive_chain(card, 42), chain_keys(card, 42));
        }
    }

    #[test]
    fn pristine_cache_audits_clean_and_corruption_is_caught() {
        // One test, sequenced: the stage cache is process-wide, so a clean
        // audit must be asserted *before* this test corrupts it.
        let _lock = CACHE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        pipeline::clear_stage_cache();
        let cards: Vec<Card> = all_cards().into_iter().take(3).collect();
        let seed = 4242; // private to this test: no cross-test interference
        for card in &cards {
            let _ = build_project(card, seed);
        }

        let mut clean = Report::new();
        audit_stage_cache(&cards, seed, &mut clean);
        assert!(clean.diagnostics().is_empty(), "{}", clean.render_human());

        // Corrupt one entry's key: H001.
        let victim = chain_keys(&cards[0], seed);
        let stage = STAGE_ORDER[2];
        assert!(corrupt_stage_cache_entry(
            (stage, victim[2]),
            (stage, victim[2] ^ 0xdead_beef)
        ));
        let mut tampered = Report::new();
        audit_stage_cache(&cards, seed, &mut tampered);
        assert_eq!(codes(&tampered), ["H001"]);
        assert!(tampered.render_human().contains("not derivable"));

        // Re-file the same entry under a bogus stage namespace: H002.
        assert!(corrupt_stage_cache_entry(
            (stage, victim[2] ^ 0xdead_beef),
            ("bogus-stage", victim[2])
        ));
        let mut bogus = Report::new();
        audit_stage_cache(&cards, seed, &mut bogus);
        assert_eq!(codes(&bogus), ["H002"]);

        // Restore so other tests sharing the process cache are unaffected.
        assert!(corrupt_stage_cache_entry(
            ("bogus-stage", victim[2]),
            (stage, victim[2])
        ));

        // Strand the entry in the wrong shard (key untouched, so H001 stays
        // quiet): H004.
        let count = pipeline::stage_cache_shard_count();
        let home = pipeline::shard_of_key(victim[2], count);
        let wrong = (home + 1) % count;
        assert!(pipeline::misplace_stage_cache_entry((stage, victim[2]), wrong));
        let mut misplaced = Report::new();
        audit_stage_cache(&cards, seed, &mut misplaced);
        assert_eq!(codes(&misplaced), ["H004"]);
        assert!(misplaced.render_human().contains(&format!("shard {wrong}")));

        // Restore residency and confirm the audit is clean again.
        assert!(pipeline::misplace_stage_cache_entry((stage, victim[2]), home));
        let mut restored = Report::new();
        audit_stage_cache(&cards, seed, &mut restored);
        assert!(restored.diagnostics().is_empty(), "{}", restored.render_human());
    }

    #[test]
    fn restated_shard_formula_matches_pipeline() {
        assert_eq!(rederive_shard_count(), pipeline::stage_cache_shard_count());
    }

    #[test]
    fn restated_ingest_dialect_constants_match_the_planner() {
        assert_eq!(INGEST_DIALECT, schemachron_dialect::ingest_dialect().name());
        assert_eq!(
            INGEST_PLAN_LOGIC_VERSION,
            schemachron_dialect::PLAN_LOGIC_VERSION
        );
        // And the full salt fold, on an arbitrary input key.
        assert_eq!(
            rederive_parse_salt(0x1234_5678_9abc_def0),
            schemachron_corpus::pipeline::parse_salt(0x1234_5678_9abc_def0)
        );
    }

    #[test]
    fn derived_rows_match_the_engines() {
        let x = 0x1234_5678_9abc_def0;
        // Each row against its engine's namespace const, and the restated
        // derivation against the engine's key function on arbitrary inputs.
        let engines = [
            (
                schemachron_asof::CHECKPOINT,
                salt(12, x),
                schemachron_asof::checkpoint_key(x, 12),
            ),
            (
                schemachron_safety::SAFETY,
                x,
                schemachron_safety::safety_key(x),
            ),
            (
                schemachron_stream::STREAM,
                salt(17, x),
                schemachron_stream::stream_key(x, 17),
            ),
        ];
        for (row, (ns, in_key, engine_key)) in DERIVED.iter().zip(engines) {
            assert_eq!((row.name, row.version), (ns.name, ns.version));
            let restated = rederive(row.name, row.version, in_key);
            assert_eq!(restated, engine_key, "{}", row.code);
        }
    }

    #[test]
    fn derived_entries_audit_clean_and_corruption_is_caught() {
        // Sequenced: the cache is process-wide, so each clean audit comes
        // before the corruption it is compared against.
        let _lock = CACHE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        pipeline::clear_stage_cache();
        let cards: Vec<Card> = all_cards().into_iter().take(1).collect();
        let seed = 52_424; // private to this test: no cross-test interference
        let corpus = schemachron_corpus::Corpus::from_cards(cards.clone(), seed, 1);
        let asof = schemachron_asof::index_for(&corpus.projects()[0], seed, 12)
            .expect("corpus projects retain schema versions");
        let safety = schemachron_safety::safety_for(&cards[0], seed);
        let commits = vec![
            (
                "2021-03-10".parse().unwrap(),
                "CREATE TABLE t (a INT);".to_owned(),
            ),
            (
                "2021-04-10".parse().unwrap(),
                "ALTER TABLE t ADD COLUMN b INT;".to_owned(),
            ),
        ];
        let crc = 0x57_24_24_01; // private chain checksum: no cross-test races
        let stream = schemachron_stream::classification_for("lint-stream-test", &commits, crc);
        // One resident artifact per row, in DERIVED order.
        let keys = [
            schemachron_asof::checkpoint_key(asof.history_key, asof.k_months),
            schemachron_safety::safety_key(safety.history_key),
            schemachron_stream::stream_key(stream.chain_crc, stream.commit_count),
        ];
        let audit = |expected: &[&str], needle: &str| {
            let mut report = Report::new();
            audit_stage_cache(&cards, seed, &mut report);
            let human = report.render_human();
            assert_eq!(codes(&report), expected, "{human}");
            assert!(human.contains(needle), "{human}");
        };
        audit(&[], "");

        for (i, row) in DERIVED.iter().enumerate() {
            // Re-key the artifact: its payload restates the real inputs, so
            // the restated derivation no longer lands on the cached key.
            let (key, bogus) = (keys[i], keys[i] ^ 0x0bad_cafe);
            assert!(corrupt_stage_cache_entry((row.name, key), (row.name, bogus)));
            audit(&[row.code], "restated");
            assert!(corrupt_stage_cache_entry((row.name, bogus), (row.name, key)));
            audit(&[], "");

            // File the next row's artifact under this row's name: the
            // payload is not this namespace's artifact type.
            let next = (i + 1) % DERIVED.len();
            let (other, other_key) = (DERIVED[next].name, keys[next]);
            assert!(corrupt_stage_cache_entry((other, other_key), (row.name, other_key)));
            audit(&[row.code], &format!("is not {} payload", row.payload));
            assert!(corrupt_stage_cache_entry((row.name, other_key), (other, other_key)));
            audit(&[], "");
        }
    }
}
