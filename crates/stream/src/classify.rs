//! Live re-classification of a streamed commit chain through the
//! incremental stage cache.
//!
//! Every acknowledged append re-derives the project's time-pattern from its
//! full commit prefix, cached under the [`STREAM`] namespace and keyed by
//! the WAL's **chain checksum** — already a content hash of the entire
//! commit history — so one appended commit re-runs exactly one
//! classification and every earlier prefix stays a cache hit. DESIGN.md
//! "Stage-cache namespaces" lists its key input, fault site and lint rule.

use std::sync::Arc;

use schemachron_core::metrics::TimeMetrics;
use schemachron_core::patterns::{classify, classify_nearest};
use schemachron_core::quantize::Labels;
use schemachron_corpus::pipeline::{get_or_build, Namespace, StageKey};
use schemachron_hash::{fnv1a, FNV_OFFSET};
use schemachron_history::{Date, ProjectHistoryBuilder};

/// The streaming subsystem's stage-cache namespace. Bump the version when
/// the commit→pattern derivation changes. Builds are never faulted.
pub const STREAM: Namespace = Namespace {
    name: "stream-classify",
    version: 1,
    fault_site: None,
};

/// The [`STREAM`] namespace's name, for counter snapshots.
pub const STREAM_STAGE: &str = STREAM.name;

/// The pattern label of a project with no classifiable schema activity.
pub const UNCLASSIFIED: &str = "unclassified";

/// A cached streamed classification plus the provenance of its own cache
/// key, so the lint auditor can re-derive the key from first principles.
#[derive(Debug)]
pub struct StreamArtifact {
    /// The WAL chain checksum of the classified commit prefix.
    pub chain_crc: u64,
    /// How many commits that prefix holds.
    pub commit_count: u64,
    /// The derived pattern label (a strict pattern name, `~name` for a
    /// nearest-pattern fallback, or [`UNCLASSIFIED`]).
    pub pattern: String,
}

/// Derives the cache key of a streamed classification: the [`STREAM`]
/// chain link over the commit-count-salted chain checksum. Any change to
/// any commit in the prefix lands on a different key.
pub fn stream_key(chain_crc: u64, commit_count: u64) -> StageKey {
    let salted = fnv1a(FNV_OFFSET, &commit_count.to_le_bytes());
    STREAM.key(fnv1a(salted, &chain_crc.to_le_bytes()))
}

/// Classifies a commit prefix outright (no cache): builds the history and
/// derives the pattern label. This is the exact derivation `schemachron
/// analyze` applies to a finished project, so a streamed classification
/// can never disagree with a batch rebuild of the same commits.
pub fn classify_commits(project: &str, commits: &[(Date, String)]) -> String {
    let mut builder = ProjectHistoryBuilder::new(project);
    for (date, sql) in commits {
        builder.migration(*date, sql.clone());
    }
    let history = builder.build();
    let Some(metrics) = TimeMetrics::from_project(&history) else {
        return UNCLASSIFIED.to_owned();
    };
    let labels = Labels::from_metrics(&metrics);
    match classify(&labels) {
        Some(p) => p.name().to_owned(),
        None => {
            let (nearest, _violations) = classify_nearest(&labels);
            format!("~{}", nearest.name())
        }
    }
}

/// The classification for a commit prefix, served from the stage cache
/// when already derived. `chain_crc` must be the WAL chain checksum of
/// exactly `commits` — the store passes its own; batch rebuilds recompute
/// it with [`crate::wal::record_crc`].
pub fn classification_for(
    project: &str,
    commits: &[(Date, String)],
    chain_crc: u64,
) -> Arc<StreamArtifact> {
    let commit_count = commits.len() as u64;
    let built = get_or_build(&STREAM, stream_key(chain_crc, commit_count), || {
        Some(StreamArtifact {
            chain_crc,
            commit_count,
            pattern: classify_commits(project, commits),
        })
    });
    let Some(artifact) = built else {
        unreachable!("stream builds always publish an artifact")
    };
    artifact
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    fn commits(n: usize) -> Vec<(Date, String)> {
        (0..n)
            .map(|i| {
                let date = Date::from_str(&format!("2020-{:02}-10", i + 1)).unwrap();
                (date, format!("ALTER TABLE t ADD COLUMN c{i} INT;"))
            })
            .collect()
    }

    #[test]
    fn keys_chain_from_content_and_count() {
        let k = stream_key(7, 3);
        assert_ne!(k, stream_key(8, 3), "chain checksum must matter");
        assert_ne!(k, stream_key(7, 4), "commit count must matter");
        assert_eq!(k, stream_key(7, 3), "keys are deterministic");
    }

    #[test]
    fn warm_lookup_returns_the_cached_allocation() {
        let mut history = vec![(
            Date::from_str("2020-01-10").unwrap(),
            "CREATE TABLE t (a INT);".to_owned(),
        )];
        history.extend(commits(2));
        // A private chain checksum so this test never races others.
        let crc = 0x5717_1e57_0000_0001;
        let cold = classification_for("stream-classify-test", &history, crc);
        let warm = classification_for("stream-classify-test", &history, crc);
        assert!(Arc::ptr_eq(&cold, &warm), "second lookup must be a cache hit");
        assert_eq!(cold.commit_count, 3);
        assert_eq!(cold.chain_crc, crc);
        assert!(!cold.pattern.is_empty());
    }

    #[test]
    fn empty_history_is_unclassified() {
        assert_eq!(classify_commits("none", &[]), UNCLASSIFIED);
    }
}
