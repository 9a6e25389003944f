//! The checkpointed as-of index: O(log n) lookup of any month's schema.
//!
//! # Layout and cost model
//!
//! The index stores the project's version transitions as appliable
//! [`VersionDelta`]s plus **snapshot checkpoints** of the full schema at
//! months `birth, birth + K, birth + 2K, …` (K configurable, default
//! [`DEFAULT_K_MONTHS`]). A lookup for month `m` binary-searches the
//! checkpoint list for the greatest checkpoint month `c ≤ m` — O(log n) —
//! and replays the deltas in `(c, m]`. Because the next checkpoint sits at
//! `c + K`, the replay window spans at most `K − 1` months of deltas; K
//! therefore dials memory (checkpoint count) against lookup latency (replay
//! length), with `K = usize::MAX` degenerating to a single birth checkpoint
//! and full replay.
//!
//! Answers are shared, not copied: every month between two consecutive
//! versions has the *same* schema, so lookups return [`Arc<Schema>`] and the
//! index memoizes each materialized replay state (keyed by how many deltas
//! are folded in — at most one entry per version). A warm lookup is a
//! binary search plus an `Arc` clone; the `K − 1`-month replay is paid only
//! the first time a state is materialized.

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

use schemachron_history::{MonthId, ProjectHistory};
use schemachron_model::{diff, Schema, SchemaDiff};

use crate::delta::VersionDelta;

/// Default checkpoint spacing in months: one snapshot per year of history.
pub const DEFAULT_K_MONTHS: usize = 12;

/// One snapshot checkpoint: the full schema as of `month`.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// The month this snapshot is valid for (inclusive).
    pub month: MonthId,
    /// Number of leading deltas folded into `schema` — replay for a query
    /// month `m ≥ month` resumes at this delta index.
    pub deltas_applied: usize,
    /// The full schema as of `month`, shared with every lookup that lands
    /// exactly on this replay state.
    pub schema: Arc<Schema>,
}

/// A queryable temporal index over one project's schema history.
#[derive(Debug)]
pub struct AsOfIndex {
    project: String,
    k_months: usize,
    start: MonthId,
    months: usize,
    deltas: Vec<VersionDelta>,
    checkpoints: Vec<Checkpoint>,
    /// Materialized replay states keyed by how many leading deltas they fold
    /// in (a month's schema is fully determined by that count). At most one
    /// entry per version plus the pre-birth empty state, so the memo is
    /// bounded by the delta list — not by lifespan length or query volume.
    memo: RwLock<HashMap<usize, Arc<Schema>>>,
}

impl AsOfIndex {
    /// Builds the index from a project history with checkpoints every
    /// `k_months` (clamped to at least 1). Returns `None` when the history
    /// retains no schema versions to index.
    pub fn build(history: &ProjectHistory, k_months: usize) -> Option<AsOfIndex> {
        let schema_history = history.schema_history()?;
        let versions = schema_history.versions();
        if versions.is_empty() {
            return None;
        }
        let k_months = k_months.max(1);

        let mut deltas = Vec::with_capacity(versions.len());
        let mut prev = Schema::default();
        for version in versions {
            deltas.push(VersionDelta::between(&prev, version));
            prev.clone_from(&version.schema);
        }

        // Checkpoints at birth, birth+K, …, capped at the last delta month
        // (later checkpoints would duplicate the final schema for free
        // replays anyway). `checked_add` guards K = usize::MAX.
        let birth = deltas[0].month;
        let last = deltas[deltas.len() - 1].month;
        let step = i32::try_from(k_months).unwrap_or(i32::MAX);
        let mut checkpoints = Vec::new();
        let mut schema = Schema::default();
        let mut applied = 0;
        let mut at = birth;
        loop {
            while applied < deltas.len() && deltas[applied].month <= at {
                deltas[applied].apply(&mut schema);
                applied += 1;
            }
            checkpoints.push(Checkpoint {
                month: at,
                deltas_applied: applied,
                schema: Arc::new(schema.clone()),
            });
            match at.0.checked_add(step) {
                Some(next) if next <= last.0 => at = MonthId(next),
                _ => break,
            }
        }

        Some(AsOfIndex {
            project: history.name().to_owned(),
            k_months,
            start: history.start(),
            months: history.month_count(),
            deltas,
            checkpoints,
            memo: RwLock::new(HashMap::new()),
        })
    }

    /// The indexed project's name.
    pub fn project(&self) -> &str {
        &self.project
    }

    /// The checkpoint spacing the index was built with.
    pub fn k_months(&self) -> usize {
        self.k_months
    }

    /// First month of the project's observed lifespan (the PUP start).
    pub fn start(&self) -> MonthId {
        self.start
    }

    /// Number of months in the observed lifespan.
    pub fn months(&self) -> usize {
        self.months
    }

    /// Last month of the observed lifespan (inclusive).
    pub fn last_month(&self) -> MonthId {
        self.start.plus(self.months.saturating_sub(1) as i32)
    }

    /// Whether `m` falls inside the observed lifespan.
    pub fn in_lifespan(&self, m: MonthId) -> bool {
        m >= self.start && m <= self.last_month()
    }

    /// Number of stored snapshot checkpoints.
    pub fn checkpoint_count(&self) -> usize {
        self.checkpoints.len()
    }

    /// Number of stored version deltas.
    pub fn delta_count(&self) -> usize {
        self.deltas.len()
    }

    /// The full logical schema as of month `m`: the state after every
    /// version committed in or before `m`. Returns `None` outside the
    /// observed lifespan; months inside the lifespan but before the first
    /// schema version yield the empty schema.
    ///
    /// Cost: one binary search plus an `Arc` clone once the queried replay
    /// state has been materialized (by a checkpoint or an earlier lookup);
    /// first contact with a state replays at most `K − 1` months of deltas
    /// from the nearest checkpoint at or before `m`.
    pub fn schema_as_of(&self, m: MonthId) -> Option<Arc<Schema>> {
        if !self.in_lifespan(m) {
            return None;
        }
        // The schema at m is fully determined by how many deltas precede it.
        let upto = self.deltas.partition_point(|d| d.month <= m);
        {
            let memo = self.memo.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(hit) = memo.get(&upto) {
                return Some(Arc::clone(hit));
            }
        }
        let at = self.checkpoints.partition_point(|cp| cp.month <= m);
        let shared = match at.checked_sub(1) {
            // Inside the lifespan but before the first version: no schema yet.
            None => Arc::new(Schema::default()),
            Some(i) if self.checkpoints[i].deltas_applied == upto => {
                // Checkpoint-aligned state: share the snapshot itself.
                Arc::clone(&self.checkpoints[i].schema)
            }
            Some(i) => {
                let mut schema = (*self.checkpoints[i].schema).clone();
                for delta in &self.deltas[self.checkpoints[i].deltas_applied..upto] {
                    delta.apply(&mut schema);
                }
                Arc::new(schema)
            }
        };
        self.memo
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(upto)
            .or_insert_with(|| Arc::clone(&shared));
        Some(shared)
    }

    /// Naive baseline: the schema as of `m` by replaying **every** delta
    /// from birth, ignoring checkpoints. Same result as
    /// [`AsOfIndex::schema_as_of`] by construction; exists as the
    /// property-test oracle and the cold side of the `speed_gates` as-of gate.
    pub fn schema_by_full_replay(&self, m: MonthId) -> Option<Schema> {
        if !self.in_lifespan(m) {
            return None;
        }
        let mut schema = Schema::default();
        for delta in &self.deltas {
            if delta.month > m {
                break;
            }
            delta.apply(&mut schema);
        }
        Some(schema)
    }

    /// The point-in-time diff between the schemas as of two months (in
    /// `schemachron-model`'s diff taxonomy). `None` when either month is
    /// outside the lifespan.
    pub fn diff_between(&self, from: MonthId, to: MonthId) -> Option<SchemaDiff> {
        let old = self.schema_as_of(from)?;
        let new = self.schema_as_of(to)?;
        Some(diff(&old, &new))
    }

    /// The stored version deltas, chronological — the raw material for
    /// provenance queries.
    pub(crate) fn deltas(&self) -> &[VersionDelta] {
        &self.deltas
    }

    /// The final schema (the last version's state).
    pub(crate) fn final_schema(&self) -> Schema {
        // The last checkpoint has every delta up to its month applied;
        // replay whatever tail remains.
        let Some(last) = self.checkpoints.last() else {
            return Schema::default();
        };
        let mut schema = (*last.schema).clone();
        for delta in &self.deltas[last.deltas_applied..] {
            delta.apply(&mut schema);
        }
        schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemachron_history::{Date, ProjectHistoryBuilder};

    fn history() -> ProjectHistory {
        let mut b = ProjectHistoryBuilder::new("demo");
        b.snapshot(Date::new(2020, 1, 10), "CREATE TABLE t (a INT);");
        b.snapshot(Date::new(2020, 4, 2), "CREATE TABLE t (a INT, b INT);");
        b.snapshot(
            Date::new(2021, 2, 20),
            "CREATE TABLE t (a INT, b INT); CREATE TABLE u (x INT);",
        );
        b.source_commit(Date::new(2019, 11, 5), 10.0);
        b.source_commit(Date::new(2021, 6, 5), 10.0);
        b.build()
    }

    #[test]
    fn checkpoints_every_k_months_from_birth() {
        let h = history();
        let idx = AsOfIndex::build(&h, 12).unwrap();
        // Birth 2020-01, last version 2021-02 → checkpoints at 2020-01 and
        // 2021-01.
        assert_eq!(idx.checkpoint_count(), 2);
        let one = AsOfIndex::build(&h, usize::MAX).unwrap();
        assert_eq!(one.checkpoint_count(), 1, "K=MAX keeps only the birth snapshot");
    }

    #[test]
    fn as_of_reports_the_state_after_each_version() {
        let h = history();
        let idx = AsOfIndex::build(&h, 12).unwrap();
        // PUP starts at the earliest source commit, before any version.
        assert_eq!(idx.start(), MonthId::from_ym(2019, 11));
        let empty = idx.schema_as_of(MonthId::from_ym(2019, 12)).unwrap();
        assert!(empty.is_empty(), "lifespan months before birth are empty");
        let v1 = idx.schema_as_of(MonthId::from_ym(2020, 2)).unwrap();
        assert_eq!(v1.table_count(), 1);
        assert_eq!(v1.attribute_count(), 1);
        let last = idx.schema_as_of(idx.last_month()).unwrap();
        assert_eq!(last.table_count(), 2);
        // Outside the lifespan on both sides: no answer.
        assert!(idx.schema_as_of(MonthId::from_ym(2019, 10)).is_none());
        assert!(idx.schema_as_of(MonthId::from_ym(2021, 7)).is_none());
    }

    #[test]
    fn checkpoint_lookup_equals_full_replay_for_every_month() {
        let h = history();
        for k in [1usize, 3, 12, usize::MAX] {
            let idx = AsOfIndex::build(&h, k).unwrap();
            let mut m = idx.start();
            while m <= idx.last_month() {
                assert_eq!(
                    idx.schema_as_of(m).as_deref(),
                    idx.schema_by_full_replay(m).as_ref(),
                    "K={k} month {m}"
                );
                m = m.plus(1);
            }
        }
    }

    #[test]
    fn repeated_lookups_share_one_materialized_schema() {
        let h = history();
        let idx = AsOfIndex::build(&h, 12).unwrap();
        let a = idx.schema_as_of(MonthId::from_ym(2020, 6)).unwrap();
        let b = idx.schema_as_of(MonthId::from_ym(2020, 6)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "warm lookups are Arc clones, not replays");
        // Months between the same two versions resolve to the same state.
        let c = idx.schema_as_of(MonthId::from_ym(2020, 9)).unwrap();
        assert!(Arc::ptr_eq(&a, &c), "same replay state, same allocation");
    }

    #[test]
    fn diff_between_months_uses_the_model_taxonomy() {
        let h = history();
        let idx = AsOfIndex::build(&h, 12).unwrap();
        let d = idx
            .diff_between(MonthId::from_ym(2020, 2), MonthId::from_ym(2021, 3))
            .unwrap();
        assert_eq!(d.tables_added.len(), 1, "u appeared");
        assert_eq!(d.attribute_change_count(), 2, "b injected, x born");
        // Reverse direction inverts the story.
        let rev = idx
            .diff_between(MonthId::from_ym(2021, 3), MonthId::from_ym(2020, 2))
            .unwrap();
        assert_eq!(rev.tables_dropped.len(), 1);
    }

    #[test]
    fn no_schema_history_means_no_index() {
        let mut b = ProjectHistoryBuilder::new("src-only");
        b.source_commit(Date::new(2020, 1, 1), 5.0);
        assert!(AsOfIndex::build(&b.build(), 12).is_none());
    }
}
