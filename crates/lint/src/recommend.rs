//! The planner-backed recommendation pass (`R001`).
//!
//! Where the flow analyzer looks *backward* (does the history replay
//! cleanly?), this pass looks *forward*: it replays a project's history to
//! its final schema, derives the lint-clean ideal of that schema — every
//! table keyed by a primary key — and asks the migration planner for the
//! DDL that would carry the real schema to the ideal. Each planned
//! statement surfaces as an Info-level "recommended next migration" note
//! through the shared diagnostics renderer, so the recommendations ride
//! the same JSON shape (and `--jobs` determinism) as every other finding.

use schemachron_ddl::SchemaBuilder;
use schemachron_dialect::{ingest_dialect, plan, PlanOptions};
use schemachron_model::Schema;

use crate::diag::{Diagnostic, Report};

/// The lint-clean ideal of a schema: identical, except every table carries
/// a primary key. A keyless table is keyed on its `id` column when it has
/// one, else on its first column — the same convention the corpus
/// generator uses for its own key toggles.
fn ideal_of(schema: &Schema) -> Schema {
    let mut ideal = schema.clone();
    let keyless: Vec<(String, schemachron_model::Name)> = schema
        .tables()
        .filter(|t| t.primary_key.is_empty())
        .filter_map(|t| {
            let key = t
                .attribute("id")
                .or_else(|| t.attributes().first())
                .map(|a| a.name.clone())?;
            Some((t.name.as_str().to_owned(), key))
        })
        .collect();
    for (table, key) in keyless {
        if let Some(t) = ideal.table_mut(&table) {
            t.primary_key = vec![key];
        }
    }
    ideal
}

/// Replays a project's scripts to the final schema and emits one `R001`
/// note per statement of the planned migration toward the ideal schema
/// (`ideal_of`: every keyless table given a primary key). A
/// project whose final schema is already ideal emits nothing.
pub fn recommend_next_migration(
    project: &str,
    scripts: &[(String, String)],
    report: &mut Report,
) {
    let dialect = ingest_dialect();
    let mut builder = SchemaBuilder::new();
    for (_, sql) in scripts {
        let (stmts, _) = dialect.parse(sql);
        builder.apply_statements(&stmts);
    }
    let (final_schema, _) = builder.finish();
    let ideal = ideal_of(&final_schema);
    // The ideal only ever *adds* single-column primary keys, which the
    // ingestion dialect always expresses in place; a planner refusal here
    // would be a planner bug, not a project finding — stay silent rather
    // than misfile it as a diagnostic.
    let Ok(planned) = plan(&final_schema, &ideal, dialect, &PlanOptions::default()) else {
        return;
    };
    for stmt in &planned.statements {
        report.push(Diagnostic::new(
            "R001",
            project,
            format!("recommended next migration: {}", stmt.sql),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scripts(sql: &str) -> Vec<(String, String)> {
        vec![("0001_2020-01-10.sql".to_owned(), sql.to_owned())]
    }

    #[test]
    fn keyless_table_gets_a_recommended_primary_key() {
        let mut report = Report::new();
        recommend_next_migration(
            "p",
            &scripts("CREATE TABLE t (id INT, name VARCHAR(32));"),
            &mut report,
        );
        let rows: Vec<&str> = report
            .diagnostics()
            .iter()
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(
            rows,
            ["recommended next migration: ALTER TABLE `t` ADD PRIMARY KEY (`id`);"]
        );
        assert_eq!(report.notes(), 1);
        assert_eq!(report.errors(), 0);
    }

    #[test]
    fn first_column_keys_a_table_without_id() {
        let mut report = Report::new();
        recommend_next_migration(
            "p",
            &scripts("CREATE TABLE logs (ts TIMESTAMP, line TEXT);"),
            &mut report,
        );
        assert_eq!(report.notes(), 1);
        assert!(
            report.diagnostics()[0].message.contains("(`ts`)"),
            "{}",
            report.render_human()
        );
    }

    #[test]
    fn keyed_tables_recommend_nothing() {
        let mut report = Report::new();
        recommend_next_migration(
            "p",
            &scripts("CREATE TABLE t (id INT, PRIMARY KEY (id));"),
            &mut report,
        );
        assert!(report.diagnostics().is_empty(), "{}", report.render_human());
    }

    #[test]
    fn key_dropped_mid_history_resurfaces_as_a_recommendation() {
        let mut report = Report::new();
        recommend_next_migration(
            "p",
            &[
                (
                    "0001_2020-01-10.sql".to_owned(),
                    "CREATE TABLE t (id INT, PRIMARY KEY (id));".to_owned(),
                ),
                (
                    "0002_2020-02-10.sql".to_owned(),
                    "ALTER TABLE t DROP PRIMARY KEY;".to_owned(),
                ),
            ],
            &mut report,
        );
        assert_eq!(report.notes(), 1);
        assert!(
            report.diagnostics()[0].message.contains("ADD PRIMARY KEY"),
            "{}",
            report.render_human()
        );
    }
}
