#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # schemachron-dialect
//!
//! The SQL dialect abstraction and the **forward migration planner**: the
//! inverse of the reproduction's measurement direction.
//!
//! The rest of the workspace *mines* histories of applied migrations; this
//! crate synthesizes them. Given two logical
//! [`Schema`](schemachron_model::Schema) versions, [`plan()`] emits the DDL
//! script that evolves the first into the second — the "Automatic
//! Recommendations for Evolving Relational Databases Schema" direction — in
//! any of three SQL dialects.
//!
//! ## The split
//!
//! * The **dialect-neutral core** ([`ops`]) inverts the diff engine: it
//!   compares two schemas and emits an ordered batch of [`DiffOp`]s —
//!   logical migration operations with full payloads, ordered so that the
//!   resulting script replays cleanly (creations in foreign-key dependency
//!   order, alterations before drops, referencing tables dropped before
//!   their targets).
//! * Each [`Dialect`] owns what is genuinely dialect-specific: statement
//!   **parsing** (delegating lexing to the shared tolerant parser),
//!   **type normalization** ([`Dialect::normalize_type`]) and **statement
//!   rendering** ([`Dialect::render_op`]). An op a dialect cannot express
//!   comes back as a typed [`UnsupportedDiffOp`] — never a panic, never a
//!   stringly error.
//! * The **planner** ([`plan()`]) drives the two: it renders the op batch,
//!   falls back to a whole-table rebuild (`DROP TABLE` + `CREATE TABLE`)
//!   when a dialect refuses an in-place alteration (SQLite has no `ALTER
//!   COLUMN`), and then **verifies its own output** by replaying the
//!   rendered script through the dialect's parser and comparing the result
//!   against the (dialect-normalized) target schema. A plan that does not
//!   replay to its target is never returned.
//!
//! ## Round trip
//!
//! The planner closes the loop that makes the corpus self-verifying:
//!
//! ```text
//! parse ──▶ Schema v1 ──diff──▶ DiffOps ──plan──▶ DDL ──parse──▶ Schema v2
//! ```
//!
//! `parse → diff → plan → parse ≡ identity` holds for every generated
//! corpus transition under all three dialects (a workspace property test
//! sweeps every seed-42 project and every adjacent month pair).
//!
//! ## Extending
//!
//! New dialects implement [`Dialect`] and register in
//! [`dialect_named`]. Only `render_op` is mandatory work: parsing and
//! normalization have tolerant defaults, and the planner's rebuild fallback
//! plus replay verification come for free.

pub mod ops;
pub mod plan;
pub mod report;

mod dialects;

pub use dialects::{
    all_dialects, dialect_named, ingest_dialect, refusal_hint, Dialect, Mysql, Postgres, Sqlite,
    DIALECT_KEYWORDS,
};
pub use ops::{diff_ops, DiffOp};
pub use plan::{
    plan, MigrationPlan, PlanError, PlanOptions, PlannedStatement, UnsupportedDiffOp,
    PLAN_LOGIC_VERSION,
};
