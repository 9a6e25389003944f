#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # schemachron-safety
//!
//! Static safety analysis for schema migrations: an abstract interpreter
//! over DDL histories and migration plans that answers, **before anything
//! executes**, two questions about every [`DiffOp`]:
//!
//! 1. *Can it destroy data?* Every op is classified into a three-valued
//!    lattice ([`Safety`]): `Lossless` (invertible from the schema alone),
//!    `Recoverable` (invertible given provenance — e.g. a narrowing cast
//!    whose truncated values are parked in a side table), or `Lossy`
//!    (drops with no inverse).
//! 2. *Can it be undone?* For every non-`Lossy` op the analyzer
//!    synthesizes the inverse `DiffOp` batch ([`invert`]) and
//!    machine-checks it by replay: applying the op and then its inverse
//!    must reproduce the pre-state's normalized schema fingerprint.
//!
//! The interpreter additionally tracks **column-level lineage**
//! ([`lineage`]) through renames (a drop paired with a same-typed add),
//! type changes, and table rebuilds, which is what lets a rename-shaped
//! `drop_column` be reclassified from `Lossy` to `Recoverable`.
//!
//! Analyses are pure functions of a project's dated DDL commits. The
//! [`cached`] module memoizes them in the process-wide stage cache under
//! the [`SAFETY`] namespace, keyed from the project's history stage key —
//! audited independently by the lint H-pass. [`render`] provides the single human/JSON shape shared
//! byte-for-byte by the CLI `safety` command and the serve
//! `GET /project/{id}/safety` route.
//!
//! [`DiffOp`]: schemachron_dialect::DiffOp

pub mod analyze;
pub mod cached;
pub mod classify;
pub mod invert;
pub mod lineage;
pub mod locate;
pub mod render;

pub use analyze::{analyze, analyze_history, OpSafety, SafetyAnalysis, Transition};
pub use cached::{safety_for, safety_key, SafetyArtifact, SAFETY};
pub use classify::{classify_op, classify_plan, Classification, PlanSafety, Safety};
pub use invert::{apply_op, fingerprint, inverse_matches_class, inverse_op};
pub use lineage::{column_lineage, ColumnRecord, LineageSummary};
