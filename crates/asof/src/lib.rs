#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # schemachron-asof
//!
//! A **time-travel query engine** over schema histories: every
//! `ProjectHistory` becomes a queryable temporal index answering three
//! question families the batch pipeline cannot:
//!
//! * **As-of**: the full logical schema at an arbitrary [`MonthId`]
//!   ([`AsOfIndex::schema_as_of`]);
//! * **Point-in-time diff**: the model-taxonomy diff between the schemas
//!   of any two months ([`AsOfIndex::diff_between`]);
//! * **Provenance**: for any `table[.column]`, the version that introduced
//!   it and — for dead subjects — the version that ejected it
//!   ([`AsOfIndex::provenance`]), the inverse-evolution queries of the
//!   Auge provenance line of work.
//!
//! The index stores appliable [`VersionDelta`]s plus snapshot
//! [`Checkpoint`]s every K months; a lookup binary-searches the
//! checkpoints (O(log n)) and replays at most K−1 months of deltas. Built
//! indexes live in the pipeline's stage cache under the [`CHECKPOINT`]
//! namespace ([`index_for`]).
//!
//! Presentation lives in [`render`]: shared human + JSON renderers keep
//! the CLI (`schemachron asof`), the HTTP routes
//! (`/project/{id}/schema?asof=`, `/project/{id}/diff?from=&to=`,
//! `/project/{id}/provenance/{table}[.{column}]`) and the checked-in
//! goldens byte-identical.
//!
//! [`MonthId`]: schemachron_history::MonthId

mod cached;
mod delta;
mod index;
mod provenance;
pub mod render;

pub use cached::{checkpoint_key, index_for, AsOfArtifact, CHECKPOINT};
pub use delta::VersionDelta;
pub use index::{AsOfIndex, Checkpoint, DEFAULT_K_MONTHS};
pub use provenance::{Provenance, ProvenanceEvent};
