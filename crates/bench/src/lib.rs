#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # schemachron-bench
//!
//! The experiment harness: one module per **table and figure** of the EDBT
//! 2025 paper, each regenerating the published artifact from the calibrated
//! corpus through the full measurement pipeline.
//!
//! Every experiment is a library function returning a serializable result
//! with a `render()` method, registered once in
//! [`experiments::EXPERIMENTS`]. `schemachron experiments <id>` runs one;
//! the `exp_all` binary runs them all and persists their outputs under
//! `target/experiments/`. The `speed_gates` binary checks the timing
//! properties of the stage cache, the as-of checkpoints and the worker
//! pool.
//!
//! | id  | paper artifact | function |
//! |-----|----------------|----------|
//! | T1  | Table 1 — quantization label counts | [`experiments::table1`] |
//! | T2  | Table 2 — exceptions & overlaps | [`experiments::table2`] |
//! | F1  | Fig. 1 — nomenclature chart | [`experiments::figure1`] |
//! | F2  | Fig. 2 — Spearman correlations | [`experiments::figure2`] |
//! | F3  | Fig. 3 — example pattern lines | [`experiments::figure3`] |
//! | F4  | Fig. 4 — pattern characteristics | [`experiments::figure4`] |
//! | F5  | Fig. 5 — decision-tree classification | [`experiments::figure5`] |
//! | F6  | Fig. 6 — label-space coverage | [`experiments::figure6`] |
//! | F7  | Fig. 7 — P(pattern \| birth month) | [`experiments::figure7`] |
//! | S34 | §3.4 — statistical properties | [`experiments::stats34`] |
//! | S52 | §5.2 — cohesion (MDC) | [`experiments::stats52`] |
//! | S61 | §6.1 — activity medians | [`experiments::stats61`] |
//! | S62 | §6.2 — rigidity probabilities | [`experiments::stats62`] |
//! | S63 | §6.3 — change-type mixture | [`experiments::stats63`] |

pub mod context;
pub mod experiments;
pub mod report;

/// The default corpus seed used by all experiments (and the paper-facing
/// numbers in EXPERIMENTS.md).
pub const DEFAULT_SEED: u64 = 42;

use std::io::Write as _;

/// Prints an experiment's rendering and persists both the rendering and a
/// JSON form under `target/experiments/`.
pub fn emit(id: &str, rendered: &str, json: &serde_json::Value) {
    println!("{rendered}");
    let dir = std::path::Path::new("target/experiments");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{id}.txt")), rendered);
        if let Ok(mut f) = std::fs::File::create(dir.join(format!("{id}.json"))) {
            let _ = writeln!(
                f,
                "{}",
                serde_json::to_string_pretty(json).unwrap_or_default()
            );
        }
    }
}
