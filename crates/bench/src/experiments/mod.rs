//! One module per reproduced table/figure; see the crate docs for the index.

mod ablation;
mod beyond;
mod figures;
mod forecast;
mod safety;
mod sections;
mod tables;

pub use ablation::{ablation, Ablation, SweepPoint};
pub use beyond::{co_evolution_exp, tables_exp, CoEvolutionExp, FkSplit, TablesExp};
pub use figures::{
    figure1, figure2, figure3, figure5, figure6, figure7, Figure1, Figure2, Figure3, Figure5,
    Figure6, Figure7,
};
pub use forecast::{forecast, Forecast, HorizonResult};
pub use safety::{safety_exp, FamilySplit, SafetyExp};
pub use sections::{
    family_mass, stats34, stats52, stats61, stats62, stats63, Stats34, Stats52, Stats61, Stats62,
    Stats63,
};
pub use tables::{figure4, table1, table2, Figure4, Table1, Table2};

use crate::context::ExpContext;

/// One reproduced experiment: its id and the runner that regenerates it.
pub struct Experiment {
    /// The experiment id: the `schemachron experiments <id>` argument, the
    /// `GET /experiments/{id}` path segment and the file stem of its
    /// outputs under `target/experiments/`.
    pub id: &'static str,
    /// Runs the experiment, returning its plain-text rendering and the JSON
    /// form persisted under `target/experiments/` and served by
    /// `schemachron serve`.
    pub run: fn(&ExpContext) -> (String, serde_json::Value),
}

/// A table row: `id` run through experiment function `f`.
macro_rules! experiment {
    ($id:literal, $f:ident) => {
        Experiment {
            id: $id,
            run: |ctx| {
                let r = $f(ctx);
                (r.render(), serde_json::to_value(&r).expect("serializable"))
            },
        }
    };
}

/// Every experiment, in paper order — the single registry behind the CLI,
/// the `exp_all` binary, the chaos drill and the HTTP service.
pub const EXPERIMENTS: &[Experiment] = &[
    experiment!("exp_table1", table1),
    experiment!("exp_table2", table2),
    experiment!("exp_figure1", figure1),
    experiment!("exp_figure2", figure2),
    experiment!("exp_figure3", figure3),
    experiment!("exp_figure4", figure4),
    experiment!("exp_figure5", figure5),
    experiment!("exp_figure6", figure6),
    experiment!("exp_figure7", figure7),
    experiment!("exp_stats34", stats34),
    experiment!("exp_stats52", stats52),
    experiment!("exp_stats61", stats61),
    experiment!("exp_stats62", stats62),
    experiment!("exp_stats63", stats63),
    experiment!("exp_ablation", ablation),
    experiment!("exp_tables", tables_exp),
    experiment!("exp_coevolution", co_evolution_exp),
    experiment!("exp_forecast", forecast),
    experiment!("exp_safety", safety_exp),
];

/// The valid experiment ids, in paper order (the ids of [`EXPERIMENTS`]).
pub const EXPERIMENT_IDS: [&str; EXPERIMENTS.len()] = {
    let mut ids = [""; EXPERIMENTS.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = EXPERIMENTS[i].id;
        i += 1;
    }
    ids
};

/// Runs experiment `id` against `ctx` (see [`Experiment::run`]). `None`
/// for an unknown id.
pub fn run_experiment(id: &str, ctx: &ExpContext) -> Option<(String, serde_json::Value)> {
    EXPERIMENTS
        .iter()
        .find(|e| e.id == id)
        .map(|e| (e.run)(ctx))
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn every_id_runs_and_serializes() {
        let ctx = ExpContext::new(crate::DEFAULT_SEED);
        for id in EXPERIMENT_IDS {
            let (text, json) = run_experiment(id, &ctx).expect(id);
            assert!(!text.is_empty(), "{id}: empty rendering");
            assert!(
                matches!(json, serde_json::Value::Object(_)),
                "{id}: non-object JSON"
            );
        }
        assert!(run_experiment("exp_nope", &ctx).is_none());
    }
}
