//! Regenerates every table and figure of the paper in one run, plus the
//! Figure 3 SVG gallery (one file per pattern exemplar). A single
//! experiment is `schemachron experiments <id>`.

use schemachron_bench::context::ExpContext;
use schemachron_bench::experiments::{figure3, EXPERIMENTS};
use schemachron_bench::{emit, DEFAULT_SEED};

fn main() {
    let ctx = ExpContext::new(DEFAULT_SEED);
    for experiment in EXPERIMENTS {
        let (text, json) = (experiment.run)(&ctx);
        emit(experiment.id, &text, &json);
        println!("{}", "=".repeat(78));
    }

    let dir = std::path::Path::new("target/experiments/figure3");
    if std::fs::create_dir_all(dir).is_ok() {
        let svg = schemachron_chart::svg::SvgChart::default();
        for (pattern, name, _) in &figure3(&ctx).charts {
            let exemplar = ctx
                .corpus
                .projects()
                .iter()
                .find(|p| &p.card.name == name)
                .expect("exemplar exists");
            let file = dir.join(format!("{}.svg", pattern.name().replace(' ', "_")));
            if std::fs::write(&file, svg.render(&exemplar.history)).is_ok() {
                println!("wrote {}", file.display());
            }
        }
    }
}
