//! Ablation of DeepTune's design choices (DESIGN.md §4).
//!
//! The paper's scoring function (Eq. 3) merges dissimilarity, predicted
//! uncertainty, and (per the prose) the model prediction, after a crash
//! filter. This binary removes each ingredient in turn and reruns the
//! Nginx/Linux search, reporting the best configuration found and the
//! crash rate — the ablated variants motivate the published design.

use wayfinder_core::report::Table;
use wayfinder_core::{AlgorithmChoice, Scale, SessionBuilder};
use wf_deeptune::{DeepTuneConfig, ScoreParams};
use wf_ossim::AppId;

struct Variant {
    name: &'static str,
    score: ScoreParams,
}

fn main() {
    let scale = Scale::from_env();
    let iters = scale.search_iterations;
    println!(
        "== Ablation: DeepTune scoring-function ingredients (Nginx/Linux, {iters} iterations) =="
    );
    let variants = [
        Variant {
            name: "full (paper)",
            score: ScoreParams::default(),
        },
        Variant {
            name: "no dissimilarity (alpha=0)",
            score: ScoreParams {
                alpha: 0.0,
                ..ScoreParams::default()
            },
        },
        Variant {
            name: "no uncertainty (alpha=1)",
            score: ScoreParams {
                alpha: 1.0,
                ..ScoreParams::default()
            },
        },
        Variant {
            name: "no crash filter",
            score: ScoreParams {
                crash_threshold: 1.1,
                ..ScoreParams::default()
            },
        },
        Variant {
            name: "no prediction term",
            score: ScoreParams {
                prediction_weight: 0.0,
                ..ScoreParams::default()
            },
        },
    ];
    let mut table = Table::new(&["Variant", "Best (req/s)", "Crash rate", "Iterations"]);
    for v in &variants {
        let mut best_sum = 0.0;
        let mut crash_sum = 0.0;
        for run in 0..scale.runs {
            let mut session = SessionBuilder::new()
                .app(AppId::Nginx)
                .algorithm(AlgorithmChoice::DeepTune)
                .deeptune_config(DeepTuneConfig {
                    score: v.score,
                    ..DeepTuneConfig::default()
                })
                .runtime_params(scale.runtime_params)
                .iterations(iters)
                .seed(0xab1a ^ run as u64)
                .build()
                .expect("ablation session");
            let outcome = session.run();
            best_sum += outcome.summary.best_metric.unwrap_or(0.0);
            crash_sum += outcome.summary.crash_rate;
        }
        let n = scale.runs as f64;
        table.row(&[
            v.name.to_string(),
            format!("{:.0}", best_sum / n),
            format!("{:.2}", crash_sum / n),
            iters.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!("(means over {} run(s) per variant)", scale.runs);
}
