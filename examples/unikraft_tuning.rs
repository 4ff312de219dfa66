//! §4.4's Unikraft experiment in miniature: tune the 33-parameter
//! Unikraft+Nginx image (search space ≈ 3.7e13) and watch DeepTune find
//! the coherent configuration that unlocks the unikernel's ~5x headroom.
//!
//! ```sh
//! cargo run --release --example unikraft_tuning
//! ```

use wayfinder::prelude::*;

fn main() {
    let budget_s = 3_600.0;
    let mut session = SessionBuilder::new()
        .os(OsFlavor::Unikraft)
        .app(AppId::Nginx)
        .algorithm(AlgorithmChoice::DeepTune)
        .time_budget_s(budget_s)
        .seed(3)
        .build()
        .expect("valid session");

    let space_size = session.platform().space().log10_cardinality();
    println!(
        "tuning Unikraft+Nginx: 33 parameters, 10^{space_size:.1} permutations, {budget_s:.0}s budget"
    );

    // Step wave by wave to print the exploration-vs-exploitation phases
    // the paper describes for Fig. 9.
    let mut last_report = 0.0;
    while !session.done() {
        let wave = session.platform_mut().step_wave();
        let t = wave.last().expect("a wave evaluates >= 1").finished_at_s;
        if t - last_report > 600.0 {
            last_report = t;
            let best = session
                .platform()
                .history()
                .best(session.platform().direction())
                .and_then(|r| r.metric)
                .unwrap_or(0.0);
            println!("  t={:>5.0}s  best so far {:>7.0} req/s", t, best);
        }
    }
    let summary = session.platform().summary();
    println!(
        "done: best {:.0} req/s (default ~9800; paper reaches ~5x), crash rate {:.0}%",
        summary.best_metric.unwrap_or(0.0),
        summary.crash_rate * 100.0
    );
}
