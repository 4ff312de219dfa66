//! Fig. 8: DeepTune's update time vs per-application test time.
//!
//! "Evaluating a configuration dominates the search process: it takes on
//! average 60-80 s ... the execution time of an iteration of DeepTune
//! takes less than a second."

use crate::scale::Scale;
use crate::session::{AlgorithmChoice, SessionBuilder};
use wf_ossim::AppId;

/// The Fig. 8 dataset.
#[derive(Clone, Debug)]
pub struct Fig8Result {
    /// Mean real seconds of one DeepTune update (propose + observe).
    pub deeptune_update_s: f64,
    /// Std-dev of the update time.
    pub deeptune_update_std_s: f64,
    /// Per-application mean virtual test time (build/boot/bench).
    pub test_time_s: Vec<(AppId, f64)>,
}

/// Measures both sides of the loop-time breakdown.
pub fn fig8(scale: &Scale, seed: u64) -> Fig8Result {
    // DeepTune update times, measured on a live Nginx session.
    let iters = scale.search_iterations.clamp(15, 40);
    let mut session = SessionBuilder::new()
        .app(AppId::Nginx)
        .algorithm(AlgorithmChoice::DeepTune)
        .runtime_params(scale.runtime_params)
        .iterations(iters)
        .seed(seed)
        // Figure regenerations replay the paper's sequential pipeline.
        .workers(1)
        .build()
        .expect("fig8 session");
    let _ = session.run();
    // One-wide waves: each wave's ask + tell is one update.
    let updates = session.platform().algo_seconds();
    let mean = updates.iter().sum::<f64>() / updates.len() as f64;
    let std = (updates.iter().map(|u| (u - mean) * (u - mean)).sum::<f64>() / updates.len() as f64)
        .sqrt();

    // Test times per application, from short random sessions (virtual
    // seconds — this is what a real deployment would measure).
    let mut test_time_s = Vec::new();
    for app in AppId::ALL {
        let mut s = SessionBuilder::new()
            .app(app)
            .algorithm(AlgorithmChoice::Random)
            .runtime_params(scale.runtime_params)
            .iterations(12)
            .seed(seed ^ 0xf18)
            .workers(1)
            .build()
            .expect("fig8 probe session");
        let _ = s.run();
        let records = s.platform().history();
        let mean_t =
            records.records().iter().map(|r| r.duration_s).sum::<f64>() / records.len() as f64;
        test_time_s.push((app, mean_t));
    }
    Fig8Result {
        deeptune_update_s: mean,
        deeptune_update_std_s: std,
        test_time_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_dominates_the_loop() {
        let r = fig8(&Scale::tiny(), 6);
        // DeepTune updates are sub-second even in debug builds.
        assert!(r.deeptune_update_s < 1.0, "update {}s", r.deeptune_update_s);
        for (app, t) in &r.test_time_s {
            // Crashes drag some means below the 60-80 s success band, but
            // evaluation must still dwarf the model update.
            assert!(*t > 30.0 && *t < 100.0, "{app}: mean test time {t}s");
            assert!(*t > r.deeptune_update_s * 30.0);
        }
    }
}
