//! Fig. 7: per-iteration cost of DeepTune vs a Unicorn-style causal
//! search on a synthetic dataset.
//!
//! "As Unicorn cannot scale to the size of Linux's configuration, we
//! create a synthetic dataset with known local and global maxima ... with
//! a total number of parameters that match those used in the original
//! Unicorn paper." Unicorn's evaluation targets systems with tens of
//! options; the synthetic space here has 30 integer parameters, a global
//! optimum, and a decoy local optimum.

use crate::scale::Scale;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wf_configspace::{ConfigSpace, Configuration, Encoder, ParamKind, ParamSpec, Stage};
use wf_deeptune::{DeepTune, DeepTuneConfig};
use wf_jobfile::Direction;
use wf_search::host_clock::timed;
use wf_search::{CausalSearch, Observation, SamplePolicy, SearchAlgorithm, SearchContext};

/// One measurement of an algorithm's per-iteration cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScalingPoint {
    /// Iteration index.
    pub iteration: usize,
    /// Host seconds of this iteration's `propose` + `observe`.
    pub time_s: f64,
    /// Live bytes attributed to the algorithm.
    pub memory_bytes: usize,
}

/// The Fig. 7 dataset.
#[derive(Clone, Debug)]
pub struct Fig7Result {
    /// Unicorn-style causal search costs.
    pub unicorn: Vec<ScalingPoint>,
    /// DeepTune costs.
    pub deeptune: Vec<ScalingPoint>,
}

/// The synthetic space: 30 integer parameters in [0, 100].
fn synthetic_space() -> ConfigSpace {
    let mut s = ConfigSpace::new();
    for i in 0..30 {
        s.add(ParamSpec::new(
            format!("p{i}"),
            ParamKind::int(0, 100),
            Stage::Runtime,
        ));
    }
    s
}

/// Objective with a known global maximum (p0 = 80, p1 = 20) and a decoy
/// local maximum (p0 = 20, p1 = 80).
fn objective(c: &Configuration, space: &ConfigSpace) -> f64 {
    let v = |name: &str| c.by_name(space, name).unwrap().as_f64();
    let bump = |x: f64, y: f64, cx: f64, cy: f64, h: f64| {
        let d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
        h * (-d2 / 800.0).exp()
    };
    let (x, y) = (v("p0"), v("p1"));
    bump(x, y, 80.0, 20.0, 100.0) + bump(x, y, 20.0, 80.0, 60.0)
}

/// Drives one algorithm over the synthetic dataset, recording costs.
fn drive(alg: &mut dyn SearchAlgorithm, iterations: usize, seed: u64) -> Vec<ScalingPoint> {
    let space = synthetic_space();
    let encoder = Encoder::new(&space);
    let policy = SamplePolicy::Uniform;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut history: Vec<Observation> = Vec::new();
    let mut out = Vec::with_capacity(iterations);
    for i in 0..iterations {
        let ctx = SearchContext {
            space: &space,
            encoder: &encoder,
            direction: Direction::Maximize,
            policy: &policy,
            history: &history,
            iteration: i,
        };
        // One span per iteration, the same for every algorithm: propose,
        // the (negligible) synthetic measurement, observe.
        let (obs, time_s) = timed(|| {
            let c = alg.propose(&ctx, &mut rng);
            let y = objective(&c, &space);
            let obs = Observation::ok(c, y, 1.0);
            alg.observe(&ctx, &obs);
            obs
        });
        history.push(obs);
        out.push(ScalingPoint {
            iteration: i,
            time_s,
            memory_bytes: alg.stats().memory_bytes,
        });
    }
    out
}

/// Runs the scalability comparison.
pub fn fig7(scale: &Scale, seed: u64) -> Fig7Result {
    // Fig. 7 measures Unicorn *as published*: column statistics rescanned
    // over the full history on every rebuild. The platform's `causal`
    // algorithm defaults to the bit-identical incremental-sums variant;
    // `with_scratch_stats(true)` pins the paper's cost profile here so
    // the figure keeps showing the blow-up the paper critiques.
    let mut unicorn = CausalSearch::new().with_scratch_stats(true);
    let unicorn_points = drive(&mut unicorn, scale.fig7_iterations, seed);
    let mut deeptune = DeepTune::new(DeepTuneConfig {
        warmup: 8,
        epochs_per_observe: 2,
        ..DeepTuneConfig::default()
    });
    let deeptune_points = drive(&mut deeptune, scale.fig7_iterations, seed);
    Fig7Result {
        unicorn: unicorn_points,
        deeptune: deeptune_points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unicorn_costs_blow_up_while_deeptune_stays_flat() {
        let r = fig7(
            &Scale {
                fig7_iterations: 40,
                ..Scale::tiny()
            },
            4,
        );
        let n = r.unicorn.len();
        assert_eq!(n, 40);
        // Memory: Unicorn grows superlinearly (cache + data), DeepTune
        // linearly (replay buffer only).
        let u_growth = r.unicorn[n - 1].memory_bytes as f64 / r.unicorn[n / 2].memory_bytes as f64;
        let d_growth =
            r.deeptune[n - 1].memory_bytes as f64 / r.deeptune[n / 2].memory_bytes as f64;
        assert!(
            u_growth > d_growth,
            "unicorn {u_growth:.2}x vs deeptune {d_growth:.2}x"
        );
        // DeepTune's model dominates its memory; doubling the data must
        // not double its footprint.
        assert!(d_growth < 1.5, "deeptune growth {d_growth}");
        // Late-stage Unicorn iterations cost more than early ones.
        let early: f64 = r.unicorn[5..15].iter().map(|p| p.time_s).sum();
        let late: f64 = r.unicorn[n - 10..].iter().map(|p| p.time_s).sum();
        assert!(late > early, "late {late} vs early {early}");
    }
}
