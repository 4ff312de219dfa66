//! Contract tests for the batch ask/tell protocol: every algorithm's
//! `propose_batch(n, ..)` returns exactly `n` in-space candidates,
//! model-driven and sweep algorithms never duplicate within a batch, and
//! `observe_batch` is equivalent to `n` sequential `observe` calls for
//! the history-light algorithms.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use wf_configspace::{ConfigSpace, Encoder, ParamKind, ParamSpec, Stage, Value};
use wf_jobfile::Direction;
use wf_search::{
    BayesOpt, CausalSearch, GridSearch, Observation, RandomSearch, SamplePolicy, SearchAlgorithm,
    SearchContext,
};

fn space() -> ConfigSpace {
    let mut s = ConfigSpace::new();
    s.add(ParamSpec::new("flag", ParamKind::Bool, Stage::Runtime));
    s.add(
        ParamSpec::new("size", ParamKind::log_int(1, 65536), Stage::Runtime)
            .with_default(Value::Int(128)),
    );
    s.add(ParamSpec::new(
        "mode",
        ParamKind::choices(vec!["a", "b", "c", "d"]),
        Stage::Runtime,
    ));
    s.add(ParamSpec::new(
        "level",
        ParamKind::int(0, 1000),
        Stage::Runtime,
    ));
    s
}

/// Synthetic observation: a smooth objective over the `level` axis.
fn observe_value(space: &ConfigSpace, c: &wf_configspace::Configuration) -> f64 {
    c.by_name(space, "level").unwrap().as_f64()
}

struct Fixture {
    space: ConfigSpace,
    encoder: Encoder,
    policy: SamplePolicy,
}

impl Fixture {
    fn new() -> Self {
        let space = space();
        let encoder = Encoder::new(&space);
        Fixture {
            space,
            encoder,
            policy: SamplePolicy::Uniform,
        }
    }

    fn ctx<'a>(&'a self, history: &'a [Observation], iteration: usize) -> SearchContext<'a> {
        SearchContext {
            space: &self.space,
            encoder: &self.encoder,
            direction: Direction::Maximize,
            policy: &self.policy,
            history,
            iteration,
        }
    }
}

fn algorithms() -> Vec<Box<dyn SearchAlgorithm>> {
    vec![
        Box::new(RandomSearch::new()),
        Box::new(GridSearch::new(4)),
        Box::new(BayesOpt::new().with_pool(64)),
        Box::new(CausalSearch::new()),
    ]
}

/// Drives `warmup` full ask/evaluate/tell waves so model-based algorithms
/// get past their init phase, then returns the accumulated history.
fn warm_up(
    alg: &mut dyn SearchAlgorithm,
    fixture: &Fixture,
    rng: &mut StdRng,
    warmup: usize,
) -> Vec<Observation> {
    let mut history: Vec<Observation> = Vec::new();
    for _ in 0..warmup {
        let obs_batch: Vec<Observation> = {
            let ctx = fixture.ctx(&history, history.len());
            alg.propose_batch(4, &ctx, rng)
                .into_iter()
                .map(|c| {
                    let v = observe_value(&fixture.space, &c);
                    Observation::ok(c, v, 60.0)
                })
                .collect()
        };
        let ctx = fixture.ctx(&history, history.len());
        alg.observe_batch(&ctx, &obs_batch);
        history.extend(obs_batch);
    }
    history
}

#[test]
fn every_algorithm_proposes_exactly_n_in_space_candidates() {
    let fixture = Fixture::new();
    for mut alg in algorithms() {
        let mut rng = StdRng::seed_from_u64(7);
        // Both cold (empty history) and warm (past n_init) batches.
        for round in 0..6 {
            let history = if round < 3 {
                Vec::new()
            } else {
                warm_up(alg.as_mut(), &fixture, &mut rng, 4)
            };
            for n in [1usize, 3, 8] {
                let ctx = fixture.ctx(&history, history.len());
                let batch = alg.propose_batch(n, &ctx, &mut rng);
                assert_eq!(batch.len(), n, "{} returned a short batch", alg.name());
                for c in &batch {
                    assert_eq!(c.len(), fixture.space.len(), "{}", alg.name());
                    assert!(
                        fixture.space.violations(c).is_empty(),
                        "{} proposed an out-of-space candidate",
                        alg.name()
                    );
                }
            }
        }
    }
}

#[test]
fn grid_and_bayes_batches_have_no_intra_batch_duplicates() {
    let fixture = Fixture::new();

    // Grid: the sweep itself is duplicate-free.
    let mut grid = GridSearch::new(4);
    let mut rng = StdRng::seed_from_u64(11);
    let history = Vec::new();
    let ctx = fixture.ctx(&history, 0);
    let batch = grid.propose_batch(8, &ctx, &mut rng);
    let fps: HashSet<u64> = batch.iter().map(|c| c.fingerprint()).collect();
    assert_eq!(fps.len(), batch.len(), "grid wave duplicated a candidate");

    // Bayes: cold batches dedup samples, warm batches are penalized into
    // diversity. Check both.
    let mut bayes = BayesOpt::new().with_pool(64);
    let mut rng = StdRng::seed_from_u64(13);
    let cold_history = Vec::new();
    let ctx = fixture.ctx(&cold_history, 0);
    let cold = bayes.propose_batch(8, &ctx, &mut rng);
    let cold_fps: HashSet<u64> = cold.iter().map(|c| c.fingerprint()).collect();
    assert_eq!(cold_fps.len(), cold.len(), "cold bayes wave duplicated");

    let history = warm_up(&mut bayes, &fixture, &mut rng, 5);
    for _ in 0..5 {
        let ctx = fixture.ctx(&history, history.len());
        let warm = bayes.propose_batch(6, &ctx, &mut rng);
        let warm_fps: HashSet<u64> = warm.iter().map(|c| c.fingerprint()).collect();
        assert_eq!(warm_fps.len(), warm.len(), "warm bayes wave duplicated");
    }

    // Causal rides the same guarantee through its ranked-pool dedup.
    let mut causal = CausalSearch::new();
    let mut rng = StdRng::seed_from_u64(17);
    let history = warm_up(&mut causal, &fixture, &mut rng, 5);
    let ctx = fixture.ctx(&history, history.len());
    let wave = causal.propose_batch(6, &ctx, &mut rng);
    let fps: HashSet<u64> = wave.iter().map(|c| c.fingerprint()).collect();
    assert_eq!(fps.len(), wave.len(), "causal wave duplicated");
}

/// `observe_batch` must leave the model in the same state as n sequential
/// `observe` calls. Checked behaviorally for random and grid: two fresh
/// instances fed the same observations one way or the other must produce
/// identical future proposals from identically seeded RNGs.
#[test]
fn observe_batch_equals_sequential_observes_for_random_and_grid() {
    let fixture = Fixture::new();
    let make: Vec<fn() -> Box<dyn SearchAlgorithm>> =
        vec![|| Box::new(RandomSearch::new()), || {
            Box::new(GridSearch::new(4))
        }];
    for factory in make {
        let mut batched = factory();
        let mut sequential = factory();

        // A shared set of observations over policy samples.
        let mut sample_rng = StdRng::seed_from_u64(19);
        let history: Vec<Observation> = (0..12)
            .map(|i| {
                let c = fixture.space.sample(&mut sample_rng);
                if i % 4 == 0 {
                    Observation::crash(c, 20.0)
                } else {
                    let v = observe_value(&fixture.space, &c);
                    Observation::ok(c, v, 60.0)
                }
            })
            .collect();

        {
            let ctx = fixture.ctx(&[], 0);
            batched.observe_batch(&ctx, &history);
        }
        for obs in &history {
            let ctx = fixture.ctx(&[], 0);
            sequential.observe(&ctx, obs);
        }

        // Identically seeded proposal streams must now coincide.
        let mut rng_a = StdRng::seed_from_u64(23);
        let mut rng_b = StdRng::seed_from_u64(23);
        for _ in 0..20 {
            let ctx = fixture.ctx(&history, history.len());
            let a = batched.propose(&ctx, &mut rng_a);
            let ctx = fixture.ctx(&history, history.len());
            let b = sequential.propose(&ctx, &mut rng_b);
            assert_eq!(
                a.fingerprint(),
                b.fingerprint(),
                "{} diverged after batch vs sequential observes",
                batched.name()
            );
        }
    }
}

/// Bayes goes further than the contract requires: feeding a history in
/// waves of uneven size reaches the exact same posterior as observing it
/// one candidate at a time, because every wave extends the Cholesky
/// factor row by row with exactly the arithmetic of the single observes.
/// The first wave fits from empty; every later one extends an existing
/// factor. Verify via proposals.
#[test]
fn bayes_waves_match_sequential_observes() {
    let fixture = Fixture::new();
    let mut batched = BayesOpt::new().with_pool(32);
    let mut sequential = BayesOpt::new().with_pool(32);

    let mut sample_rng = StdRng::seed_from_u64(29);
    let history: Vec<Observation> = (0..24)
        .map(|_| {
            let c = fixture.space.sample(&mut sample_rng);
            let v = observe_value(&fixture.space, &c);
            Observation::ok(c, v, 60.0)
        })
        .collect();

    let mut fed = 0;
    for size in [5, 1, 7, 3, 8] {
        let ctx = fixture.ctx(&history[..fed], fed);
        batched.observe_batch(&ctx, &history[fed..fed + size]);
        fed += size;
    }
    assert_eq!(fed, history.len());
    for obs in &history {
        let ctx = fixture.ctx(&[], 0);
        sequential.observe(&ctx, obs);
    }

    let mut rng_a = StdRng::seed_from_u64(31);
    let mut rng_b = StdRng::seed_from_u64(31);
    for _ in 0..10 {
        let ctx = fixture.ctx(&history, history.len());
        let a = batched.propose(&ctx, &mut rng_a);
        let ctx = fixture.ctx(&history, history.len());
        let b = sequential.propose(&ctx, &mut rng_b);
        assert_eq!(a.fingerprint(), b.fingerprint(), "posteriors diverged");
    }
}
