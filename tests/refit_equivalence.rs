//! The incremental-refit equivalence proofs behind the `wfctl bench`
//! perf work: speeding up the surrogates must not move a single
//! proposal.
//!
//! * `bayes`: extending the Cholesky factor row by row at every observe
//!   and every wave boundary (O(n²) per row; a full refit only when the
//!   matrix needs jitter) must leave the fitted model — and therefore
//!   every subsequent `propose`/`propose_batch` — **bit-for-bit
//!   identical** to the from-scratch O(n³) refit
//!   (`BayesOpt::with_full_refit(true)`).
//! * `bayes` pool scoring: the batched matrix-level EI solve (kernel
//!   columns packed candidate-interleaved, one forward substitution per
//!   block) must propose exactly what the per-candidate reference loop
//!   (`BayesOpt::with_scalar_ei(true)`) proposes.
//! * `causal`: intervention rankings maintained from running raw-moment
//!   sums must match the published rescan-the-history variant
//!   (`CausalSearch::with_scratch_stats(true)`) exactly.
//! * `causal` skeleton: the sepset-reusing incremental PC sweep must
//!   leave the same adjacency — and the same rankings — as the full
//!   conditioning-set re-enumeration
//!   (`CausalSearch::with_scratch_skeleton(true)`).
//!
//! All properties are exercised across every registered target's space
//! (the five paper targets plus the `scenarios` registrations), with
//! histories fed through a random mix of single observes and wave-sized
//! `observe_batch` calls, successes and crashes alike.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wayfinder::core::TargetRequest;
use wayfinder::jobfile::Direction;
use wayfinder::platform::derive_seed;
use wayfinder::search::{
    BayesOpt, CausalSearch, Observation, SamplePolicy, SearchAlgorithm, SearchContext,
};
use wf_configspace::{ConfigSpace, Encoder};

/// Runtime-space size for Linux-style targets (small keeps cases fast).
const PARAMS: usize = 56;

/// Materializes (keyword, space, policy) for every registered target —
/// each property case runs over the full registry.
fn all_target_spaces() -> Vec<(String, ConfigSpace, SamplePolicy)> {
    let registry = wayfinder::scenarios::registry();
    registry
        .factories()
        .map(|factory| {
            let instance = factory
                .instantiate(&TargetRequest {
                    app: factory.default_app().to_string(),
                    runtime_params: PARAMS,
                })
                .expect("registered targets instantiate with their defaults");
            (
                factory.keyword().to_string(),
                instance.target.space().clone(),
                instance.policy,
            )
        })
        .collect()
}

/// A deterministic synthetic history: per-candidate RNG streams via
/// `derive_seed`, values from the encoding, every seventh a crash.
fn history(
    space: &ConfigSpace,
    encoder: &Encoder,
    policy: &SamplePolicy,
    seed: u64,
    n: usize,
) -> Vec<Observation> {
    (0..n)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, i as u64));
            let config = policy.sample(space, &mut rng);
            if i % 7 == 3 {
                Observation::crash(config, 15.0)
            } else {
                let x = encoder.encode(space, &config);
                let value: f64 = x
                    .iter()
                    .enumerate()
                    .map(|(d, v)| v * (d as f64 % 5.0 - 2.0))
                    .sum();
                Observation::ok(config, value, 60.0)
            }
        })
        .collect()
}

/// Feeds `observations` to both algorithms through an identical mix of
/// single observes and wave boundaries: chunk sizes cycle 1, 3, 1, 2 (a
/// chunk of one goes through `observe`, larger chunks through
/// `observe_batch`).
fn feed_both(
    a: &mut dyn SearchAlgorithm,
    b: &mut dyn SearchAlgorithm,
    space: &ConfigSpace,
    encoder: &Encoder,
    policy: &SamplePolicy,
    observations: &[Observation],
) {
    let mut fed = 0;
    let mut shapes = [1usize, 3, 1, 2].iter().cycle();
    while fed < observations.len() {
        let size = (*shapes.next().unwrap()).min(observations.len() - fed);
        let ctx = SearchContext {
            space,
            encoder,
            direction: Direction::Maximize,
            policy,
            history: &observations[..fed],
            iteration: fed,
        };
        let chunk = &observations[fed..fed + size];
        if size == 1 {
            a.observe(&ctx, &chunk[0]);
            b.observe(&ctx, &chunk[0]);
        } else {
            a.observe_batch(&ctx, chunk);
            b.observe_batch(&ctx, chunk);
        }
        fed += size;
    }
}

/// Fingerprints a batch of proposals for comparison messages.
fn fingerprints(configs: &[wf_configspace::Configuration]) -> Vec<u64> {
    configs.iter().map(|c| c.fingerprint()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn incremental_bayes_refit_matches_full_refit(
        seed in 0u64..1_000_000,
        n in 8usize..16,
    ) {
        for (keyword, space, policy) in all_target_spaces() {
            let encoder = Encoder::new(&space);
            let observations = history(&space, &encoder, &policy, seed, n);

            let mut incremental = BayesOpt::new();
            let mut full = BayesOpt::new().with_full_refit(true);
            feed_both(&mut incremental, &mut full, &space, &encoder, &policy, &observations);

            // Identical model ⇒ identical next wave from identical RNG
            // state.
            let ctx = SearchContext {
                space: &space,
                encoder: &encoder,
                direction: Direction::Maximize,
                policy: &policy,
                history: &observations,
                iteration: n,
            };
            let mut rng_a = StdRng::seed_from_u64(derive_seed(seed, 1 << 40));
            let mut rng_b = StdRng::seed_from_u64(derive_seed(seed, 1 << 40));
            let wave_a = incremental.propose_batch(4, &ctx, &mut rng_a);
            let wave_b = full.propose_batch(4, &ctx, &mut rng_b);
            prop_assert_eq!(
                &wave_a, &wave_b,
                "{}: incremental vs full proposals diverged ({:?} vs {:?})",
                keyword, fingerprints(&wave_a), fingerprints(&wave_b)
            );
            // And the single-candidate path too.
            let single_a = incremental.propose(&ctx, &mut rng_a);
            let single_b = full.propose(&ctx, &mut rng_b);
            prop_assert_eq!(single_a, single_b, "{}: single proposals diverged", keyword);
        }
    }

    #[test]
    fn batched_pool_ei_matches_per_candidate_ei(
        seed in 0u64..1_000_000,
        n in 8usize..16,
    ) {
        for (keyword, space, policy) in all_target_spaces() {
            let encoder = Encoder::new(&space);
            let observations = history(&space, &encoder, &policy, seed, n);

            let mut batched = BayesOpt::new();
            let mut scalar = BayesOpt::new().with_scalar_ei(true);
            feed_both(&mut batched, &mut scalar, &space, &encoder, &policy, &observations);

            // Identical scores ⇒ the same argmax over the same sampled
            // pool ⇒ identical proposals from identical RNG state.
            let ctx = SearchContext {
                space: &space,
                encoder: &encoder,
                direction: Direction::Maximize,
                policy: &policy,
                history: &observations,
                iteration: n,
            };
            let mut rng_a = StdRng::seed_from_u64(derive_seed(seed, 3 << 40));
            let mut rng_b = StdRng::seed_from_u64(derive_seed(seed, 3 << 40));
            let wave_a = batched.propose_batch(4, &ctx, &mut rng_a);
            let wave_b = scalar.propose_batch(4, &ctx, &mut rng_b);
            prop_assert_eq!(
                &wave_a, &wave_b,
                "{}: batched vs per-candidate EI proposals diverged ({:?} vs {:?})",
                keyword, fingerprints(&wave_a), fingerprints(&wave_b)
            );
            let single_a = batched.propose(&ctx, &mut rng_a);
            let single_b = scalar.propose(&ctx, &mut rng_b);
            prop_assert_eq!(single_a, single_b, "{}: single proposals diverged", keyword);
        }
    }

    #[test]
    fn incremental_skeleton_matches_scratch_skeleton(
        seed in 0u64..1_000_000,
        n in 8usize..16,
    ) {
        for (keyword, space, policy) in all_target_spaces() {
            let encoder = Encoder::new(&space);
            let observations = history(&space, &encoder, &policy, seed, n);

            // Isolate the skeleton axis: both sides keep incremental
            // column statistics; only the PC sweep differs.
            let mut incremental = CausalSearch::new();
            let mut scratch = CausalSearch::new().with_scratch_skeleton(true);
            feed_both(&mut incremental, &mut scratch, &space, &encoder, &policy, &observations);

            let ctx = SearchContext {
                space: &space,
                encoder: &encoder,
                direction: Direction::Maximize,
                policy: &policy,
                history: &observations,
                iteration: n,
            };
            let mut rng_a = StdRng::seed_from_u64(derive_seed(seed, 4 << 40));
            let mut rng_b = StdRng::seed_from_u64(derive_seed(seed, 4 << 40));
            let wave_a = incremental.propose_batch(4, &ctx, &mut rng_a);
            let wave_b = scratch.propose_batch(4, &ctx, &mut rng_b);
            prop_assert_eq!(
                &wave_a, &wave_b,
                "{}: sepset-reusing vs scratch skeleton proposals diverged ({:?} vs {:?})",
                keyword, fingerprints(&wave_a), fingerprints(&wave_b)
            );
            let single_a = incremental.propose(&ctx, &mut rng_a);
            let single_b = scratch.propose(&ctx, &mut rng_b);
            prop_assert_eq!(single_a, single_b, "{}: single proposals diverged", keyword);
        }
    }

    #[test]
    fn incremental_causal_ranking_matches_rebuilt_ranking(
        seed in 0u64..1_000_000,
        n in 8usize..16,
    ) {
        for (keyword, space, policy) in all_target_spaces() {
            let encoder = Encoder::new(&space);
            let observations = history(&space, &encoder, &policy, seed, n);

            let mut incremental = CausalSearch::new();
            let mut scratch = CausalSearch::new().with_scratch_stats(true);
            feed_both(&mut incremental, &mut scratch, &space, &encoder, &policy, &observations);

            let ctx = SearchContext {
                space: &space,
                encoder: &encoder,
                direction: Direction::Maximize,
                policy: &policy,
                history: &observations,
                iteration: n,
            };
            let mut rng_a = StdRng::seed_from_u64(derive_seed(seed, 2 << 40));
            let mut rng_b = StdRng::seed_from_u64(derive_seed(seed, 2 << 40));
            let wave_a = incremental.propose_batch(4, &ctx, &mut rng_a);
            let wave_b = scratch.propose_batch(4, &ctx, &mut rng_b);
            prop_assert_eq!(
                &wave_a, &wave_b,
                "{}: incremental vs scratch rankings diverged ({:?} vs {:?})",
                keyword, fingerprints(&wave_a), fingerprints(&wave_b)
            );
            let single_a = incremental.propose(&ctx, &mut rng_a);
            let single_b = scratch.propose(&ctx, &mut rng_b);
            prop_assert_eq!(single_a, single_b, "{}: single proposals diverged", keyword);
        }
    }
}
