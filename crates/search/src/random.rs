//! Random search: the paper's baseline (§3.1, §4).
//!
//! "Each subsequent configuration to explore is generated randomly without
//! considering the exploration history" — except for uniqueness: the
//! platform's random search "continuously generat\[es\] *unique*
//! configurations", so previously seen fingerprints are rejected.

use crate::api::{Observation, SearchAlgorithm, SearchContext};
use rand::rngs::StdRng;
use std::collections::HashSet;
use wf_configspace::Configuration;

/// The random-search baseline.
#[derive(Debug, Default)]
pub struct RandomSearch {
    seen: HashSet<u64>,
}

impl RandomSearch {
    /// Creates a fresh random search.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws one unseen configuration and marks it seen.
    fn propose_one(&mut self, ctx: &SearchContext<'_>, rng: &mut StdRng) -> Configuration {
        // Reject duplicates, but give up after a bounded number of tries:
        // tiny spaces can be exhausted, and the platform still needs a
        // configuration back.
        for _ in 0..64 {
            let c = ctx.policy.sample(ctx.space, rng);
            if self.seen.insert(c.fingerprint()) {
                return c;
            }
        }
        ctx.policy.sample(ctx.space, rng)
    }
}

// Batch note: a wave is `n` sequential one-candidate draws. Each draw
// inserts its fingerprint into `seen` at proposal time, so a wave is
// intra-batch unique, and the RNG stream is identical to n
// single-candidate iterations, which is what makes same-seed sessions
// worker-count invariant.
impl SearchAlgorithm for RandomSearch {
    fn name(&self) -> &'static str {
        "random"
    }

    fn propose_batch(
        &mut self,
        n: usize,
        ctx: &SearchContext<'_>,
        rng: &mut StdRng,
    ) -> Vec<Configuration> {
        (0..n).map(|_| self.propose_one(ctx, rng)).collect()
    }

    fn observe_batch(&mut self, _ctx: &SearchContext<'_>, batch: &[Observation]) {
        for obs in batch {
            self.seen.insert(obs.config.fingerprint());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SamplePolicy;
    use rand::SeedableRng;
    use wf_configspace::{ConfigSpace, Encoder, ParamKind, ParamSpec, Stage};
    use wf_jobfile::Direction;

    fn ctx_fixture() -> (ConfigSpace, SamplePolicy) {
        let mut s = ConfigSpace::new();
        s.add(ParamSpec::new(
            "a",
            ParamKind::int(0, 1_000_000),
            Stage::Runtime,
        ));
        s.add(ParamSpec::new("b", ParamKind::Bool, Stage::Runtime));
        (s, SamplePolicy::Uniform)
    }

    #[test]
    fn proposals_are_unique() {
        let (space, policy) = ctx_fixture();
        let encoder = Encoder::new(&space);
        let mut alg = RandomSearch::new();
        let mut rng = StdRng::seed_from_u64(1);
        let history = Vec::new();
        let mut fingerprints = HashSet::new();
        for i in 0..200 {
            let ctx = SearchContext {
                space: &space,
                encoder: &encoder,
                direction: Direction::Maximize,
                policy: &policy,
                history: &history,
                iteration: i,
            };
            let c = alg.propose(&ctx, &mut rng);
            assert!(fingerprints.insert(c.fingerprint()), "duplicate at {i}");
        }
    }

    #[test]
    fn exhausted_space_still_returns() {
        // A 2-configuration space: after both are seen, propose must still
        // return something rather than spin forever.
        let mut s = ConfigSpace::new();
        s.add(ParamSpec::new("only", ParamKind::Bool, Stage::Runtime));
        let encoder = Encoder::new(&s);
        let policy = SamplePolicy::Uniform;
        let mut alg = RandomSearch::new();
        let mut rng = StdRng::seed_from_u64(2);
        let history = Vec::new();
        for i in 0..10 {
            let ctx = SearchContext {
                space: &s,
                encoder: &encoder,
                direction: Direction::Maximize,
                policy: &policy,
                history: &history,
                iteration: i,
            };
            let _ = alg.propose(&ctx, &mut rng);
        }
    }
}
