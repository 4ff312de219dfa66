//! The pluggable search-algorithm API (§3.1).
//!
//! "Wayfinder offers a modular API to ease the integration of pluggable
//! search algorithms \[which\] decide what configuration to explore next."
//! Algorithms see the exploration history — configurations, their
//! performance, and which ones crashed — and propose the next candidate.

use rand::rngs::StdRng;
use wf_configspace::{ConfigSpace, Configuration, Encoder, Stage};
use wf_jobfile::Direction;

/// One completed evaluation, as visible to search algorithms.
///
/// Algorithms never see *why* a configuration crashed (the ground-truth
/// rule); they only observe that it did — the same signal the real
/// platform gets from a failed build or a dead VM.
#[derive(Clone, Debug)]
pub struct Observation {
    /// The evaluated configuration.
    pub config: Configuration,
    /// Metric value (present only when the run succeeded).
    pub value: Option<f64>,
    /// Whether the configuration crashed (build/boot/run).
    pub crashed: bool,
    /// Virtual seconds the evaluation cost.
    pub duration_s: f64,
}

impl Observation {
    /// Convenience constructor for a successful run.
    pub fn ok(config: Configuration, value: f64, duration_s: f64) -> Self {
        Observation {
            config,
            value: Some(value),
            crashed: false,
            duration_s,
        }
    }

    /// Convenience constructor for a crash.
    pub fn crash(config: Configuration, duration_s: f64) -> Self {
        Observation {
            config,
            value: None,
            crashed: true,
            duration_s,
        }
    }
}

/// How candidate configurations are drawn from the space (§3.5: jobs can
/// focus the search on a parameter stage; compile-focused searches explore
/// around the incumbent default rather than uniformly).
#[derive(Clone, Debug, PartialEq)]
pub enum SamplePolicy {
    /// Uniform over the whole space.
    Uniform,
    /// Randomize only one stage's parameters, defaults elsewhere.
    StageFocused(Stage),
    /// Mutate the default configuration in `1..=max_changes` random
    /// parameters (log-uniform change count). This is how compile-time
    /// spaces are explored: a fresh uniform sample of 20 000 options is
    /// never buildable in practice, while perturbing a known-good
    /// configuration is (§4.4).
    MutateDefault {
        /// Largest number of parameters changed per sample.
        max_changes: usize,
    },
}

impl SamplePolicy {
    /// Draws one configuration under this policy.
    pub fn sample(&self, space: &ConfigSpace, rng: &mut StdRng) -> Configuration {
        use rand::Rng;
        match self {
            SamplePolicy::Uniform => space.sample(rng),
            SamplePolicy::StageFocused(stage) => space.sample_stage(*stage, rng),
            SamplePolicy::MutateDefault { max_changes } => {
                let max = (*max_changes).max(1);
                // Log-uniform change count: most samples are small probes,
                // the tail reshapes large parts of the configuration.
                let span = (max as f64).ln();
                let k = (rng.random::<f64>() * span).exp().round() as usize;
                space.mutate(&space.default_config(), k.clamp(1, max), rng)
            }
        }
    }

    /// Draws a mutation of `base` honoring the policy's stage restriction
    /// (used by exploitation moves).
    pub fn mutate(
        &self,
        space: &ConfigSpace,
        base: &Configuration,
        changes: usize,
        rng: &mut StdRng,
    ) -> Configuration {
        use rand::Rng;
        match self {
            SamplePolicy::StageFocused(stage) => {
                let idxs = space.stage_indices(*stage);
                let free: Vec<usize> = idxs.into_iter().filter(|&i| !space.spec(i).fixed).collect();
                let mut out = base.clone();
                if free.is_empty() {
                    return out;
                }
                for _ in 0..changes {
                    let i = free[rng.random_range(0..free.len())];
                    out.set(i, space.sample_value(i, rng));
                }
                out
            }
            _ => space.mutate(base, changes, rng),
        }
    }
}

/// Everything an algorithm may consult when proposing or learning.
pub struct SearchContext<'a> {
    /// The configuration space under exploration.
    pub space: &'a ConfigSpace,
    /// Shared feature encoder over that space.
    pub encoder: &'a Encoder,
    /// Whether larger or smaller metric values are better.
    pub direction: Direction,
    /// Candidate sampling policy.
    pub policy: &'a SamplePolicy,
    /// All completed observations, oldest first.
    pub history: &'a [Observation],
    /// Zero-based index of the iteration being proposed.
    pub iteration: usize,
}

impl SearchContext<'_> {
    /// The best successful observation so far under the direction.
    pub fn best(&self) -> Option<&Observation> {
        self.history
            .iter()
            .filter(|o| o.value.is_some())
            .max_by(|a, b| {
                let (x, y) = (a.value.unwrap(), b.value.unwrap());
                match self.direction {
                    Direction::Maximize => x.partial_cmp(&y).unwrap(),
                    Direction::Minimize => y.partial_cmp(&x).unwrap(),
                }
            })
    }

    /// Crash rate over the history (1.0 = every evaluation crashed).
    pub fn crash_rate(&self) -> f64 {
        if self.history.is_empty() {
            return 0.0;
        }
        self.history.iter().filter(|o| o.crashed).count() as f64 / self.history.len() as f64
    }

    /// A sign-adjusted view of a metric value: larger is always better.
    pub fn goodness(&self, value: f64) -> f64 {
        match self.direction {
            Direction::Maximize => value,
            Direction::Minimize => -value,
        }
    }
}

/// Extends `out` to `n` configurations with policy samples whose
/// fingerprints are new to `seen`, recording each accepted fingerprint.
///
/// The shared workhorse behind every batch proposer's "fill the rest of
/// the wave with distinct samples" path. Each slot gets a bounded number
/// of rejection-sampling tries — tiny spaces may not hold `n` distinct
/// configurations, and a wave must come back full regardless, so the
/// slot then falls back to an arbitrary sample.
pub fn fill_distinct(
    out: &mut Vec<Configuration>,
    n: usize,
    ctx: &SearchContext<'_>,
    rng: &mut StdRng,
    seen: &mut std::collections::HashSet<u64>,
) {
    while out.len() < n {
        let mut accepted = None;
        for _ in 0..64 {
            let c = ctx.policy.sample(ctx.space, rng);
            if seen.insert(c.fingerprint()) {
                accepted = Some(c);
                break;
            }
        }
        out.push(accepted.unwrap_or_else(|| ctx.policy.sample(ctx.space, rng)));
    }
}

/// What an algorithm reports about its own state (Fig. 7's memory axis).
///
/// Every field is a deterministic function of the calls the algorithm
/// has seen, so replay re-derives it. Host time is not here: the caller
/// times the ask and the tell itself ([`crate::host_clock`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AlgoStats {
    /// Bytes of live memory attributable to the algorithm's data
    /// structures after the last iteration (Fig. 7's y-axis).
    pub memory_bytes: usize,
}

/// A pluggable search algorithm.
///
/// # The batch ask/tell protocol
///
/// A multi-worker platform evaluates several configurations concurrently,
/// so the driving loop is [`SearchAlgorithm::propose_batch`] ("ask for a
/// wave of candidates") → evaluate the wave across workers →
/// [`SearchAlgorithm::observe_batch`] ("tell the algorithm every
/// outcome"). These two are the only ask/tell methods an algorithm
/// implements: model-based algorithms propose *diverse* waves (no point
/// paying for n workers that all test the same hypothesis) and amortize
/// one model refit over the whole wave.
///
/// The paper's one-candidate loop (Fig. 3) alternates
/// [`SearchAlgorithm::propose`] → evaluate → [`SearchAlgorithm::observe`],
/// which are the one-candidate case of the batch methods, so each
/// algorithm has a single proposal rule.
pub trait SearchAlgorithm {
    /// Algorithm name for reports (`random`, `bayesian`, `deeptune`, ...).
    fn name(&self) -> &'static str;

    /// Asks for `n` candidates to evaluate concurrently.
    fn propose_batch(
        &mut self,
        n: usize,
        ctx: &SearchContext<'_>,
        rng: &mut StdRng,
    ) -> Vec<Configuration>;

    /// Tells the algorithm every outcome of a completed wave, in the
    /// order the candidates were proposed.
    fn observe_batch(&mut self, ctx: &SearchContext<'_>, batch: &[Observation]);

    /// Chooses the next configuration to evaluate: the one candidate of
    /// `propose_batch(1, ..)`.
    fn propose(&mut self, ctx: &SearchContext<'_>, rng: &mut StdRng) -> Configuration {
        self.propose_batch(1, ctx, rng)
            .pop()
            .expect("propose_batch returns n candidates")
    }

    /// Integrates a completed observation: a wave of one.
    fn observe(&mut self, ctx: &SearchContext<'_>, obs: &Observation) {
        self.observe_batch(ctx, std::slice::from_ref(obs));
    }

    /// Cost statistics for the most recent iteration.
    fn stats(&self) -> AlgoStats {
        AlgoStats::default()
    }

    /// Closes the algorithm's current specialization *epoch* (continuous
    /// sessions call this when confirmed workload drift triggers
    /// re-specialization).
    ///
    /// After this call the driving loop restarts the context history: the
    /// algorithm sees only observations made since the epoch began, so
    /// any per-observation state (replay buffers, kernels, incumbents)
    /// must be dropped. `transfer` asks the algorithm to seed the new
    /// epoch from whatever *model* it accumulated — the generalized
    /// `transfer_checkpoint` path; `false` demands a cold restart.
    ///
    /// The default implementation does nothing, which is correct only
    /// for algorithms that keep no observation state of their own
    /// (random search; grid, whose sweep is a pure function of the
    /// global iteration counter). Model-based algorithms must override.
    fn begin_epoch(&mut self, _transfer: bool) {}

    /// Downcast hook for algorithm-specific post-hoc queries (extracting a
    /// transfer checkpoint, importance analysis). Algorithms that support
    /// such queries return `Some(self)`.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use wf_configspace::{ParamKind, ParamSpec, Value};

    fn space() -> ConfigSpace {
        let mut s = ConfigSpace::new();
        s.add(ParamSpec::new("a", ParamKind::Bool, Stage::Runtime));
        s.add(ParamSpec::new("b", ParamKind::int(0, 100), Stage::Runtime));
        s.add(ParamSpec::new("c", ParamKind::Bool, Stage::CompileTime));
        s
    }

    #[test]
    fn stage_focus_leaves_other_stages_at_default() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(1);
        let p = SamplePolicy::StageFocused(Stage::Runtime);
        for _ in 0..50 {
            let c = p.sample(&s, &mut rng);
            assert_eq!(c.by_name(&s, "c"), Some(Value::Bool(false)));
        }
    }

    #[test]
    fn mutate_default_changes_few_params() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(2);
        let p = SamplePolicy::MutateDefault { max_changes: 2 };
        let d = s.default_config();
        for _ in 0..50 {
            let c = p.sample(&s, &mut rng);
            assert!(c.diff_indices(&d).len() <= 2);
        }
    }

    #[test]
    fn stage_focused_mutation_respects_stage() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(3);
        let p = SamplePolicy::StageFocused(Stage::Runtime);
        let base = s.default_config();
        for _ in 0..50 {
            let m = p.mutate(&s, &base, 3, &mut rng);
            assert_eq!(m.by_name(&s, "c"), Some(Value::Bool(false)));
        }
    }

    #[test]
    fn context_best_and_crash_rate() {
        let s = space();
        let enc = Encoder::new(&s);
        let d = s.default_config();
        let history = vec![
            Observation::ok(d.clone(), 10.0, 60.0),
            Observation::crash(d.clone(), 20.0),
            Observation::ok(d.clone(), 30.0, 60.0),
        ];
        let policy = SamplePolicy::Uniform;
        let ctx = SearchContext {
            space: &s,
            encoder: &enc,
            direction: Direction::Maximize,
            policy: &policy,
            history: &history,
            iteration: 3,
        };
        assert_eq!(ctx.best().unwrap().value, Some(30.0));
        assert!((ctx.crash_rate() - 1.0 / 3.0).abs() < 1e-12);

        let ctx_min = SearchContext {
            direction: Direction::Minimize,
            ..ctx
        };
        assert_eq!(ctx_min.best().unwrap().value, Some(10.0));
        assert_eq!(ctx_min.goodness(5.0), -5.0);
    }
}
