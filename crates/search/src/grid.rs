//! Grid search: systematic coordinate sweeps (§3.1).
//!
//! "All possible configurations are explored systematically, one parameter
//! value after the other": the sweep holds every parameter at its default
//! and walks one parameter at a time through a quantized set of its values
//! (log-spaced for log-scaled integers). The paper omits grid search from
//! the evaluation because it is well-known to be inferior to random search
//! on large spaces (§4) — it is provided for completeness and for tiny
//! spaces where exhaustiveness is affordable.

use crate::api::{fill_distinct, Observation, SearchAlgorithm, SearchContext};
use rand::rngs::StdRng;
use wf_configspace::{ConfigSpace, Configuration, ParamKind, Tristate, Value};

/// Coordinate-sweep grid search.
#[derive(Debug)]
pub struct GridSearch {
    /// Number of quantized values per integer parameter.
    steps_per_int: usize,
    /// Current (parameter, step) cursor.
    param: usize,
    step: usize,
}

impl GridSearch {
    /// Creates a grid search with `steps_per_int` values per integer axis.
    ///
    /// # Panics
    ///
    /// Panics if `steps_per_int < 2`.
    pub fn new(steps_per_int: usize) -> Self {
        assert!(steps_per_int >= 2, "need at least two steps per axis");
        GridSearch {
            steps_per_int,
            param: 0,
            step: 0,
        }
    }

    /// The values this sweep visits for parameter `idx`.
    fn axis(&self, space: &ConfigSpace, idx: usize) -> Vec<Value> {
        let spec = space.spec(idx);
        if spec.fixed {
            return vec![spec.default];
        }
        match &spec.kind {
            ParamKind::Bool => vec![Value::Bool(false), Value::Bool(true)],
            ParamKind::Tristate => Tristate::ALL.iter().map(|t| Value::Tristate(*t)).collect(),
            ParamKind::Enum { choices } => (0..choices.len()).map(Value::Choice).collect(),
            ParamKind::Int {
                min,
                max,
                log_scale,
            } => quantize(*min, *max, *log_scale, self.steps_per_int),
            ParamKind::Hex { min, max } => quantize(*min, *max, false, self.steps_per_int),
        }
    }

    /// Whether the sweep has visited every axis value once.
    pub fn exhausted(&self, space: &ConfigSpace) -> bool {
        self.param >= space.len()
    }

    /// The next sweep point (a random sample once the sweep is
    /// exhausted). Consecutive points can repeat the default
    /// configuration, once per axis.
    fn sweep_step(&mut self, ctx: &SearchContext<'_>, rng: &mut StdRng) -> Configuration {
        // Advance past exhausted axes.
        while self.param < ctx.space.len() {
            let axis = self.axis(ctx.space, self.param);
            if self.step < axis.len() {
                let mut c = ctx.space.default_config();
                c.set(self.param, axis[self.step]);
                self.step += 1;
                return c;
            }
            self.param += 1;
            self.step = 0;
        }
        // Grid exhausted: fall back to random sampling.
        ctx.policy.sample(ctx.space, rng)
    }
}

/// `steps` values spanning `[min, max]`, inclusive of both ends.
fn quantize(min: i64, max: i64, log_scale: bool, steps: usize) -> Vec<Value> {
    let mut out = Vec::with_capacity(steps);
    for k in 0..steps {
        let t = k as f64 / (steps - 1) as f64;
        let v = if log_scale && min >= 0 {
            let span = ((max - min) as f64 + 1.0).ln();
            min + ((t * span).exp() - 1.0).round() as i64
        } else {
            min + ((max - min) as f64 * t).round() as i64
        };
        let v = v.clamp(min, max);
        if out.last() != Some(&Value::Int(v)) {
            out.push(Value::Int(v));
        }
    }
    out
}

impl SearchAlgorithm for GridSearch {
    fn name(&self) -> &'static str {
        "grid"
    }

    fn propose_batch(
        &mut self,
        n: usize,
        ctx: &SearchContext<'_>,
        rng: &mut StdRng,
    ) -> Vec<Configuration> {
        // A wave of grid search is the next `n` *distinct* sweep points.
        // Consecutive sweep points can collide: every axis contains the
        // parameter's default value, and that point is the default
        // configuration on every axis — a sequential sweep re-evaluates
        // it once per axis, but a wave must not waste two workers on it.
        // Post-exhaustion random fill is deduped the same way.
        let mut out: Vec<Configuration> = Vec::with_capacity(n);
        let mut fps = std::collections::HashSet::new();
        while out.len() < n && !self.exhausted(ctx.space) {
            let c = self.sweep_step(ctx, rng);
            if fps.insert(c.fingerprint()) {
                out.push(c);
            }
        }
        fill_distinct(&mut out, n, ctx, rng, &mut fps);
        out
    }

    fn observe_batch(&mut self, _ctx: &SearchContext<'_>, _batch: &[Observation]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SamplePolicy;
    use rand::SeedableRng;
    use wf_configspace::{Encoder, ParamSpec, Stage};
    use wf_jobfile::Direction;

    fn space() -> ConfigSpace {
        let mut s = ConfigSpace::new();
        s.add(ParamSpec::new("flag", ParamKind::Bool, Stage::Runtime));
        s.add(
            ParamSpec::new("size", ParamKind::log_int(1, 4096), Stage::Runtime)
                .with_default(Value::Int(64)),
        );
        s.add(ParamSpec::new(
            "mode",
            ParamKind::choices(vec!["a", "b", "c"]),
            Stage::Runtime,
        ));
        s
    }

    #[test]
    fn sweeps_one_parameter_at_a_time() {
        let s = space();
        let encoder = Encoder::new(&s);
        let policy = SamplePolicy::Uniform;
        let mut alg = GridSearch::new(4);
        let mut rng = StdRng::seed_from_u64(1);
        let history = Vec::new();
        let d = s.default_config();
        let mut configs = Vec::new();
        for i in 0..(2 + 4 + 3) {
            let ctx = SearchContext {
                space: &s,
                encoder: &encoder,
                direction: Direction::Maximize,
                policy: &policy,
                history: &history,
                iteration: i,
            };
            configs.push(alg.propose(&ctx, &mut rng));
        }
        // Every proposal differs from the default in at most one parameter.
        for c in &configs {
            assert!(c.diff_indices(&d).len() <= 1);
        }
        // The flag axis comes first: false then true.
        assert_eq!(configs[0].by_name(&s, "flag"), Some(Value::Bool(false)));
        assert_eq!(configs[1].by_name(&s, "flag"), Some(Value::Bool(true)));
        // The integer axis covers both ends.
        let sizes: Vec<i64> = configs[2..6]
            .iter()
            .filter_map(|c| c.by_name(&s, "size").and_then(|v| v.as_int()))
            .collect();
        assert_eq!(sizes.first(), Some(&1));
        assert_eq!(sizes.last(), Some(&4096));
        // The enum axis enumerates all choices.
        let modes: Vec<usize> = configs[6..9]
            .iter()
            .filter_map(|c| c.by_name(&s, "mode").and_then(|v| v.as_choice()))
            .collect();
        assert_eq!(modes, vec![0, 1, 2]);
    }

    #[test]
    fn falls_back_to_random_when_exhausted() {
        let s = space();
        let encoder = Encoder::new(&s);
        let policy = SamplePolicy::Uniform;
        let mut alg = GridSearch::new(2);
        let mut rng = StdRng::seed_from_u64(2);
        let history = Vec::new();
        for i in 0..30 {
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
        assert!(alg.exhausted(&s));
    }

    #[test]
    fn log_quantization_is_log_spaced() {
        let vals = quantize(1, 1_000_000, true, 4);
        let ints: Vec<i64> = vals.iter().filter_map(|v| v.as_int()).collect();
        assert_eq!(ints.first(), Some(&1));
        assert_eq!(ints.last(), Some(&1_000_000));
        // Middle points are geometric, not arithmetic.
        assert!(ints[1] < 2_000);
    }
}
