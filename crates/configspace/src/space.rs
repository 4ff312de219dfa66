//! The configuration space: a collection of parameter specs with sampling,
//! mutation, and census operations.

use crate::config::Configuration;
use crate::param::{ParamKind, ParamSpec, Stage};
use crate::value::{Tristate, Value};
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// A typed OS configuration space.
///
/// Parameters are indexed positionally; [`ConfigSpace::index_of`] resolves
/// names. The name index is shared with every
/// [`NamedConfig`](crate::NamedConfig) the space hands out, so a named
/// view costs one reference-count bump instead of a copy of every name.
/// A space also acts as the sampling distribution for random search
/// and for DeepTune's candidate pool: integers are sampled uniformly (or
/// log-uniformly), categorical kinds uniformly over their values, and fixed
/// parameters always keep their default.
#[derive(Clone, Debug, Default)]
pub struct ConfigSpace {
    params: Vec<ParamSpec>,
    pub(crate) index: Arc<HashMap<String, usize>>,
}

/// Census of a configuration space, mirroring Table 1 of the paper.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpaceCensus {
    /// Compile-time `bool` options.
    pub compile_bool: usize,
    /// Compile-time `tristate` options.
    pub compile_tristate: usize,
    /// Compile-time `string` options.
    pub compile_string: usize,
    /// Compile-time `hex` options.
    pub compile_hex: usize,
    /// Compile-time `int` options.
    pub compile_int: usize,
    /// Boot-time options (kernel command line).
    pub boot: usize,
    /// Runtime options (writable /proc/sys and /sys files).
    pub runtime: usize,
}

impl SpaceCensus {
    /// Total number of compile-time options.
    pub fn compile_total(&self) -> usize {
        self.compile_bool
            + self.compile_tristate
            + self.compile_string
            + self.compile_hex
            + self.compile_int
    }

    /// Total number of options across all stages.
    pub fn total(&self) -> usize {
        self.compile_total() + self.boot + self.runtime
    }
}

impl ConfigSpace {
    /// Creates an empty space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a parameter and returns its positional index.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names or a default outside the domain.
    pub fn add(&mut self, spec: ParamSpec) -> usize {
        assert!(
            spec.kind.admits(&spec.default),
            "default of {} outside its domain",
            spec.name
        );
        assert!(
            !self.index.contains_key(&spec.name),
            "duplicate parameter {}",
            spec.name
        );
        let idx = self.params.len();
        // Copy-on-write: a view taken before this call keeps the index
        // it was made with.
        Arc::make_mut(&mut self.index).insert(spec.name.clone(), idx);
        self.params.push(spec);
        idx
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Returns `true` if the space has no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// The spec at position `idx`.
    pub fn spec(&self, idx: usize) -> &ParamSpec {
        &self.params[idx]
    }

    /// All specs in positional order.
    pub fn specs(&self) -> &[ParamSpec] {
        &self.params
    }

    /// Resolves a parameter name to its position.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Pins a parameter to a fixed value (§3.5 constrained search).
    ///
    /// Returns `false` if the name is unknown or the value is out of domain.
    pub fn pin(&mut self, name: &str, value: Value) -> bool {
        match self.index.get(name).copied() {
            Some(i) if self.params[i].kind.admits(&value) => {
                self.params[i].default = value;
                self.params[i].fixed = true;
                true
            }
            _ => false,
        }
    }

    /// The configuration holding every parameter's default.
    pub fn default_config(&self) -> Configuration {
        self.params.iter().map(|p| p.default).collect()
    }

    /// Samples one value from a parameter's domain.
    pub fn sample_value(&self, idx: usize, rng: &mut impl Rng) -> Value {
        let spec = &self.params[idx];
        if spec.fixed {
            return spec.default;
        }
        match &spec.kind {
            ParamKind::Bool => Value::Bool(rng.random::<bool>()),
            ParamKind::Tristate => Value::Tristate(Tristate::ALL[rng.random_range(0..3usize)]),
            ParamKind::Int {
                min,
                max,
                log_scale,
            } => Value::Int(sample_int(*min, *max, *log_scale, rng)),
            ParamKind::Hex { min, max } => Value::Int(sample_int(*min, *max, false, rng)),
            ParamKind::Enum { choices } => Value::Choice(rng.random_range(0..choices.len())),
        }
    }

    /// Samples a uniformly random configuration (fixed parameters keep their
    /// defaults).
    pub fn sample(&self, rng: &mut impl Rng) -> Configuration {
        (0..self.params.len())
            .map(|i| self.sample_value(i, rng))
            .collect()
    }

    /// Samples a configuration that randomizes only parameters of `stage`,
    /// leaving the rest at their defaults. Used when a job focuses the
    /// search on one parameter type (§3.5).
    pub fn sample_stage(&self, stage: Stage, rng: &mut impl Rng) -> Configuration {
        (0..self.params.len())
            .map(|i| {
                if self.params[i].stage == stage {
                    self.sample_value(i, rng)
                } else {
                    self.params[i].default
                }
            })
            .collect()
    }

    /// Returns a copy of `base` with `n_changes` randomly chosen non-fixed
    /// parameters resampled. Used by DeepTune's candidate pool to exploit
    /// the neighborhood of the incumbent.
    pub fn mutate(
        &self,
        base: &Configuration,
        n_changes: usize,
        rng: &mut impl Rng,
    ) -> Configuration {
        let mut out = base.clone();
        let free: Vec<usize> = (0..self.params.len())
            .filter(|&i| !self.params[i].fixed)
            .collect();
        if free.is_empty() {
            return out;
        }
        for _ in 0..n_changes {
            let idx = free[rng.random_range(0..free.len())];
            out.set(idx, self.sample_value(idx, rng));
        }
        out
    }

    /// Checks that every value lies in its parameter's domain; returns the
    /// indices of violations.
    pub fn violations(&self, config: &Configuration) -> Vec<usize> {
        assert_eq!(config.len(), self.params.len(), "length mismatch");
        (0..self.params.len())
            .filter(|&i| !self.params[i].kind.admits(&config.get(i)))
            .collect()
    }

    /// Census of kinds and stages (Table 1).
    pub fn census(&self) -> SpaceCensus {
        let mut c = SpaceCensus::default();
        for p in &self.params {
            match p.stage {
                Stage::BootTime => c.boot += 1,
                Stage::Runtime => c.runtime += 1,
                Stage::CompileTime => match &p.kind {
                    ParamKind::Bool => c.compile_bool += 1,
                    ParamKind::Tristate => c.compile_tristate += 1,
                    ParamKind::Enum { .. } => c.compile_string += 1,
                    ParamKind::Hex { .. } => c.compile_hex += 1,
                    ParamKind::Int { .. } => c.compile_int += 1,
                },
            }
        }
        c
    }

    /// log10 of the number of distinct configurations (the paper quotes
    /// e.g. 3.7e13 permutations for the Unikraft experiment).
    pub fn log10_cardinality(&self) -> f64 {
        self.params
            .iter()
            .filter(|p| !p.fixed)
            .map(|p| (p.kind.cardinality() as f64).log10())
            .sum()
    }

    /// Indices of the parameters belonging to `stage`.
    pub fn stage_indices(&self, stage: Stage) -> Vec<usize> {
        (0..self.params.len())
            .filter(|&i| self.params[i].stage == stage)
            .collect()
    }

    /// Builds a sub-space containing only the named parameters (missing
    /// names are ignored). Used by Cozart-style reductions.
    pub fn subset(&self, names: &[&str]) -> ConfigSpace {
        let mut out = ConfigSpace::new();
        for name in names {
            if let Some(i) = self.index_of(name) {
                out.add(self.params[i].clone());
            }
        }
        out
    }
}

fn sample_int(min: i64, max: i64, log_scale: bool, rng: &mut impl Rng) -> i64 {
    if min == max {
        return min;
    }
    if log_scale && min >= 0 {
        // Log-uniform over [min, max]: uniform in ln(v - min + 1).
        let span = ((max - min) as f64 + 1.0).ln();
        let u = rng.random::<f64>() * span;
        let v = min + (u.exp() - 1.0).round() as i64;
        v.clamp(min, max)
    } else {
        rng.random_range(min..=max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> ConfigSpace {
        let mut s = ConfigSpace::new();
        s.add(ParamSpec::new("a", ParamKind::Bool, Stage::Runtime));
        s.add(
            ParamSpec::new("b", ParamKind::log_int(1, 1_000_000), Stage::Runtime)
                .with_default(Value::Int(128)),
        );
        s.add(ParamSpec::new("c", ParamKind::Tristate, Stage::CompileTime));
        s.add(
            ParamSpec::new(
                "d",
                ParamKind::choices(vec!["x", "y", "z"]),
                Stage::BootTime,
            )
            .with_default(Value::Choice(1)),
        );
        s
    }

    #[test]
    fn add_and_lookup() {
        let s = space();
        assert_eq!(s.len(), 4);
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("zz"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter")]
    fn duplicate_names_panic() {
        let mut s = space();
        s.add(ParamSpec::new("a", ParamKind::Bool, Stage::Runtime));
    }

    #[test]
    fn samples_are_always_valid() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..500 {
            let c = s.sample(&mut rng);
            assert!(s.violations(&c).is_empty());
        }
    }

    #[test]
    fn log_sampling_covers_orders_of_magnitude() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(5);
        let mut small = 0;
        let mut large = 0;
        for _ in 0..2000 {
            let v = s
                .sample(&mut rng)
                .by_name(&s, "b")
                .unwrap()
                .as_int()
                .unwrap();
            if v < 1000 {
                small += 1;
            }
            if v > 100_000 {
                large += 1;
            }
        }
        // Log-uniform: both decades well represented; linear-uniform would
        // give small < 1000 only ~0.1% of the time.
        assert!(small > 400, "small={small}");
        assert!(large > 100, "large={large}");
    }

    #[test]
    fn pinned_parameters_never_vary() {
        let mut s = space();
        assert!(s.pin("a", Value::Bool(true)));
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let c = s.sample(&mut rng);
            assert_eq!(c.by_name(&s, "a"), Some(Value::Bool(true)));
        }
    }

    #[test]
    fn pin_rejects_bad_value_or_name() {
        let mut s = space();
        assert!(!s.pin("b", Value::Bool(true)));
        assert!(!s.pin("missing", Value::Bool(true)));
    }

    #[test]
    fn sample_stage_keeps_other_stages_default() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..50 {
            let c = s.sample_stage(Stage::Runtime, &mut rng);
            assert_eq!(
                c.by_name(&s, "c"),
                Some(s.default_config().by_name(&s, "c").unwrap())
            );
            assert_eq!(c.by_name(&s, "d"), Some(Value::Choice(1)));
        }
    }

    #[test]
    fn mutate_changes_at_most_n_parameters() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(23);
        let base = s.default_config();
        let m = s.mutate(&base, 1, &mut rng);
        assert!(m.diff_indices(&base).len() <= 1);
    }

    #[test]
    fn census_counts() {
        let s = space();
        let c = s.census();
        assert_eq!(c.runtime, 2);
        assert_eq!(c.boot, 1);
        assert_eq!(c.compile_tristate, 1);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn cardinality_is_log_sum() {
        let s = space();
        // 2 * 1e6 * 3 * 3 = 1.8e7 -> log10 ~ 7.25.
        let lg = s.log10_cardinality();
        assert!((lg - 7.255).abs() < 0.01, "lg={lg}");
    }

    #[test]
    fn subset_preserves_specs() {
        let s = space();
        let sub = s.subset(&["b", "missing", "d"]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.spec(0).name, "b");
        assert_eq!(sub.spec(1).name, "d");
    }
}
