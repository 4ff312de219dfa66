//! Pins what every search algorithm proposes through the single-candidate
//! `propose` → `observe` loop (the paper's Fig. 3 loop, one candidate at a
//! time; Fig. 7 drives its algorithms this way).
//!
//! Random, grid, Bayesian, causal and a small DeepTune each run two seeded
//! streams: one maximizing under uniform sampling, one minimizing under
//! default-mutating sampling, both with a crash region. One FNV-1a hash
//! per algorithm covers every proposal's fingerprint and the algorithm's
//! `stats().memory_bytes` after every observation. A change to how any
//! algorithm picks its single candidate, consumes the RNG, or accounts its
//! memory moves that algorithm's hash, and the failure names it.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wayfinder::deeptune::{DeepTune, DeepTuneConfig, PoolConfig};
use wayfinder::jobfile::Direction;
use wayfinder::search::{
    BayesOpt, CausalSearch, GridSearch, Observation, RandomSearch, SamplePolicy, SearchAlgorithm,
    SearchContext,
};
use wf_configspace::{ConfigSpace, Configuration, Encoder, ParamKind, ParamSpec, Stage, Value};

/// FNV-1a over the little-endian bytes of each value.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Six parameters of every kind a grid axis knows: small enough that the
/// grid sweep runs out inside a stream and falls back to sampling.
fn space() -> ConfigSpace {
    let mut s = ConfigSpace::new();
    s.add(ParamSpec::new("x", ParamKind::int(0, 100), Stage::Runtime).with_default(Value::Int(50)));
    s.add(ParamSpec::new("y", ParamKind::int(0, 100), Stage::Runtime).with_default(Value::Int(50)));
    s.add(
        ParamSpec::new("size", ParamKind::log_int(1, 4096), Stage::Runtime)
            .with_default(Value::Int(64)),
    );
    s.add(ParamSpec::new("turbo", ParamKind::Bool, Stage::Runtime));
    s.add(ParamSpec::new(
        "mode",
        ParamKind::choices(vec!["a", "b", "c"]),
        Stage::Runtime,
    ));
    s.add(ParamSpec::new(
        "opt",
        ParamKind::Tristate,
        Stage::CompileTime,
    ));
    s
}

/// A smooth objective peaked at x = 70, y = 30, with a crash region:
/// `turbo` with a large `size` never comes back.
fn evaluate(c: &Configuration, space: &ConfigSpace) -> Observation {
    let int = |name: &str| c.by_name(space, name).and_then(|v| v.as_int()).unwrap() as f64;
    let turbo = c.by_name(space, "turbo").and_then(|v| v.as_bool()).unwrap();
    if turbo && int("size") > 256.0 {
        return Observation::crash(c.clone(), 12.0);
    }
    let (x, y) = (int("x"), int("y"));
    let mode = c
        .by_name(space, "mode")
        .and_then(|v| v.as_choice())
        .unwrap() as f64;
    let value = 100.0 - ((x - 70.0).powi(2) + (y - 30.0).powi(2)) / 50.0
        + 3.0 * mode
        + (int("size") + 1.0).ln();
    Observation::ok(c.clone(), value, 60.0)
}

/// Runs `iterations` single-candidate `propose` → `observe` steps and
/// hashes every proposal's fingerprint and the memory after each observe.
fn stream(
    alg: &mut dyn SearchAlgorithm,
    direction: Direction,
    policy: &SamplePolicy,
    iterations: usize,
    seed: u64,
    hash: &mut Fnv,
) {
    let space = space();
    let encoder = Encoder::new(&space);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut history: Vec<Observation> = Vec::new();
    for iteration in 0..iterations {
        let ctx = SearchContext {
            space: &space,
            encoder: &encoder,
            direction,
            policy,
            history: &history,
            iteration,
        };
        let c = alg.propose(&ctx, &mut rng);
        hash.u64(c.fingerprint());
        let obs = evaluate(&c, &space);
        alg.observe(&ctx, &obs);
        hash.u64(alg.stats().memory_bytes as u64);
        history.push(obs);
    }
}

/// Both streams of one algorithm, built fresh for each.
fn pin(make: &dyn Fn() -> Box<dyn SearchAlgorithm>, iterations: usize) -> u64 {
    let mut hash = Fnv::new();
    stream(
        make().as_mut(),
        Direction::Maximize,
        &SamplePolicy::Uniform,
        iterations,
        0x51_6e61,
        &mut hash,
    );
    stream(
        make().as_mut(),
        Direction::Minimize,
        &SamplePolicy::MutateDefault { max_changes: 3 },
        iterations,
        0x51_6e62,
        &mut hash,
    );
    hash.0
}

fn small_deeptune() -> DeepTuneConfig {
    DeepTuneConfig {
        warmup: 6,
        pool: PoolConfig {
            random: 16,
            mutants: 8,
            max_changes: 2,
        },
        epochs_per_observe: 1,
        batch_size: 8,
        hidden: 8,
        centroids: 4,
        ..DeepTuneConfig::default()
    }
}

#[test]
fn single_candidate_streams_are_pinned() {
    let cases: [(&str, u64, u64); 5] = [
        (
            "random",
            pin(&|| Box::new(RandomSearch::new()), 40),
            0x5a72_3911_a051_5035,
        ),
        (
            "grid",
            pin(&|| Box::new(GridSearch::new(4)), 40),
            0xff91_5718_90be_ea5a,
        ),
        (
            "bayesian",
            pin(&|| Box::new(BayesOpt::new()), 40),
            0x7017_c09e_7b26_e7a4,
        ),
        (
            "causal",
            pin(&|| Box::new(CausalSearch::new()), 40),
            0x9fc5_f9ca_839f_e8aa,
        ),
        (
            "deeptune",
            pin(&|| Box::new(DeepTune::new(small_deeptune())), 24),
            0xe125_6e02_5453_ab16,
        ),
    ];
    let moved: Vec<String> = cases
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}: {got:#018x} (pinned {want:#018x})"))
        .collect();
    assert!(moved.is_empty(), "moved: {moved:?}");
}
