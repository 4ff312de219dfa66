//! Per-candidate evaluation: what one simulated VM worker does.
//!
//! The paper's platform is "built ... as a collection of microservices"
//! that farm evaluations out to VM workers. This module is the body of
//! one such worker: [`evaluate_candidate`] builds (or reuses), boots and
//! benchmarks a single configuration. Where a wave's candidates run is
//! the backend's concern ([`crate::backend`]) and how a wave is probed,
//! dispatched and published is [`crate::router::dispatch_wave`]'s; this
//! module never touches the session's image cache, so every backend
//! produces the same results.
//!
//! Each candidate's virtual draws derive from a per-candidate RNG
//! ([`derive_seed`] over `(session_seed, index)`), never a shared stream,
//! so a candidate's measured outcome does not depend on which worker ran
//! it or what ran before it (see `pipeline` for the exact
//! worker-count-invariance statement). Benchmark repetitions run one
//! after the other ([`run_repetitions`]) and their durations are charged
//! *sequentially* to the candidate ("all test configurations are
//! benchmarked one after the other" — experiments are never co-located).
//!
//! # Examples
//!
//! A candidate's outcome derives only from `(session_seed, index)`:
//! evaluating it twice — as different lanes, backends, or machines
//! would — produces the bit-identical result:
//!
//! ```
//! use wf_kconfig::LinuxVersion;
//! use wf_ossim::{App, AppId, SimOs};
//! use wf_platform::workers::evaluate_candidate;
//! use wf_platform::{derive_seed, EvalTarget, SimTarget};
//!
//! // Independent streams, not adjacent seeds.
//! assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
//!
//! let target = SimTarget::new(
//!     SimOs::linux_runtime(LinuxVersion::V4_19, 56),
//!     App::by_id(AppId::Nginx),
//! );
//! let config = target.space().default_config();
//! let (a, _) = evaluate_candidate(&target, &config, 3, 42, 2, None, None);
//! let (b, _) = evaluate_candidate(&target, &config, 3, 42, 2, None, None);
//! assert_eq!(a.duration_s.to_bits(), b.duration_s.to_bits());
//! assert_eq!(a.outcome.is_ok(), b.outcome.is_ok());
//! ```

use crate::target::EvalTarget;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wf_configspace::Configuration;
use wf_ossim::{BenchResult, CrashReport, KernelImage};

/// Derives an independent RNG seed from a base seed and a stream index
/// (SplitMix64 finalizer over the pair).
///
/// The previous scheme, `seed.wrapping_add(i)`, collides across adjacent
/// candidate seeds: candidate `s` repetition 1 and candidate `s + 1`
/// repetition 0 drew the *same* stream. The multiplicative offset plus
/// the SplitMix64 avalanche decorrelates the full `(seed, index)` grid.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// RNG stream tag for a candidate's build draws ([`build_candidate`]).
const STREAM_BUILD: u64 = 0;
/// RNG stream tag for a candidate's benchmark repetitions.
const STREAM_BENCH: u64 = 1;
/// RNG stream tag for a candidate's boot draws. Kept separate from the
/// build stream so a cache hit (which skips the build's draws entirely)
/// cannot shift the boot and benchmark outcomes — on compile targets two
/// same-image candidates in one wave both miss the cache, and only the
/// *build duration* may legitimately depend on who wins.
const STREAM_BOOT: u64 = 2;
/// RNG stream tag for a continuous session's re-draw of a successful
/// candidate's metric against the workload phase active at its own
/// virtual compute time (see [`crate::epoch`]).
pub(crate) const STREAM_DRIFT: u64 = 3;
/// RNG stream tag for the deployed reference's telemetry sample — the
/// one noisy measurement per candidate a drift detector observes. Its
/// own stream so it exists (and is identical) whether or not the
/// candidate itself crashed or hit the image cache.
pub(crate) const STREAM_SIGNAL: u64 = 4;

/// Runs `reps` benchmark repetitions, one model draw each, one after the
/// other.
///
/// Returns per-repetition outcomes in repetition order. Repetition `i`
/// draws from `derive_seed(seed, i)` regardless of how many repetitions
/// run.
pub fn run_repetitions(
    target: &dyn EvalTarget,
    image: &KernelImage,
    config: &Configuration,
    reps: usize,
    seed: u64,
) -> Vec<(Result<BenchResult, CrashReport>, f64)> {
    assert!(reps >= 1, "need at least one repetition");
    (0..reps)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, i as u64));
            target.bench(image, config, &mut rng)
        })
        .collect()
}

/// Aggregates repetition outcomes: mean metric and memory over successful
/// runs, total virtual duration, or the first crash if *any* repetition
/// crashed (deterministic rules crash every repetition identically, but a
/// conservative platform treats one failure as a failed configuration).
pub fn aggregate(
    outcomes: Vec<(Result<BenchResult, CrashReport>, f64)>,
) -> (Result<BenchResult, CrashReport>, f64) {
    let total_s: f64 = outcomes.iter().map(|(_, d)| d).sum();
    let mut metrics = Vec::new();
    let mut memories = Vec::new();
    for (result, _) in &outcomes {
        match result {
            Ok(r) => {
                metrics.push(r.metric);
                memories.push(r.memory_mb);
            }
            Err(crash) => return (Err(crash.clone()), total_s),
        }
    }
    let n = metrics.len() as f64;
    (
        Ok(BenchResult {
            metric: metrics.iter().sum::<f64>() / n,
            memory_mb: memories.iter().sum::<f64>() / n,
        }),
        total_s,
    )
}

/// The full outcome of evaluating one candidate on a worker.
///
/// Deliberately does *not* carry the configuration: results come back in
/// candidate order, so callers index into the candidate list they already
/// own instead of paying one configuration clone per evaluation.
#[derive(Clone, Debug)]
pub struct CandidateEval {
    /// Measurement or crash.
    pub outcome: Result<BenchResult, CrashReport>,
    /// Whether the build was skipped via the session's image cache.
    pub build_skipped: bool,
    /// Virtual seconds the candidate cost (build + boot + repetitions).
    pub duration_s: f64,
}

/// Builds (or reuses) one candidate's image from the candidate's own
/// build stream, `derive_seed(derive_seed(session_seed, index),
/// STREAM_BUILD)`. [`evaluate_candidate`] and the session's replay both
/// build through here, so a replayed build is the live one.
pub(crate) fn build_candidate(
    target: &dyn EvalTarget,
    config: &Configuration,
    index: usize,
    session_seed: u64,
    reuse: Option<&KernelImage>,
    working_tree: Option<&Configuration>,
) -> (Result<KernelImage, CrashReport>, f64) {
    let candidate_seed = derive_seed(session_seed, index as u64);
    let mut rng = StdRng::seed_from_u64(derive_seed(candidate_seed, STREAM_BUILD));
    target.build(config, reuse, working_tree, &mut rng)
}

/// Evaluates one candidate end to end: build (or reuse), boot, benchmark
/// repetitions. Returns the evaluation plus the built (or reused) image,
/// which the caller publishes to the session's cache — the cache itself is
/// never touched here, so a wave's cache protocol stays deterministic
/// (see [`crate::router::dispatch_wave`]).
///
/// `index` is the candidate's global position in the session history; all
/// virtual-cost draws derive from `(session_seed, index)`, never from a
/// shared RNG, so the outcome does not depend on which worker ran it or
/// what ran before it. `reuse` is the cache probe's answer for this
/// candidate's fingerprint; `working_tree` is the worker's last-built
/// configuration (incremental-rebuild timing on compile targets). The
/// caller advances that tree to `config` when an image comes back.
pub fn evaluate_candidate(
    target: &dyn EvalTarget,
    config: &Configuration,
    index: usize,
    session_seed: u64,
    repetitions: usize,
    reuse: Option<&KernelImage>,
    working_tree: Option<&Configuration>,
) -> (CandidateEval, Option<KernelImage>) {
    let candidate_seed = derive_seed(session_seed, index as u64);
    let mut boot_rng = StdRng::seed_from_u64(derive_seed(candidate_seed, STREAM_BOOT));

    let build_skipped = reuse.is_some();
    let (built, build_s) =
        build_candidate(target, config, index, session_seed, reuse, working_tree);

    let image = match built {
        Err(crash) => {
            return (
                CandidateEval {
                    outcome: Err(crash),
                    build_skipped,
                    duration_s: build_s,
                },
                None,
            )
        }
        Ok(image) => image,
    };

    let (booted, boot_s) = target.boot(&image, config, &mut boot_rng);
    if let Err(crash) = booted {
        return (
            CandidateEval {
                outcome: Err(crash),
                build_skipped,
                duration_s: build_s + boot_s,
            },
            Some(image),
        );
    }

    let outcomes = run_repetitions(
        target,
        &image,
        config,
        repetitions,
        derive_seed(candidate_seed, STREAM_BENCH),
    );
    let (outcome, bench_s) = aggregate(outcomes);
    (
        CandidateEval {
            outcome,
            build_skipped,
            duration_s: build_s + boot_s + bench_s,
        },
        Some(image),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::SimTarget;
    use std::collections::HashSet;
    use wf_kconfig::LinuxVersion;
    use wf_ossim::{App, AppId, SimOs};

    fn sim_target(app: AppId) -> SimTarget {
        SimTarget::new(
            SimOs::linux_runtime(LinuxVersion::V4_19, 64),
            App::by_id(app),
        )
    }

    #[test]
    fn repetitions_are_deterministic_per_seed() {
        let target = sim_target(AppId::Redis);
        let cfg = target.space().default_config();
        let mut rng = StdRng::seed_from_u64(1);
        let (img, _) = target.build(&cfg, None, None, &mut rng);
        let img = img.unwrap();
        let a = run_repetitions(&target, &img, &cfg, 4, 99);
        let b = run_repetitions(&target, &img, &cfg, 4, 99);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.0.as_ref().unwrap().metric, y.0.as_ref().unwrap().metric);
        }
    }

    #[test]
    fn aggregate_means_and_sums() {
        let outcomes = vec![
            (
                Ok(BenchResult {
                    metric: 10.0,
                    memory_mb: 100.0,
                }),
                50.0,
            ),
            (
                Ok(BenchResult {
                    metric: 20.0,
                    memory_mb: 120.0,
                }),
                52.0,
            ),
        ];
        let (result, total) = aggregate(outcomes);
        let r = result.unwrap();
        assert_eq!(r.metric, 15.0);
        assert_eq!(r.memory_mb, 110.0);
        assert_eq!(total, 102.0);
    }

    #[test]
    fn aggregate_propagates_crashes_with_time() {
        let outcomes = vec![(
            Err(CrashReport {
                phase: wf_ossim::Phase::Run,
                rule: "x".into(),
            }),
            30.0,
        )];
        let (result, total) = aggregate(outcomes);
        assert!(result.is_err());
        assert_eq!(total, 30.0);
    }

    #[test]
    fn derived_rep_seeds_never_collide_across_adjacent_candidates() {
        // Regression for the `seed.wrapping_add(i)` scheme, under which
        // candidate `s` rep `i` and candidate `s + k` rep `i - k` shared a
        // seed. A 100 × 100 grid of (adjacent base seed, repetition) pairs
        // must map to 10 000 distinct derived seeds.
        let base = 0xDEAD_BEEF_u64;
        let mut seen = HashSet::new();
        for candidate in 0..100u64 {
            for rep in 0..100u64 {
                assert!(
                    seen.insert(derive_seed(base + candidate, rep)),
                    "collision at candidate {candidate} rep {rep}"
                );
            }
        }
        // And the old scheme demonstrably collides on the same grid.
        let mut old = HashSet::new();
        let mut old_collisions = 0;
        for candidate in 0..100u64 {
            for rep in 0..100u64 {
                if !old.insert((base + candidate).wrapping_add(rep)) {
                    old_collisions += 1;
                }
            }
        }
        assert!(old_collisions > 0, "old scheme should collide on this grid");
    }
}
