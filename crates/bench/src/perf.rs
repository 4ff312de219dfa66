//! The controller-side performance suite behind `wfctl bench`.
//!
//! Wayfinder's core loop is "propose → evaluate → observe" repeated
//! thousands of times; the paper's scalability story (Fig. 7, Fig. 8)
//! only holds if controller overhead stays negligible next to
//! build/boot/bench time. This module times exactly those controller hot
//! paths — batch proposals and observations for all four search
//! algorithms at growing history sizes, DeepTune forward/score batches,
//! session-store appends and replays, and wave-dispatch overhead at
//! several wave widths — using the vendored criterion stand-in, and
//! emits a stable machine-readable JSON document (`BENCH_search.json` at
//! the repo root is the committed baseline) so the repo carries a perf
//! trajectory CI can diff against.
//!
//! Determinism: every fixture configuration draws from a per-candidate
//! RNG seeded through `wf_platform::derive_seed(SEED, index)` — the same
//! SplitMix64 stream-derivation the evaluation pipeline uses — so bench
//! inputs are byte-identical across runs and machines.
//!
//! Cross-machine comparison: absolute ns/iter numbers are
//! machine-dependent, so the suite also measures `calibrate/spin`, a
//! fixed arithmetic workload. `perf_compare` divides every op by its
//! file's calibration time before comparing, turning the regression gate
//! into a machine-relative check.
//!
//! Besides the main suite, [`run_target_suite`] times the same
//! controller hot paths on an arbitrary target's own configuration space
//! and sampling policy (`wfctl bench --target <keyword>`). Compile-stage
//! spaces differ from the main fixture in both width (hundreds of
//! parameters) and sampling (mutate-the-default), so they carry their
//! own committed baselines (`BENCH_unikraft.json`,
//! `BENCH_linux-riscv.json`) which `perf_compare` gates in CI alongside
//! `BENCH_search.json`. Each JSON document carries a suite tag naming
//! the op set it must cover, so a per-target file can never pass the
//! stale-baseline check against the wrong declared set.

use criterion::{black_box, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use wf_configspace::{ConfigSpace, Encoder};
use wf_deeptune::{rank, Dtm, DtmConfig, Prediction, ScoreParams};
use wf_jobfile::{Budget, Direction, Job, RoutingStrategy};
use wf_kconfig::LinuxVersion;
use wf_nn::Matrix;
use wf_ossim::{App, AppId, SimOs};
use wf_platform::store::{write_event, JsonValue, CHAIN_GENESIS};
use wf_platform::{
    derive_seed, EventSink, JsonlSink, Record, Router, Session, SessionSpec, SessionStore,
    WaveStats,
};
use wf_search::{
    BayesOpt, CausalSearch, GridSearch, Observation, RandomSearch, SamplePolicy, SearchAlgorithm,
    SearchContext,
};

/// Base seed for every perf fixture; per-candidate streams derive from it
/// via [`wf_platform::derive_seed`].
pub const SEED: u64 = 0xBE7C;

/// History sizes the search-algorithm ops are measured at.
pub const HISTORY_SIZES: [usize; 3] = [50, 200, 800];

/// History sizes the per-target suite measures at. Compile-stage spaces
/// reach hundreds of parameters (the RISC-V space is ~477), so the
/// per-target baselines stop at 200 where the main suite continues
/// to 800.
pub const TARGET_HISTORY_SIZES: [usize; 2] = [50, 200];

/// Worker-pool widths the wave-dispatch op is measured at.
pub const POOL_WIDTHS: [usize; 3] = [1, 4, 8];

/// Wave width used when feeding and exercising batch ops.
const WAVE: usize = 8;

/// Candidates in the ledger the `store/load` and `store/verify` ops read.
const LEDGER_CANDIDATES: usize = 256;

/// Synthetic source files the `lint/scan_workspace` op analyzes.
const LINT_FILES: usize = 64;

/// One measured operation.
#[derive(Clone, Debug, PartialEq)]
pub struct OpResult {
    /// Operation name, slash-separated (`search/bayes/observe_propose`).
    pub op: String,
    /// Size axis: history length, batch rows, or worker count.
    pub n: u64,
    /// Median wall-clock nanoseconds per iteration (the criterion
    /// stand-in times every iteration individually and reports the
    /// median, so one scheduling spike cannot skew an op).
    pub ns_per_iter: f64,
    /// Minimum wall-clock nanoseconds per iteration — the noise floor.
    /// Contention only ever adds time to deterministic compute, so this
    /// is the statistic the regression gate compares.
    pub min_ns_per_iter: f64,
    /// Iterations per second (1e9 / ns_per_iter).
    pub throughput_per_s: f64,
}

/// Every (op, n) pair the suite declares, in emission order. The smoke
/// test asserts the emitted JSON covers exactly this set; growing the
/// suite means updating the committed baseline.
pub fn declared_ops() -> Vec<(String, u64)> {
    let mut ops = vec![("calibrate/spin".to_string(), 0)];
    for alg in ["random", "grid", "bayes", "causal"] {
        for n in HISTORY_SIZES {
            ops.push((format!("search/{alg}/propose_batch"), n as u64));
            ops.push((format!("search/{alg}/observe_batch"), n as u64));
        }
    }
    ops.push(("search/bayes/observe_propose".to_string(), 800));
    ops.push(("search/bayes/observe_propose_full".to_string(), 800));
    ops.push(("search/causal/observe_propose".to_string(), 800));
    ops.push(("search/causal/observe_propose_scratch".to_string(), 800));
    ops.push(("search/bayes/propose_pool".to_string(), 800));
    ops.push(("search/bayes/propose_pool_scalar".to_string(), 800));
    ops.push(("deeptune/forward_batch".to_string(), 256));
    ops.push(("deeptune/score_batch".to_string(), 256));
    ops.push(("deeptune/train_batch".to_string(), 64));
    ops.push(("nn/matmul_blocked".to_string(), 256));
    ops.push(("store/jsonl_append".to_string(), 64));
    ops.push(("store/jsonl_append_waves".to_string(), 8));
    ops.push(("store/write_event".to_string(), 64));
    ops.push(("store/replay".to_string(), 64));
    ops.push(("store/load".to_string(), LEDGER_CANDIDATES as u64));
    ops.push(("store/verify".to_string(), LEDGER_CANDIDATES as u64));
    ops.push(("drift/detector_step".to_string(), 256));
    for w in POOL_WIDTHS {
        ops.push(("platform/wave_dispatch".to_string(), w as u64));
    }
    ops.push(("platform/routing_assign".to_string(), WAVE as u64));
    ops.push(("lint/scan_workspace".to_string(), LINT_FILES as u64));
    ops
}

/// Every (op, n) pair [`run_target_suite`] emits, in emission order. A
/// per-target baseline (`BENCH_<keyword>.json`) must cover exactly this
/// set; `perf_compare` refuses a stale per-target file the same way it
/// refuses a stale `BENCH_search.json`.
pub fn target_declared_ops() -> Vec<(String, u64)> {
    let mut ops = vec![("calibrate/spin".to_string(), 0)];
    ops.push(("target/sample_batch".to_string(), WAVE as u64));
    ops.push(("target/encode_batch".to_string(), WAVE as u64));
    for alg in ["random", "bayes", "causal"] {
        for n in TARGET_HISTORY_SIZES {
            ops.push((format!("search/{alg}/propose_batch"), n as u64));
            ops.push((format!("search/{alg}/observe_batch"), n as u64));
        }
    }
    ops
}

/// The shared fixture space: the 64-parameter Linux 4.19 runtime space
/// (the same substrate the paper's runtime searches use).
fn fixture_space() -> ConfigSpace {
    SimOs::linux_runtime(LinuxVersion::V4_19, 64).space
}

/// A deterministic synthetic history of `n` observations over `space`,
/// drawn under `policy`: candidate `i` samples from
/// `derive_seed(SEED, i)`, its value is a smooth function of its
/// encoding, and every ninth candidate crashes.
fn policy_history(
    space: &ConfigSpace,
    encoder: &Encoder,
    policy: &SamplePolicy,
    n: usize,
) -> Vec<Observation> {
    (0..n)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(derive_seed(SEED, i as u64));
            let config = policy.sample(space, &mut rng);
            if i % 9 == 0 {
                Observation::crash(config, 10.0)
            } else {
                let x = encoder.encode(space, &config);
                let value: f64 = x
                    .iter()
                    .enumerate()
                    .map(|(d, v)| v * ((d % 7) as f64 - 3.0))
                    .sum();
                Observation::ok(config, value, 60.0)
            }
        })
        .collect()
}

/// [`policy_history`] under uniform sampling — the main suite's history.
fn fixture_history(space: &ConfigSpace, encoder: &Encoder, n: usize) -> Vec<Observation> {
    policy_history(space, encoder, &SamplePolicy::Uniform, n)
}

/// One synthetic source file for the `lint/scan_workspace` op: a
/// deterministic, per-index mix of the token shapes the analyzer has to
/// work hardest on — strings and comments carrying decoy mentions, a
/// raw string, hash-container iteration with and without a sort, an
/// annotated carve-out, and a `#[cfg(test)]` module — so the measured
/// cost tracks real workspace files rather than a best-case lex.
fn lint_corpus_file(i: usize) -> (String, String) {
    let path = format!("crates/demo{}/src/mod{}.rs", i % 7, i);
    let text = format!(
        r##"//! Module {i}: exercises the lexer ("Instant::now" in a string,
//! `HashMap` in a doc comment) and the rule windows.

use std::collections::HashMap;

/* block comment mentioning thread_rng and process::exit {i} */
pub fn decoys_{i}() -> &'static str {{
    let _s = "Instant::now() and .lock().unwrap() inside a string";
    r#"raw string with env::var("PATH") and SystemTime::now"#
}}

pub fn sorted_iteration_{i}(m: &HashMap<String, u64>) -> Vec<String> {{
    let mut keys: Vec<String> = m.keys().cloned().collect();
    keys.sort_unstable();
    keys
}}

pub fn escaping_iteration_{i}(m: &HashMap<String, u64>) -> Vec<String> {{
    m.keys().cloned().collect()
}}

pub fn timed_{i}() -> std::time::Instant {{
    // wf-lint: allow(wall-clock-in-det-path, reason = "bench corpus carve-out {i}")
    std::time::Instant::now()
}}

pub fn wall_clock_violation_{i}() -> std::time::Instant {{
    std::time::Instant::now()
}}

#[cfg(test)]
mod tests_{i} {{
    #[test]
    fn host_is_fine_here_{i}() {{
        let _ = std::time::Instant::now();
        let _ = std::env::var("HOME");
    }}
}}
"##
    );
    (path, text)
}

struct Fixture {
    space: ConfigSpace,
    encoder: Encoder,
    policy: SamplePolicy,
}

impl Fixture {
    fn new() -> Fixture {
        let space = fixture_space();
        let encoder = Encoder::new(&space);
        Fixture {
            space,
            encoder,
            policy: SamplePolicy::Uniform,
        }
    }

    /// A fixture over an arbitrary target's space and sampling policy
    /// (the per-target suite's substrate).
    fn for_target(space: &ConfigSpace, policy: &SamplePolicy) -> Fixture {
        Fixture {
            space: space.clone(),
            encoder: Encoder::new(space),
            policy: policy.clone(),
        }
    }

    fn ctx<'a>(&'a self, history: &'a [Observation]) -> SearchContext<'a> {
        SearchContext {
            space: &self.space,
            encoder: &self.encoder,
            direction: Direction::Maximize,
            policy: &self.policy,
            history,
            iteration: history.len(),
        }
    }

    /// Builds an algorithm by name, preloaded with `history` through one
    /// `observe_batch` (the wave-boundary path, so model algorithms pay
    /// exactly one refit).
    fn algorithm(&self, name: &str, history: &[Observation]) -> Box<dyn SearchAlgorithm> {
        let mut alg: Box<dyn SearchAlgorithm> = match name {
            "random" => Box::new(RandomSearch::new()),
            "grid" => Box::new(GridSearch::new(8)),
            "bayes" => Box::new(BayesOpt::new()),
            "bayes_full" => Box::new(BayesOpt::new().with_full_refit(true)),
            "bayes_scalar" => Box::new(BayesOpt::new().with_scalar_ei(true)),
            "causal" => Box::new(CausalSearch::new()),
            "causal_scratch" => Box::new(CausalSearch::new().with_scratch_stats(true)),
            other => panic!("unknown fixture algorithm {other:?}"),
        };
        if !history.is_empty() {
            alg.observe_batch(&self.ctx(&[]), history);
        }
        alg
    }
}

/// Fixed arithmetic workload for machine-speed calibration.
fn spin() -> u64 {
    let mut acc: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..200_000u64 {
        acc = acc.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(i);
        acc ^= acc >> 33;
    }
    acc
}

/// Sample counts per op class: the 800-history model refits cost tens of
/// milliseconds per iteration so a handful of samples suffices, while the
/// µs-scale ops are noise-dominated unless they are sampled heavily
/// (hundreds of µs-iterations still cost ~nothing).
fn samples(quick: bool, heavy: bool) -> usize {
    match (quick, heavy) {
        // Heavy ops feed the ≥2x speedup gate: a 5-sample median needs
        // three independent scheduling spikes to move, even in quick
        // mode (costs ~1s extra; the ratio gate is worth it).
        (_, true) => 5,
        (true, false) => 20,
        (false, false) => 100,
    }
}

/// Sample count for ops dominated by thread/pool spawn latency. Spawn
/// cost has a heavy tail, so the minimum converges slowly: 20 quick-mode
/// samples sit 30-50% above the 100-sample floor the committed baseline
/// records, which reads as a phantom regression. These ops run ~1ms per
/// iteration, so full sampling in both modes costs well under a second
/// and keeps the quick gate comparing like with like.
fn spawn_samples() -> usize {
    samples(false, false)
}

/// Runs one op on a fresh quiet criterion instance and records it.
fn bench_op(
    results: &mut Vec<OpResult>,
    sample_size: usize,
    op: &str,
    n: u64,
    f: impl FnMut(&mut criterion::Bencher),
) {
    let mut c = Criterion::default().sample_size(sample_size).quiet();
    c.bench_function(op, f);
    let rec = &c.results()[0];
    let ns = rec.ns_per_iter.max(1e-3);
    results.push(OpResult {
        op: op.to_string(),
        n,
        ns_per_iter: rec.ns_per_iter,
        min_ns_per_iter: rec.min_ns_per_iter,
        throughput_per_s: 1e9 / ns,
    });
}

/// Runs the full suite. `quick` trims sample counts (CI smoke); the op
/// set is identical in both modes.
pub fn run_suite(quick: bool) -> Vec<OpResult> {
    let mut results = Vec::new();
    let fx = Fixture::new();

    // --- Machine-speed calibration. ------------------------------------
    bench_op(
        &mut results,
        samples(quick, false),
        "calibrate/spin",
        0,
        |b| b.iter(|| black_box(spin())),
    );

    // --- Batch ask/tell for all four algorithms at growing histories. --
    for alg_name in ["random", "grid", "bayes", "causal"] {
        for &n in &HISTORY_SIZES {
            // Only the 800-history GP ops cost tens of milliseconds per
            // iteration; everything else is cheap enough to sample
            // heavily, which is what keeps the regression gate stable.
            let heavy = n >= 800 && alg_name == "bayes";
            let history = fixture_history(&fx.space, &fx.encoder, n);

            // propose_batch: one preloaded model proposes waves.
            let mut alg = fx.algorithm(alg_name, &history);
            let mut rng = StdRng::seed_from_u64(derive_seed(SEED, 1 << 32));
            bench_op(
                &mut results,
                samples(quick, heavy),
                &format!("search/{alg_name}/propose_batch"),
                n as u64,
                |b| {
                    let ctx = fx.ctx(&history);
                    b.iter(|| black_box(alg.propose_batch(WAVE, &ctx, &mut rng)))
                },
            );

            // observe_batch: tell a preloaded model one fresh wave.
            // Every sample rebuilds the preloaded model in setup, so
            // each one observes the same wave at the same history size.
            let prefix = &history[..n - WAVE];
            let wave = &history[n - WAVE..];
            bench_op(
                &mut results,
                samples(quick, heavy),
                &format!("search/{alg_name}/observe_batch"),
                n as u64,
                |b| {
                    b.iter_batched(
                        || fx.algorithm(alg_name, prefix),
                        |mut alg| {
                            alg.observe_batch(&fx.ctx(prefix), wave);
                            black_box(alg.stats())
                        },
                        criterion::BatchSize::LargeInput,
                    )
                },
            );
        }
    }

    // --- The tentpole measurement: single observe-then-propose at
    // history 800, incremental vs the pre-optimization full paths. ------
    let history800 = fixture_history(&fx.space, &fx.encoder, 800);
    let next = fixture_history(&fx.space, &fx.encoder, 801)
        .pop()
        .expect("801st");
    for (op, alg_name) in [
        ("search/bayes/observe_propose", "bayes"),
        ("search/bayes/observe_propose_full", "bayes_full"),
        ("search/causal/observe_propose", "causal"),
        ("search/causal/observe_propose_scratch", "causal_scratch"),
    ] {
        let heavy = alg_name.starts_with("bayes");
        bench_op(&mut results, samples(quick, heavy), op, 800, |b| {
            b.iter_batched(
                || {
                    (
                        fx.algorithm(alg_name, &history800),
                        StdRng::seed_from_u64(derive_seed(SEED, 2 << 32)),
                    )
                },
                |(mut alg, mut rng)| {
                    let ctx = fx.ctx(&history800);
                    alg.observe(&ctx, &next);
                    black_box(alg.propose(&ctx, &mut rng))
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }

    // --- The batched-EI tentpole: one full pool proposal at history 800,
    // matrix-level batched scorer vs the per-candidate loop it replaced.
    // Both variants run the identical RNG stream and pick the identical
    // argmax (bit-equality is proven in the wf-search unit tests and
    // tests/refit_equivalence.rs), so the delta here is purely the cost
    // of streaming the packed Cholesky factor once per candidate block
    // instead of once per candidate.
    for (op, alg_name) in [
        ("search/bayes/propose_pool", "bayes"),
        ("search/bayes/propose_pool_scalar", "bayes_scalar"),
    ] {
        let mut alg = fx.algorithm(alg_name, &history800);
        let mut rng = StdRng::seed_from_u64(derive_seed(SEED, 5 << 32));
        bench_op(&mut results, samples(quick, true), op, 800, |b| {
            let ctx = fx.ctx(&history800);
            b.iter(|| black_box(alg.propose(&ctx, &mut rng)))
        });
    }

    // --- DeepTune forward / score / train batches. ----------------------
    let dim = fx.encoder.dim();
    let feats: Vec<Vec<f64>> = fixture_history(&fx.space, &fx.encoder, 256)
        .iter()
        .map(|o| fx.encoder.encode(&fx.space, &o.config))
        .collect();
    let flat: Vec<f64> = feats.iter().flatten().copied().collect();
    let x256 = Matrix::from_vec(256, dim, flat);
    let model = Dtm::new(DtmConfig::for_input(dim));
    bench_op(
        &mut results,
        samples(quick, false),
        "deeptune/forward_batch",
        256,
        |b| b.iter(|| black_box(model.predict(&x256))),
    );

    let preds: Vec<Prediction> = model.predict(&x256);
    let goodness: Vec<f64> = preds.iter().map(|p| p.mu).collect();
    let known: Vec<Vec<f64>> = feats[..128].to_vec();
    let params = ScoreParams::default();
    bench_op(
        &mut results,
        samples(quick, false),
        "deeptune/score_batch",
        256,
        |b| b.iter(|| black_box(rank(&params, &preds, &goodness, &feats, &known))),
    );

    let y64: Vec<f64> = (0..64).map(|i| (i % 13) as f64 / 13.0).collect();
    let c64: Vec<bool> = (0..64).map(|i| i % 5 == 0).collect();
    let x64 = x256.select_rows(&(0..64).collect::<Vec<_>>());
    let mut train_model = Dtm::new(DtmConfig::for_input(dim));
    bench_op(
        &mut results,
        samples(quick, false),
        "deeptune/train_batch",
        64,
        |b| b.iter(|| black_box(train_model.train_batch(&x64, &y64, &c64))),
    );

    // --- The nn kernel under every Dense forward: the blocked matmul on
    // DTM-shaped operands (a 256-row feature batch times a features x 128
    // weight).
    let hidden = 128usize;
    let wdata: Vec<f64> = (0..dim * hidden)
        .map(|i| ((i.wrapping_mul(2_654_435_761) % 2048) as f64) / 1024.0 - 1.0)
        .collect();
    let weight = Matrix::from_vec(dim, hidden, wdata);
    bench_op(
        &mut results,
        samples(quick, false),
        "nn/matmul_blocked",
        256,
        |b| b.iter(|| black_box(x256.matmul(&weight))),
    );

    // --- Session store: JSONL append and deterministic replay. ----------
    let tmp = std::env::temp_dir().join(format!("wf-bench-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create bench temp dir");
    let events = store_fixture_events(&fx.space);
    let mut counter = 0usize;
    bench_op(
        &mut results,
        samples(quick, false),
        "store/jsonl_append",
        64,
        |b| {
            b.iter_batched(
                || {
                    counter += 1;
                    tmp.join(format!("events-{counter}.jsonl"))
                },
                |path: PathBuf| {
                    let mut sink = JsonlSink::append(&path).expect("open sink");
                    for e in &events {
                        sink.on_event(e);
                    }
                    sink.flush().expect("flush");
                },
                criterion::BatchSize::LargeInput,
            )
        },
    );

    // Same 65 events, committed as 8 wave-sized batches instead of one:
    // measures the per-wave buffer/commit path the batched sink runs in a
    // real session (one write+flush per WaveCompleted, not per event).
    let wave_events = store_fixture_waves(&fx.space);
    let mut wcounter = 0usize;
    bench_op(
        &mut results,
        samples(quick, false),
        "store/jsonl_append_waves",
        8,
        |b| {
            b.iter_batched(
                || {
                    wcounter += 1;
                    tmp.join(format!("events-w{wcounter}.jsonl"))
                },
                |path: PathBuf| {
                    let mut sink = JsonlSink::append(&path).expect("open sink");
                    for e in &wave_events {
                        sink.on_event(e);
                    }
                    sink.flush().expect("flush");
                },
                criterion::BatchSize::LargeInput,
            )
        },
    );

    // The same 65 events encoded into one reused buffer, with no file:
    // the ledger codec alone, without the open and tail-heal of a fresh
    // log that dominate both append ops.
    let mut line = String::new();
    bench_op(
        &mut results,
        samples(quick, false),
        "store/write_event",
        64,
        |b| {
            b.iter(|| {
                line.clear();
                for e in &events {
                    write_event(e, Some(CHAIN_GENESIS), &mut line);
                    line.push('\n');
                }
                black_box(line.len())
            })
        },
    );

    let make_session = || {
        Session::new(
            SimOs::linux_runtime(LinuxVersion::V4_19, 64),
            App::by_id(AppId::Nginx),
            Box::new(RandomSearch::new()),
            SessionSpec {
                budget: Budget {
                    iterations: Some(64),
                    time_seconds: None,
                },
                seed: SEED,
                workers: 4,
                ..SessionSpec::default()
            },
        )
    };
    let mut donor = make_session();
    let _ = donor.run();
    let stored: Vec<Record> = donor.history().records().to_vec();
    let wave_sizes: Vec<usize> = donor.waves().iter().map(|w| w.size).collect();
    bench_op(
        &mut results,
        samples(quick, false),
        "store/replay",
        64,
        |b| {
            b.iter_batched(
                make_session,
                |mut session| {
                    session.replay(&stored, &wave_sizes).expect("replay");
                    black_box(session.compute_s())
                },
                criterion::BatchSize::LargeInput,
            )
        },
    );

    // A ledger written by a real seeded session on `linux-4.19`, 200
    // config tokens per candidate line, read back by the two passes every
    // report, resume and verify makes over a store.
    let store = SessionStore::create(tmp.join("ledger"), &Job::default()).expect("create store");
    {
        let mut writer = Session::new(
            SimOs::linux_runtime(LinuxVersion::V4_19, 200),
            App::by_id(AppId::Nginx),
            Box::new(RandomSearch::new()),
            SessionSpec {
                budget: Budget {
                    iterations: Some(LEDGER_CANDIDATES),
                    time_seconds: None,
                },
                seed: SEED,
                workers: 4,
                ..SessionSpec::default()
            },
        );
        let mut sink = store.sink().expect("open sink");
        let _ = writer.run_with(&mut sink);
        sink.flush().expect("flush");
    }
    bench_op(
        &mut results,
        samples(quick, false),
        "store/load",
        LEDGER_CANDIDATES as u64,
        |b| b.iter(|| black_box(store.load().expect("load").records.len())),
    );
    bench_op(
        &mut results,
        samples(quick, false),
        "store/verify",
        LEDGER_CANDIDATES as u64,
        |b| b.iter(|| black_box(store.verify_chain().expect("verify"))),
    );

    // --- Drift detection: a step signal streamed through the mean-shift
    // detector until the verdict fires (the continuous-mode hot path:
    // one observe() per candidate, every wave). -------------------------
    let drift_samples: Vec<(u64, f64)> = (0..256u64).map(|i| (i, i as f64 * 60.0)).collect();
    bench_op(
        &mut results,
        samples(quick, false),
        "drift/detector_step",
        256,
        |b| {
            b.iter_batched(
                || {
                    (
                        wf_drift::SyntheticSignal::step(100.0, 65.0, 7_680.0, 0.02, SEED),
                        wf_drift::MeanShift::new(6, 0.15),
                    )
                },
                |(mut signal, mut detector)| {
                    black_box(wf_drift::run_until_drift(
                        &mut signal,
                        &mut detector,
                        &drift_samples,
                    ))
                },
                criterion::BatchSize::LargeInput,
            )
        },
    );

    // --- Wave-dispatch overhead across pool widths (host time of a full
    // 24-candidate random session; the virtual clocks differ by design,
    // the *real* cost of threads + cache protocol is what is measured). -
    for &workers in &POOL_WIDTHS {
        bench_op(
            &mut results,
            spawn_samples(),
            "platform/wave_dispatch",
            workers as u64,
            |b| {
                b.iter_batched(
                    || {
                        Session::new(
                            SimOs::linux_runtime(LinuxVersion::V4_19, 64),
                            App::by_id(AppId::Nginx),
                            Box::new(RandomSearch::new()),
                            SessionSpec {
                                budget: Budget {
                                    iterations: Some(24),
                                    time_seconds: None,
                                },
                                seed: SEED,
                                workers,
                                ..SessionSpec::default()
                            },
                        )
                    },
                    |mut session| black_box(session.run()),
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }

    // --- Raw routing overhead: 64 full-width assign/observe rounds on
    // the EWMA-heaviest strategy, isolating the router from evaluation
    // cost (the dispatch ops above pay it inline). ----------------------
    bench_op(
        &mut results,
        samples(quick, false),
        "platform/routing_assign",
        WAVE as u64,
        |b| {
            b.iter_batched(
                || Router::new(RoutingStrategy::Fastest, WAVE),
                |mut router| {
                    for wave in 0..64u64 {
                        let lanes = router.assign(WAVE, SEED, wave);
                        for (j, lane) in lanes.into_iter().enumerate() {
                            router.observe(lane, 60.0 + j as f64);
                        }
                    }
                    black_box(router.stats().len())
                },
                criterion::BatchSize::LargeInput,
            )
        },
    );

    // --- wf-lint analyzer throughput: lex + rule-scan a synthetic
    // corpus (the CI lint-pass leg's cost is this, plus the fs walk). --
    let corpus: Vec<(String, String)> = (0..LINT_FILES).map(lint_corpus_file).collect();
    let lint_cfg = wf_lint::Config::default();
    bench_op(
        &mut results,
        samples(quick, false),
        "lint/scan_workspace",
        LINT_FILES as u64,
        |b| {
            b.iter(|| {
                let mut findings = 0usize;
                let mut suppressed = 0usize;
                for (path, text) in &corpus {
                    let out = wf_lint::lint_source(path, text, &lint_cfg);
                    findings += out.findings.len();
                    suppressed += out.suppressed.len();
                }
                black_box((findings, suppressed))
            })
        },
    );

    let _ = std::fs::remove_dir_all(&tmp);

    debug_assert_eq!(
        results
            .iter()
            .map(|r| (r.op.clone(), r.n))
            .collect::<Vec<_>>(),
        declared_ops(),
        "suite emission order drifted from declared_ops()"
    );
    results
}

/// Runs the per-target suite over `space` and `policy` — the pair `wfctl
/// bench --target <keyword>` resolves through the target registry. The
/// ops mirror the main suite's search hot paths (batch ask/tell for
/// random, bayes, and causal) plus the two per-candidate costs every
/// algorithm pays on this target — sampling under its policy and
/// encoding into its feature space — but measured on the target's own
/// configuration space, where width and sampling policy can differ from
/// the main fixture by an order of magnitude.
pub fn run_target_suite(space: &ConfigSpace, policy: &SamplePolicy, quick: bool) -> Vec<OpResult> {
    let mut results = Vec::new();
    let fx = Fixture::for_target(space, policy);

    bench_op(
        &mut results,
        samples(quick, false),
        "calibrate/spin",
        0,
        |b| b.iter(|| black_box(spin())),
    );

    // Candidate sampling under the target's policy (mutate-the-default
    // walks the whole spec list per sample on compile-stage spaces).
    let mut srng = StdRng::seed_from_u64(derive_seed(SEED, 6 << 32));
    bench_op(
        &mut results,
        samples(quick, false),
        "target/sample_batch",
        WAVE as u64,
        |b| {
            b.iter(|| {
                let batch: Vec<_> = (0..WAVE)
                    .map(|_| fx.policy.sample(&fx.space, &mut srng))
                    .collect();
                black_box(batch.len())
            })
        },
    );

    // Feature encoding of one wave (the cost scales with the encoded
    // dimension, ~900 for the RISC-V compile space).
    let mut erng = StdRng::seed_from_u64(derive_seed(SEED, 7 << 32));
    let sampled: Vec<_> = (0..WAVE)
        .map(|_| fx.policy.sample(&fx.space, &mut erng))
        .collect();
    bench_op(
        &mut results,
        samples(quick, false),
        "target/encode_batch",
        WAVE as u64,
        |b| {
            b.iter(|| {
                let mut acc = 0.0f64;
                for config in &sampled {
                    acc += fx.encoder.encode(&fx.space, config).iter().sum::<f64>();
                }
                black_box(acc)
            })
        },
    );

    // Batch ask/tell on the target's space. Model algorithms pay per
    // parameter (causal) or per encoded dimension (bayes), so both count
    // as heavy here even at history 200.
    for alg_name in ["random", "bayes", "causal"] {
        for &n in &TARGET_HISTORY_SIZES {
            let heavy = alg_name != "random";
            let history = policy_history(&fx.space, &fx.encoder, &fx.policy, n);

            let mut alg = fx.algorithm(alg_name, &history);
            let mut rng = StdRng::seed_from_u64(derive_seed(SEED, 8 << 32));
            bench_op(
                &mut results,
                samples(quick, heavy),
                &format!("search/{alg_name}/propose_batch"),
                n as u64,
                |b| {
                    let ctx = fx.ctx(&history);
                    b.iter(|| black_box(alg.propose_batch(WAVE, &ctx, &mut rng)))
                },
            );

            let prefix = &history[..n - WAVE];
            let wave = &history[n - WAVE..];
            bench_op(
                &mut results,
                samples(quick, heavy),
                &format!("search/{alg_name}/observe_batch"),
                n as u64,
                |b| {
                    b.iter_batched(
                        || fx.algorithm(alg_name, prefix),
                        |mut alg| {
                            alg.observe_batch(&fx.ctx(prefix), wave);
                            black_box(alg.stats())
                        },
                        criterion::BatchSize::LargeInput,
                    )
                },
            );
        }
    }

    debug_assert_eq!(
        results
            .iter()
            .map(|r| (r.op.clone(), r.n))
            .collect::<Vec<_>>(),
        target_declared_ops(),
        "target suite emission order drifted from target_declared_ops()"
    );
    results
}

/// 64 CandidateEvaluated events plus a WaveCompleted, shaped like one
/// store wave.
fn store_fixture_events(space: &ConfigSpace) -> Vec<wf_platform::SessionEvent> {
    use wf_platform::SessionEvent;
    let mut events: Vec<SessionEvent> = (0..64)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(derive_seed(SEED, 3 << 32 | i as u64));
            SessionEvent::CandidateEvaluated(Record {
                iteration: i,
                config: space.sample(&mut rng),
                objective: Some(1000.0 + i as f64),
                metric: Some(1000.0 + i as f64),
                memory_mb: Some(128.0),
                crash_phase: None,
                build_skipped: i > 0,
                duration_s: 61.5,
                finished_at_s: 61.5 * (i + 1) as f64,
                algo_memory_bytes: 4096,
            })
        })
        .collect();
    events.push(wf_platform::SessionEvent::WaveCompleted(WaveStats {
        wave: 0,
        size: 64,
        wall_s: 61.5,
        busy_s: 61.5 * 64.0,
        cache_hits: 63,
        cache_misses: 1,
    }));
    events
}

/// The same 64 candidates as [`store_fixture_events`], but committed as
/// 8 waves of 8 (each with its own `WaveCompleted`), exercising the
/// sink's per-wave batched write path.
fn store_fixture_waves(space: &ConfigSpace) -> Vec<wf_platform::SessionEvent> {
    use wf_platform::SessionEvent;
    let mut events = Vec::with_capacity(72);
    for wave in 0..8usize {
        for slot in 0..8usize {
            let i = wave * 8 + slot;
            let mut rng = StdRng::seed_from_u64(derive_seed(SEED, 4 << 32 | i as u64));
            events.push(SessionEvent::CandidateEvaluated(Record {
                iteration: i,
                config: space.sample(&mut rng),
                objective: Some(1000.0 + i as f64),
                metric: Some(1000.0 + i as f64),
                memory_mb: Some(128.0),
                crash_phase: None,
                build_skipped: i > 0,
                duration_s: 61.5,
                finished_at_s: 61.5 * (i + 1) as f64,
                algo_memory_bytes: 4096,
            }));
        }
        events.push(SessionEvent::WaveCompleted(WaveStats {
            wave,
            size: 8,
            wall_s: 61.5,
            busy_s: 61.5 * 8.0,
            cache_hits: 7,
            cache_misses: 1,
        }));
    }
    events
}

/// Suite tag of the main-suite document (`BENCH_search.json`).
pub const MAIN_SUITE: &str = "wfctl-bench";

/// Suite tag of a per-target document (`BENCH_<keyword>.json`).
pub fn target_suite_tag(keyword: &str) -> String {
    format!("wfctl-bench-target/{keyword}")
}

/// The declared op set a document with suite tag `suite` must cover.
/// Unknown tags are an error so a mislabeled document can never pass the
/// stale-baseline check vacuously.
pub fn declared_ops_for(suite: &str) -> Result<Vec<(String, u64)>, String> {
    if suite == MAIN_SUITE {
        Ok(declared_ops())
    } else if suite.starts_with("wfctl-bench-target/") {
        Ok(target_declared_ops())
    } else {
        Err(format!("unknown bench suite tag {suite:?}"))
    }
}

/// A parsed bench document: the suite tag plus its results.
pub struct BenchDoc {
    /// Which suite emitted this document ([`MAIN_SUITE`] or a
    /// [`target_suite_tag`]).
    pub suite: String,
    /// Whether the document was produced in quick (CI smoke) mode.
    pub quick: bool,
    /// The measured ops.
    pub ops: Vec<OpResult>,
}

/// Encodes suite results as the stable `BENCH_search.json` document.
pub fn to_json(results: &[OpResult], quick: bool) -> String {
    to_json_tagged(results, quick, MAIN_SUITE)
}

/// Encodes results as a bench document carrying an explicit suite tag
/// (the per-target documents use [`target_suite_tag`]).
pub fn to_json_tagged(results: &[OpResult], quick: bool, suite: &str) -> String {
    let ops: Vec<JsonValue> = results
        .iter()
        .map(|r| {
            JsonValue::Obj(vec![
                ("op".into(), JsonValue::Str(r.op.as_str().into())),
                ("n".into(), JsonValue::Int(r.n as i64)),
                ("ns_per_iter".into(), JsonValue::Num(r.ns_per_iter)),
                ("min_ns_per_iter".into(), JsonValue::Num(r.min_ns_per_iter)),
                (
                    "throughput_per_s".into(),
                    JsonValue::Num(r.throughput_per_s),
                ),
            ])
        })
        .collect();
    let doc = JsonValue::Obj(vec![
        ("version".into(), JsonValue::Int(1)),
        ("suite".into(), JsonValue::Str(suite.into())),
        ("quick".into(), JsonValue::Bool(quick)),
        ("ops".into(), JsonValue::Arr(ops)),
    ]);
    let mut text = doc.encode();
    text.push('\n');
    text
}

/// Parses a bench document back into op results, dropping the envelope.
pub fn parse_json(text: &str) -> Result<Vec<OpResult>, String> {
    parse_json_doc(text).map(|doc| doc.ops)
}

/// Parses a bench document including its suite tag (what `perf_compare`
/// uses, so it can refuse to diff documents from different suites).
pub fn parse_json_doc(text: &str) -> Result<BenchDoc, String> {
    let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
    if doc.get("version").and_then(JsonValue::as_i64) != Some(1) {
        return Err("unsupported bench document version".into());
    }
    let suite = doc
        .get("suite")
        .and_then(JsonValue::as_str)
        .ok_or("missing suite tag")?
        .to_string();
    let quick = doc
        .get("quick")
        .and_then(JsonValue::as_bool)
        .unwrap_or(false);
    let ops = doc
        .get("ops")
        .and_then(JsonValue::as_arr)
        .ok_or("missing ops array")?;
    let ops = ops
        .iter()
        .map(|o| {
            Ok(OpResult {
                op: o
                    .get("op")
                    .and_then(JsonValue::as_str)
                    .ok_or("op missing name")?
                    .to_string(),
                n: o.get("n")
                    .and_then(JsonValue::as_u64)
                    .ok_or("op missing n")?,
                ns_per_iter: o
                    .get("ns_per_iter")
                    .and_then(JsonValue::as_f64)
                    .ok_or("op missing ns_per_iter")?,
                min_ns_per_iter: o
                    .get("min_ns_per_iter")
                    .and_then(JsonValue::as_f64)
                    .ok_or("op missing min_ns_per_iter")?,
                throughput_per_s: o
                    .get("throughput_per_s")
                    .and_then(JsonValue::as_f64)
                    .ok_or("op missing throughput_per_s")?,
            })
        })
        .collect::<Result<Vec<OpResult>, String>>()?;
    Ok(BenchDoc { suite, quick, ops })
}

/// Renders results as an aligned human-readable table.
pub fn render_table(results: &[OpResult]) -> String {
    let mut out = String::from(&format!(
        "{:<44} {:>6} {:>14} {:>14} {:>14}\n",
        "op", "n", "ns/iter", "min ns/iter", "ops/s"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<44} {:>6} {:>14.0} {:>14.0} {:>14.1}\n",
            r.op, r.n, r.ns_per_iter, r.min_ns_per_iter, r.throughput_per_s
        ));
    }
    out
}

/// Declared (op, n) pairs missing from `results` — non-empty means the
/// file predates the current suite. `perf_compare` refuses a stale
/// baseline outright: the regression gate only iterates baseline ops, so
/// an op added to the suite without refreshing `BENCH_search.json` would
/// otherwise silently never be gated.
pub fn stale_ops(results: &[OpResult]) -> Vec<(String, u64)> {
    stale_ops_in(&declared_ops(), results)
}

/// [`stale_ops`] against an explicit declared set (per-target baselines
/// check against [`target_declared_ops`] via [`declared_ops_for`]).
pub fn stale_ops_in(declared: &[(String, u64)], results: &[OpResult]) -> Vec<(String, u64)> {
    declared
        .iter()
        .filter(|(op, n)| !results.iter().any(|r| r.op == **op && r.n == *n))
        .cloned()
        .collect()
}

/// The comparison the CI `bench-smoke` leg runs: every baseline op must
/// exist in `new`, and no op may regress by more than `tolerance`
/// (fractional, e.g. 0.35) after normalizing both sides by their own
/// `calibrate/spin` time. All comparisons use the per-run **minimum**
/// per-iteration time: contention only ever adds time to deterministic
/// compute, so the minimum is the statistic a shared runner cannot
/// inflate, while a real code regression still shifts it. Ops faster
/// than `floor_ns` in the baseline are reported but never gated
/// (noise-dominated).
/// When both bayes observe+propose variants are present in `new`, the
/// incremental path must be at least `min_speedup`× faster than the full
/// path — the tentpole's ≥2x acceptance bar, enforced on every run.
/// Likewise, when both pool-EI scoring variants are present, the batched matrix-level scorer must beat the per-candidate
/// loop by at least [`EI_MIN_SPEEDUP`].
pub struct Comparison {
    /// Human-readable per-op lines.
    pub lines: Vec<String>,
    /// Ops that exceeded the tolerance (empty = gate passes).
    pub regressions: Vec<String>,
    /// The measured bayes full/incremental speedup, if both ops present.
    pub bayes_speedup: Option<f64>,
    /// The measured scalar/batched pool-EI speedup, if both ops present.
    pub ei_speedup: Option<f64>,
}

/// The batched-EI gate's bar: `search/bayes/propose_pool` must beat
/// `search/bayes/propose_pool_scalar` by at least this factor at history
/// 800 — the acceptance bar for replacing ~200 per-candidate triangular
/// solves with one matrix-level solve per candidate block (compared on
/// per-run minimums; both variants produce bit-identical proposals).
pub const EI_MIN_SPEEDUP: f64 = 2.0;

/// Compares `new` results against `baseline`. `baseline_label` names the
/// baseline file in diagnostics, so a missing op says which committed
/// `BENCH_*.json` declared it. See [`Comparison`].
pub fn compare(
    baseline: &[OpResult],
    new: &[OpResult],
    tolerance: f64,
    floor_ns: f64,
    min_speedup: f64,
    baseline_label: &str,
) -> Result<Comparison, String> {
    let cal = |results: &[OpResult]| -> Result<f64, String> {
        results
            .iter()
            .find(|r| r.op == "calibrate/spin")
            .map(|r| r.min_ns_per_iter.max(1.0))
            .ok_or_else(|| "missing calibrate/spin op".to_string())
    };
    let base_cal = cal(baseline)?;
    let new_cal = cal(new)?;
    let find = |results: &[OpResult], op: &str, n: u64| -> Option<OpResult> {
        results.iter().find(|r| r.op == op && r.n == n).cloned()
    };

    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    for b in baseline {
        if b.op == "calibrate/spin" {
            continue;
        }
        let Some(n) = find(new, &b.op, b.n) else {
            regressions.push(format!(
                "{} (n={}) from baseline {} missing from new results",
                b.op, b.n, baseline_label
            ));
            continue;
        };
        let ratio = (n.min_ns_per_iter / new_cal) / (b.min_ns_per_iter / base_cal).max(1e-12);
        let gated = b.min_ns_per_iter >= floor_ns;
        let verdict = if !gated {
            "info"
        } else if ratio > 1.0 + tolerance {
            "REGRESSION"
        } else {
            "ok"
        };
        lines.push(format!(
            "{:<44} n={:<5} base {:>12.0}ns new {:>12.0}ns (min) normalized x{:.2} [{}]",
            b.op, b.n, b.min_ns_per_iter, n.min_ns_per_iter, ratio, verdict
        ));
        if gated && ratio > 1.0 + tolerance {
            regressions.push(format!(
                "{} (n={}) regressed x{:.2} (tolerance x{:.2})",
                b.op,
                b.n,
                ratio,
                1.0 + tolerance
            ));
        }
    }

    let bayes_speedup = match (
        find(new, "search/bayes/observe_propose_full", 800),
        find(new, "search/bayes/observe_propose", 800),
    ) {
        (Some(full), Some(incr)) => Some(full.min_ns_per_iter / incr.min_ns_per_iter.max(1e-3)),
        _ => None,
    };
    if let Some(speedup) = bayes_speedup {
        if speedup < min_speedup {
            regressions.push(format!(
                "bayes incremental observe+propose speedup x{speedup:.2} < required x{min_speedup:.1}"
            ));
        }
    }

    let ei_speedup = match (
        find(new, "search/bayes/propose_pool_scalar", 800),
        find(new, "search/bayes/propose_pool", 800),
    ) {
        (Some(scalar), Some(batched)) => {
            Some(scalar.min_ns_per_iter / batched.min_ns_per_iter.max(1e-3))
        }
        _ => None,
    };
    if let Some(speedup) = ei_speedup {
        if speedup < EI_MIN_SPEEDUP {
            regressions.push(format!(
                "batched pool-EI speedup x{speedup:.2} < required x{EI_MIN_SPEEDUP:.1} \
                 (the matrix-level scorer lost its edge over the per-candidate loop)"
            ));
        }
    }

    Ok(Comparison {
        lines,
        regressions,
        bayes_speedup,
        ei_speedup,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(name: &str, n: u64, ns: f64) -> OpResult {
        OpResult {
            op: name.into(),
            n,
            ns_per_iter: ns,
            min_ns_per_iter: ns,
            throughput_per_s: 1e9 / ns,
        }
    }

    #[test]
    fn json_round_trips() {
        let results = vec![
            op("calibrate/spin", 0, 1234.5),
            op("search/x/y", 800, 9.75e6),
        ];
        let text = to_json(&results, true);
        let back = parse_json(&text).expect("parse");
        assert_eq!(results, back);
    }

    #[test]
    fn json_round_trips_the_suite_tag() {
        let results = vec![op("calibrate/spin", 0, 1234.5)];
        let main = parse_json_doc(&to_json(&results, false)).expect("parse");
        assert_eq!(main.suite, MAIN_SUITE);
        assert!(!main.quick);
        let tagged = to_json_tagged(&results, true, &target_suite_tag("unikraft"));
        let doc = parse_json_doc(&tagged).expect("parse");
        assert_eq!(doc.suite, "wfctl-bench-target/unikraft");
        assert!(doc.quick);
        assert_eq!(doc.ops, results);
    }

    #[test]
    fn declared_ops_for_dispatches_on_the_suite_tag() {
        assert_eq!(declared_ops_for(MAIN_SUITE).unwrap(), declared_ops());
        assert_eq!(
            declared_ops_for(&target_suite_tag("linux-riscv")).unwrap(),
            target_declared_ops()
        );
        assert!(declared_ops_for("some-other-suite").is_err());
    }

    #[test]
    fn target_declared_ops_are_unique() {
        let ops = target_declared_ops();
        let mut seen = std::collections::HashSet::new();
        for pair in &ops {
            assert!(seen.insert(pair.clone()), "duplicate op {pair:?}");
        }
        assert!(ops.len() >= 15, "target suite shrank to {} ops", ops.len());
    }

    #[test]
    fn stale_ops_in_checks_against_the_given_declared_set() {
        let full: Vec<OpResult> = target_declared_ops()
            .into_iter()
            .map(|(name, n)| op(&name, n, 1000.0))
            .collect();
        assert!(stale_ops_in(&target_declared_ops(), &full).is_empty());
        // The same results are stale against the (larger) main-suite set.
        assert!(!stale_ops_in(&declared_ops(), &full).is_empty());
    }

    #[test]
    fn declared_ops_are_unique() {
        let ops = declared_ops();
        let mut seen = std::collections::HashSet::new();
        for pair in &ops {
            assert!(seen.insert(pair.clone()), "duplicate op {pair:?}");
        }
        assert!(ops.len() >= 30, "suite shrank to {} ops", ops.len());
    }

    #[test]
    fn stale_ops_flags_a_baseline_missing_declared_ops() {
        // A full fake baseline is clean; dropping one declared op (or
        // shifting its n) makes it stale.
        let full: Vec<OpResult> = declared_ops()
            .into_iter()
            .map(|(name, n)| op(&name, n, 1000.0))
            .collect();
        assert!(stale_ops(&full).is_empty());
        let missing_one = &full[1..];
        assert_eq!(
            stale_ops(missing_one),
            vec![(full[0].op.clone(), full[0].n)]
        );
    }

    #[test]
    fn compare_normalizes_by_calibration() {
        // The "new machine" is uniformly 3x slower — including its spin —
        // so nothing regresses.
        let base = vec![op("calibrate/spin", 0, 1000.0), op("a/b", 10, 50_000.0)];
        let new = vec![op("calibrate/spin", 0, 3000.0), op("a/b", 10, 150_000.0)];
        let c = compare(&base, &new, 0.35, 1000.0, 2.0, "BENCH_search.json").expect("compare");
        assert!(c.regressions.is_empty(), "{:?}", c.regressions);
    }

    #[test]
    fn compare_flags_real_regressions_and_missing_ops() {
        let base = vec![
            op("calibrate/spin", 0, 1000.0),
            op("a/b", 10, 50_000.0),
            op("gone/op", 1, 50_000.0),
        ];
        let new = vec![op("calibrate/spin", 0, 1000.0), op("a/b", 10, 90_000.0)];
        let c = compare(&base, &new, 0.35, 1000.0, 2.0, "BENCH_search.json").expect("compare");
        assert_eq!(c.regressions.len(), 2, "{:?}", c.regressions);
    }

    #[test]
    fn compare_ignores_sub_floor_noise() {
        let base = vec![op("calibrate/spin", 0, 1000.0), op("tiny/op", 1, 40.0)];
        let new = vec![op("calibrate/spin", 0, 1000.0), op("tiny/op", 1, 400.0)];
        let c = compare(&base, &new, 0.35, 1000.0, 2.0, "BENCH_search.json").expect("compare");
        assert!(c.regressions.is_empty(), "{:?}", c.regressions);
    }

    #[test]
    fn compare_names_the_baseline_file_for_missing_ops() {
        let base = vec![op("calibrate/spin", 0, 1000.0), op("gone/op", 1, 50_000.0)];
        let new = vec![op("calibrate/spin", 0, 1000.0)];
        let c = compare(&base, &new, 0.35, 1000.0, 2.0, "BENCH_unikraft.json").expect("compare");
        assert_eq!(c.regressions.len(), 1);
        assert!(
            c.regressions[0].contains("BENCH_unikraft.json"),
            "{:?}",
            c.regressions
        );
    }

    #[test]
    fn compare_enforces_the_batched_ei_bar() {
        let base = vec![op("calibrate/spin", 0, 1000.0)];
        // Batched scorer below 2x over scalar: gated.
        let new = vec![
            op("calibrate/spin", 0, 1000.0),
            op("search/bayes/propose_pool", 800, 70_000.0),
            op("search/bayes/propose_pool_scalar", 800, 100_000.0),
        ];
        let c = compare(&base, &new, 0.35, 1000.0, 2.0, "BENCH_search.json").expect("compare");
        assert_eq!(c.ei_speedup, Some(100.0 / 70.0));
        assert_eq!(c.regressions.len(), 1, "{:?}", c.regressions);
        // At or above the bar: passes.
        let new = vec![
            op("calibrate/spin", 0, 1000.0),
            op("search/bayes/propose_pool", 800, 40_000.0),
            op("search/bayes/propose_pool_scalar", 800, 100_000.0),
        ];
        let c = compare(&base, &new, 0.35, 1000.0, 2.0, "BENCH_search.json").expect("compare");
        assert_eq!(c.ei_speedup, Some(2.5));
        assert!(c.regressions.is_empty(), "{:?}", c.regressions);
    }

    #[test]
    fn compare_enforces_the_bayes_speedup_bar() {
        let base = vec![op("calibrate/spin", 0, 1000.0)];
        let new = vec![
            op("calibrate/spin", 0, 1000.0),
            op("search/bayes/observe_propose", 800, 80_000.0),
            op("search/bayes/observe_propose_full", 800, 100_000.0),
        ];
        let c = compare(&base, &new, 0.35, 1000.0, 2.0, "BENCH_search.json").expect("compare");
        assert_eq!(c.bayes_speedup, Some(1.25));
        assert_eq!(c.regressions.len(), 1, "{:?}", c.regressions);
    }
}
