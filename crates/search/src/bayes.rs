//! Gaussian-process Bayesian optimization (§2.3, §3.1, Fig. 9).
//!
//! A from-scratch GP with an RBF kernel, Cholesky solves, and the
//! expected-improvement acquisition function. The paper's §2.3 critique —
//! that refitting a GP is O(n³) time and O(n²) memory in the number of
//! observations — is reproduced *verbatim* by [`BayesOpt::with_full_refit`],
//! which re-factors the full kernel matrix on every observation (the
//! `search/bayes/observe_propose_full` op in `wfctl bench`).
//!
//! The default surrogate never pays that cost unless the matrix needs
//! jitter:
//!
//! * every wave boundary ([`SearchAlgorithm::observe_batch`]; a single
//!   [`SearchAlgorithm::observe`] is a wave of one) appends the new rows
//!   to the packed Cholesky factor one at a time (per row: forward-solve
//!   the new off-diagonal row, then one scalar pivot) and solves
//!   `α = K⁻¹y` once
//!   against the extended factor — O(w·n²) for a wave of `w` instead of
//!   O(n³). Each row performs exactly the operations a from-scratch
//!   factorization performs for that row, so the factor, `α`, and every
//!   subsequent proposal are **bit-for-bit identical** to the full refit
//!   (proven by the `refit_equivalence` proptests at the workspace root);
//! * if a new pivot comes out non-positive (the matrix needs jitter), the
//!   update falls back to the same jittered full refit the from-scratch
//!   path would run, and a jittered factor is always refit from scratch
//!   — the two modes cannot diverge.
//!
//! Unchanged limitations the paper holds against this class: categorical
//! parameters enter as one-hot features, which the RBF kernel treats
//! poorly (§2.3); crashes carry no signal of their own — they are imputed
//! with the worst observed value, so the optimizer keeps wandering into
//! crash regions it cannot represent (§3.2); and the factor is still
//! O(n²) memory however it is maintained.
//!
//! # Batched EI scoring
//!
//! Proposal scoring is the other profiled hot path: every candidate in
//! the pool needs one forward substitution against the packed factor —
//! O(n²) work and, at history 800, a ~2.5 MB streaming read of the factor
//! *per candidate*. The default scorer therefore batches the whole pool
//! into one matrix-level triangular solve: candidates are packed
//! interleaved into a kernel-column matrix and a single packed forward
//! substitution sweeps the factor across all columns at once. The factor
//! streams once per block of sixteen candidates (`EI_BLOCK`), and a final
//! partial block is padded to full width with its last candidate, so the
//! kernel packing, μ, the solve, and the variance sums all run one
//! const-width `[f64; EI_BLOCK]` code path whose inner loops vectorize
//! across the candidate lanes. The solve sweeps the factor two rows at a
//! time, so each solved block is loaded once for both rows. That body is
//! compiled twice, portable and with AVX2 enabled, and the AVX2 build
//! runs when the CPU has it; the forward substitution alone has a third,
//! AVX-512F build, which runs when the CPU has that. Per candidate the
//! scalar operation sequence — operand order included — is exactly the
//! per-candidate loop's in every build (Rust never contracts a multiply
//! and an add into an FMA), so the scores and every downstream proposal
//! are **bit-for-bit identical** to the sequential path
//! ([`BayesOpt::with_scalar_ei`]) on every host, proven by the
//! `refit_equivalence` proptests, the bitwise unit tests, and the doctest
//! below.
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use wf_configspace::{ConfigSpace, Encoder, ParamKind, ParamSpec, Stage, Value};
//! use wf_jobfile::Direction;
//! use wf_search::api::{Observation, SamplePolicy, SearchAlgorithm, SearchContext};
//! use wf_search::BayesOpt;
//!
//! let mut space = ConfigSpace::new();
//! space.add(
//!     ParamSpec::new("x", ParamKind::int(0, 99), Stage::Runtime).with_default(Value::Int(0)),
//! );
//! let encoder = Encoder::new(&space);
//! let policy = SamplePolicy::Uniform;
//! let mut batched = BayesOpt::new(); // matrix-level pool scoring (default)
//! let mut scalar = BayesOpt::new().with_scalar_ei(true); // per-candidate reference
//! let mut history = Vec::new();
//! let mut rng = StdRng::seed_from_u64(7);
//! for i in 0..12 {
//!     let ctx = SearchContext {
//!         space: &space,
//!         encoder: &encoder,
//!         direction: Direction::Maximize,
//!         policy: &policy,
//!         history: &history,
//!         iteration: i,
//!     };
//!     let c = policy.sample(&space, &mut rng);
//!     let obs = Observation::ok(c, (i as f64).sin(), 1.0);
//!     batched.observe(&ctx, &obs);
//!     scalar.observe(&ctx, &obs);
//!     history.push(obs);
//! }
//! let ctx = SearchContext {
//!     space: &space,
//!     encoder: &encoder,
//!     direction: Direction::Maximize,
//!     policy: &policy,
//!     history: &history,
//!     iteration: 12,
//! };
//! let (mut r1, mut r2) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
//! assert_eq!(batched.propose(&ctx, &mut r1), scalar.propose(&ctx, &mut r2));
//! ```

use crate::api::{fill_distinct, AlgoStats, Observation, SearchAlgorithm, SearchContext};
use crate::memtrack::{bytes_of_f64s, MemTracker};
use rand::rngs::StdRng;
use wf_configspace::Configuration;

/// Gaussian-process Bayesian optimization with expected improvement.
#[derive(Debug)]
pub struct BayesOpt {
    /// RBF length scale.
    length_scale: f64,
    /// Signal variance.
    signal_var: f64,
    /// Observation noise variance.
    noise_var: f64,
    /// Random proposals before the first fit.
    n_init: usize,
    /// Candidate pool size per proposal.
    pool: usize,
    /// Exploration margin ξ in EI.
    xi: f64,
    /// Refit from scratch on every observe and every wave (the
    /// pre-optimization O(n³) path the paper critiques; kept for benches
    /// and equivalence proofs).
    full_refit_only: bool,
    /// Score proposal pools with the per-candidate EI loop instead of the
    /// batched matrix-level solve (bit-identical; kept for benches and
    /// equivalence proofs).
    scalar_ei: bool,

    // Fitted state.
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    chol: Option<Cholesky>,
    /// Whether the current factor needed diagonal jitter; a jittered
    /// factor is never extended incrementally (see module docs).
    jittered: bool,
    alpha: Vec<f64>,
    /// Mean/std of the targets at the last refit.
    y_stats: (f64, f64),
    mem: MemTracker,
}

impl Default for BayesOpt {
    fn default() -> Self {
        Self::new()
    }
}

impl BayesOpt {
    /// Creates an optimizer with standard hyperparameters.
    pub fn new() -> Self {
        BayesOpt {
            length_scale: 1.0,
            signal_var: 1.0,
            noise_var: 1e-4,
            n_init: 8,
            pool: 200,
            xi: 0.01,
            full_refit_only: false,
            scalar_ei: false,
            xs: Vec::new(),
            ys: Vec::new(),
            chol: None,
            jittered: false,
            alpha: Vec::new(),
            y_stats: (0.0, 1.0),
            mem: MemTracker::new(),
        }
    }

    /// Overrides the candidate pool size.
    pub fn with_pool(mut self, pool: usize) -> Self {
        self.pool = pool.max(8);
        self
    }

    /// Forces a from-scratch O(n³) refit on every `observe` and
    /// `observe_batch` — the pre-optimization cost profile §2.3
    /// describes. The default (false) performs the bit-equivalent O(n²)
    /// per-row factor extension.
    pub fn with_full_refit(mut self, full: bool) -> Self {
        self.full_refit_only = full;
        self
    }

    /// Scores proposal pools with the per-candidate EI loop — one O(n²)
    /// triangular solve (and one full streaming read of the packed
    /// factor) per candidate — instead of the default matrix-level
    /// batched solve. The two paths are bit-identical (see the module
    /// docs); this toggle exists for the `search/bayes/propose_pool_scalar`
    /// bench op and the equivalence proptests.
    pub fn with_scalar_ei(mut self, scalar: bool) -> Self {
        self.scalar_ei = scalar;
        self
    }

    fn kernel(&self, a: &[f64], b: &[f64]) -> f64 {
        let d2: f64 = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| {
                let d = x - y;
                d * d
            })
            .sum();
        self.signal_var * (-d2 / (2.0 * self.length_scale * self.length_scale)).exp()
    }

    /// The packed kernel row for observation `i` against observations
    /// `0..=i`, with the noise term (plus `jitter`) on the diagonal.
    fn kernel_row(&self, i: usize, jitter: f64) -> Vec<f64> {
        let mut row: Vec<f64> = (0..=i)
            .map(|j| self.kernel(&self.xs[i], &self.xs[j]))
            .collect();
        row[i] += self.noise_var + jitter;
        row
    }

    /// Refits the GP on all stored observations (the O(n³) step), with
    /// jitter retries on numerical failure.
    fn refit(&mut self) {
        let n = self.xs.len();
        if n == 0 {
            self.chol = None;
            return;
        }
        // The retry ladder reproduces the classic "add diagonal jitter
        // until SPD" loop: attempt a grows the cumulative jitter by
        // 1e-8·10^a, exactly like repeatedly bumping the stored diagonal.
        let mut jitter = 0.0;
        for attempt in 0..6 {
            let mut chol = Cholesky::new();
            let ok = (0..n).all(|i| chol.try_extend(&self.kernel_row(i, jitter)));
            if ok {
                self.chol = Some(chol);
                self.jittered = attempt > 0;
                self.refresh_alpha();
                self.account();
                return;
            }
            jitter += 1e-8 * 10f64.powi(attempt);
        }
        panic!("kernel matrix is not SPD even after {jitter:e} diagonal jitter");
    }

    /// Brings the fit up to date with every stored observation. By
    /// default it extends the factor by the rows `chol.n()..n` it lacks
    /// (O(k·n²) for `k` new rows); it runs [`BayesOpt::refit`] instead
    /// under [`BayesOpt::with_full_refit`], when the factor is missing or
    /// jittered, or when a new pivot is not positive.
    ///
    /// Bit-identical to `refit()` in every case: the rows of an
    /// unjittered factor are exactly what a jitter-0 refit recomputes,
    /// and a pivot that fails here fails at the same row of that refit,
    /// so the jitter ladder starts from the same state.
    fn extend_or_refit(&mut self) {
        let n = self.xs.len();
        let start = match &self.chol {
            Some(c) if !self.full_refit_only && !self.jittered => c.n(),
            _ => return self.refit(),
        };
        for i in start..n {
            let row = self.kernel_row(i, 0.0);
            if !self.chol.as_mut().expect("checked above").try_extend(&row) {
                // The matrix needs jitter: hand over to the retry ladder.
                return self.refit();
            }
        }
        self.refresh_alpha();
        self.account();
    }

    /// Recomputes the target standardization and `α = K⁻¹ y` against the
    /// current factor (O(n²)). Shared by both refit paths so the fitted
    /// state is identical whichever maintained the factor.
    fn refresh_alpha(&mut self) {
        let n = self.ys.len();
        // Standardize targets so the kernel amplitudes stay sane.
        let mean = self.ys.iter().sum::<f64>() / n as f64;
        let std = (self.ys.iter().map(|y| (y - mean) * (y - mean)).sum::<f64>() / n as f64)
            .sqrt()
            .max(1e-9);
        let yn: Vec<f64> = self.ys.iter().map(|y| (y - mean) / std).collect();
        self.alpha = self.chol.as_ref().expect("factor exists").solve(&yn);
        self.y_stats = (mean, std);
    }

    /// Accounts live memory: packed factor + solve vectors + data.
    fn account(&mut self) {
        let n = self.xs.len();
        let data: usize = self.xs.iter().map(|x| bytes_of_f64s(x.len())).sum();
        self.mem
            .set_live(bytes_of_f64s(n * (n + 1) / 2) + bytes_of_f64s(n * 2) + data);
    }

    /// Posterior mean and variance at `x` (standardized units).
    fn predict(&self, x: &[f64]) -> (f64, f64) {
        let chol = match &self.chol {
            Some(c) => c,
            None => return (0.0, self.signal_var),
        };
        let kstar: Vec<f64> = self.xs.iter().map(|xi| self.kernel(x, xi)).collect();
        let mu: f64 = kstar
            .iter()
            .zip(self.alpha.iter())
            .map(|(a, b)| a * b)
            .sum();
        let v = chol.solve_lower(&kstar);
        let var = (self.kernel(x, x) - v.iter().map(|z| z * z).sum::<f64>()).max(1e-12);
        (mu, var)
    }

    /// Expected improvement over the incumbent (standardized units).
    fn expected_improvement(&self, x: &[f64], best: f64) -> f64 {
        let (mu, var) = self.predict(x);
        let sigma = var.sqrt();
        if sigma < 1e-12 {
            return 0.0;
        }
        let z = (mu - best - self.xi) / sigma;
        (mu - best - self.xi) * norm_cdf(z) + sigma * norm_pdf(z)
    }

    /// Expected improvement for a whole candidate pool: the batched
    /// matrix-level path by default, or the per-candidate reference loop
    /// under [`BayesOpt::with_scalar_ei`]. The outputs are bit-identical.
    fn pool_ei(&self, xs: &[Vec<f64>], best: f64) -> Vec<f64> {
        if self.scalar_ei {
            xs.iter()
                .map(|x| self.expected_improvement(x, best))
                .collect()
        } else {
            self.ei_batch(xs, best)
        }
    }

    /// Batched expected improvement: one matrix-level triangular solve
    /// across the candidate pool.
    ///
    /// Dispatches the scorer body ([`BayesOpt::ei_batch_body`]) to its
    /// AVX2 build when the running CPU has AVX2, and to the portable build
    /// otherwise; either hands its forward substitution to the AVX-512F
    /// build when the CPU has that ([`Cholesky::solve_lower_multi`]). The
    /// builds are the same program: Rust never contracts a multiply and
    /// an add into an FMA, so each performs the same IEEE operations in
    /// the same order and the scores are bit-identical on every host.
    fn ei_batch(&self, xs: &[Vec<f64>], best: f64) -> Vec<f64> {
        let Some(chol) = &self.chol else {
            return xs
                .iter()
                .map(|x| self.expected_improvement(x, best))
                .collect();
        };
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `ei_batch_avx2` only requires AVX2, and the
            // `is_x86_feature_detected!("avx2")` check above has just
            // confirmed that the running CPU supports it.
            return unsafe { self.ei_batch_avx2(chol, xs, best) };
        }
        self.ei_batch_body(chol, xs, best)
    }

    /// The scorer body compiled with AVX2 enabled: 256-bit lanes for the
    /// same operations the portable build of [`BayesOpt::ei_batch_body`]
    /// runs.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn ei_batch_avx2(&self, chol: &Cholesky, xs: &[Vec<f64>], best: f64) -> Vec<f64> {
        self.ei_batch_body(chol, xs, best)
    }

    /// The batched scorer, inlined into each build (a call from code
    /// without `target_feature` is the portable build).
    ///
    /// Candidates are processed in blocks of [`EI_BLOCK`] lanes; the final
    /// partial block is padded by repeating its last candidate and the
    /// padded lanes' scores are dropped, so every block runs the same
    /// const-width code. A block's kernel columns are packed
    /// candidate-interleaved (`ks[j][c]` is `k(x_c, xs[j])`), and both
    /// stages stream their big operand once per block instead of once per
    /// candidate: the kernel packing walks the stored history a single
    /// time (accumulating all of a block's squared distances dimension by
    /// dimension), and one packed forward substitution
    /// ([`Cholesky::solve_lower_multi`]) sweeps the factor across every
    /// column at once. With the width a compile-time constant, each lane
    /// array lives in registers and the inner loops vectorize across it.
    /// Per candidate the scalar operation sequence — accumulation order
    /// included — is exactly what [`BayesOpt::expected_improvement`]
    /// performs, so the scores are bit-for-bit identical to the
    /// sequential path; only the memory access pattern changes.
    #[inline(always)]
    fn ei_batch_body(&self, chol: &Cholesky, xs: &[Vec<f64>], best: f64) -> Vec<f64> {
        let n = chol.n();
        let dim = xs.first().map_or(0, |x| x.len());
        let scale = 2.0 * self.length_scale * self.length_scale;
        let mut out = Vec::with_capacity(xs.len());
        // Reused across blocks: the transposed block (`xt[d][c]` is
        // `x_c[d]`) and its packed kernel columns.
        let mut xt = vec![[0.0f64; EI_BLOCK]; dim];
        let mut ks = vec![[0.0f64; EI_BLOCK]; n];
        for block in xs.chunks(EI_BLOCK) {
            let last = block.len() - 1;
            for (d, lane) in xt.iter_mut().enumerate() {
                for (c, v) in lane.iter_mut().enumerate() {
                    *v = block[c.min(last)][d];
                }
            }
            // Each candidate's squared distance folds d-ascending from 0.0
            // and feeds the exact `kernel` expression, so every packed
            // value is bit-identical to a scalar `kernel(x_c, xs[j])` call.
            for (k, xi) in ks.iter_mut().zip(&self.xs) {
                let mut d2 = [0.0f64; EI_BLOCK];
                for (lane, &h) in xt.iter().zip(xi) {
                    for c in 0..EI_BLOCK {
                        let diff = lane[c] - h;
                        d2[c] += diff * diff;
                    }
                }
                for c in 0..EI_BLOCK {
                    k[c] = self.signal_var * (-d2[c] / scale).exp();
                }
            }
            // μ_c = Σ_j k*(c, j)·α_j, accumulated j-ascending exactly like
            // the scalar dot product in `predict`.
            let mut mu = [0.0f64; EI_BLOCK];
            for (k, &a) in ks.iter().zip(&self.alpha) {
                for c in 0..EI_BLOCK {
                    mu[c] += k[c] * a;
                }
            }
            chol.solve_lower_multi(&mut ks);
            // Σ_i v_i², i-ascending like the scalar sum in `predict`.
            let mut ss = [0.0f64; EI_BLOCK];
            for v in &ks {
                for c in 0..EI_BLOCK {
                    ss[c] += v[c] * v[c];
                }
            }
            for (c, x) in block.iter().enumerate() {
                let var = (self.kernel(x, x) - ss[c]).max(1e-12);
                let sigma = var.sqrt();
                out.push(if sigma < 1e-12 {
                    0.0
                } else {
                    let z = (mu[c] - best - self.xi) / sigma;
                    (mu[c] - best - self.xi) * norm_cdf(z) + sigma * norm_pdf(z)
                });
            }
        }
        out
    }

    /// Kernel correlation in [0, 1]: 1 at zero distance, → 0 far away.
    fn correlation(&self, a: &[f64], b: &[f64]) -> f64 {
        (self.kernel(a, b) / self.signal_var.max(1e-12)).clamp(0.0, 1.0)
    }
}

/// One sampled candidate of a q-EI pool: its configuration, encoding,
/// expected improvement and fingerprint.
struct PoolEntry {
    config: Configuration,
    x: Vec<f64>,
    ei: f64,
    fingerprint: u64,
}

impl BayesOpt {
    /// Greedy local penalization over `pool`: up to `n` pool indices of
    /// distinct fingerprints, each the entry whose EI times
    /// `Π (1 − corr)` over the picks before it is highest (the first
    /// such entry on ties). Fewer than `n` when the pool runs out of
    /// distinct fingerprints. Each entry keeps its running product and
    /// multiplies in the newest pick's factor, the same product in the
    /// same order as folding over every pick at every step; the `n`-th
    /// pick's factor is never applied, because no later pick reads it.
    fn penalized_picks(&self, pool: &[PoolEntry], n: usize) -> Vec<usize> {
        let mut picks = Vec::with_capacity(n);
        let mut penalty = vec![1.0f64; pool.len()];
        let mut open = vec![true; pool.len()];
        for _ in 0..n {
            let mut best_idx = None;
            let mut best_score = f64::MIN;
            for (i, entry) in pool.iter().enumerate() {
                if !open[i] {
                    continue;
                }
                let score = entry.ei * penalty[i];
                if score > best_score {
                    best_score = score;
                    best_idx = Some(i);
                }
            }
            // Pool exhausted of distinct fingerprints: the caller tops
            // up with fresh samples outside the pool.
            let Some(pick) = best_idx else { break };
            picks.push(pick);
            if picks.len() == n {
                break;
            }
            for (i, entry) in pool.iter().enumerate() {
                open[i] = open[i] && entry.fingerprint != pool[pick].fingerprint;
                if open[i] {
                    penalty[i] *= 1.0 - self.correlation(&entry.x, &pool[pick].x);
                }
            }
        }
        picks
    }
}

/// Candidate-block width of the batched EI scorer: the number of lanes
/// every stage of [`BayesOpt::ei_batch_body`] works on at once. At 16 a
/// block's accumulators fill four AVX2 registers (eight SSE2 ones) and
/// each factor-row load is amortized over sixteen candidates, while the
/// block's solve state stays cache-resident; measured on the unikraft
/// `bayes` session, 16 beat both 8 and 32.
const EI_BLOCK: usize = 16;

// Running target statistics captured at refit time.
impl BayesOpt {
    fn standardized_best(&self) -> f64 {
        if self.ys.is_empty() {
            return 0.0;
        }
        let (mean, std) = self.y_stats;
        let best = self.ys.iter().cloned().fold(f64::MIN, f64::max);
        (best - mean) / std
    }

    /// Stores one observation without refitting. Crashes are imputed with
    /// the worst value seen so far: the GP has no crash concept, which is
    /// exactly the §2.3 limitation.
    fn ingest(&mut self, ctx: &SearchContext<'_>, obs: &Observation) {
        let x = ctx.encoder.encode(ctx.space, &obs.config);
        let y = match obs.value {
            Some(v) => ctx.goodness(v),
            None => self
                .ys
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min)
                .min(0.0),
        };
        self.xs.push(x);
        self.ys.push(y);
    }
}

impl SearchAlgorithm for BayesOpt {
    fn name(&self) -> &'static str {
        "bayesian"
    }

    fn propose_batch(
        &mut self,
        n: usize,
        ctx: &SearchContext<'_>,
        rng: &mut StdRng,
    ) -> Vec<Configuration> {
        if self.xs.len() < self.n_init || self.chol.is_none() {
            let mut cold = Vec::with_capacity(n);
            fill_distinct(
                &mut cold,
                n,
                ctx,
                rng,
                &mut std::collections::HashSet::new(),
            );
            cold
        } else {
            // q-EI by local penalization [González et al., AISTATS'16
            // style]: greedily pick the EI maximizer, then discount every
            // remaining candidate by its kernel correlation with the
            // already-pending picks. Pending points thus repel the rest of
            // the wave — n workers explore n hypotheses instead of one.
            let best = self.standardized_best();
            let pool_n = self.pool.max(4 * n);
            let mut configs = Vec::with_capacity(pool_n);
            let mut xs = Vec::with_capacity(pool_n);
            for _ in 0..pool_n {
                let config = ctx.policy.sample(ctx.space, rng);
                xs.push(ctx.encoder.encode(ctx.space, &config));
                configs.push(config);
            }
            let eis = self.pool_ei(&xs, best);
            let pool: Vec<PoolEntry> = configs
                .into_iter()
                .zip(xs)
                .zip(eis)
                .map(|((config, x), ei)| {
                    let fingerprint = config.fingerprint();
                    PoolEntry {
                        config,
                        x,
                        ei,
                        fingerprint,
                    }
                })
                .collect();
            let mut picked = Vec::with_capacity(n);
            let mut picked_fps = std::collections::HashSet::new();
            for i in self.penalized_picks(&pool, n) {
                picked_fps.insert(pool[i].fingerprint);
                picked.push(pool[i].config.clone());
            }
            fill_distinct(&mut picked, n, ctx, rng, &mut picked_fps);
            picked
        }
    }

    fn observe_batch(&mut self, ctx: &SearchContext<'_>, batch: &[Observation]) {
        // A wave boundary: ingest the whole wave, then extend the factor
        // by its rows one at a time (O(w·n²)) and solve for α once.
        for obs in batch {
            self.ingest(ctx, obs);
        }
        self.extend_or_refit();
    }

    fn begin_epoch(&mut self, _transfer: bool) {
        // A GP's kernel matrix *is* its observations — there is no model
        // to carry across a workload shift, so both transfer and cold
        // restart drop the fitted state (hyperparameters are config, not
        // state, and survive).
        self.xs.clear();
        self.ys.clear();
        self.chol = None;
        self.jittered = false;
        self.alpha.clear();
        self.y_stats = (0.0, 1.0);
        self.mem.set_live(0);
    }

    fn stats(&self) -> AlgoStats {
        AlgoStats {
            memory_bytes: self.mem.live(),
        }
    }
}

/// Dense Cholesky factor (lower triangular) in packed row storage: row `i`
/// occupies indices `i(i+1)/2 .. i(i+1)/2 + i + 1`. Packing is what makes
/// the incremental extension O(n²): appending a row never relayouts the
/// rows already factored.
#[derive(Debug)]
struct Cholesky {
    l: Vec<f64>,
    n: usize,
}

/// Start of packed row `i`.
#[inline]
fn tri(i: usize) -> usize {
    i * (i + 1) / 2
}

impl Cholesky {
    /// An empty (0×0) factor.
    fn new() -> Cholesky {
        Cholesky {
            l: Vec::new(),
            n: 0,
        }
    }

    /// Dimension of the factored matrix.
    fn n(&self) -> usize {
        self.n
    }

    /// Extends the factor of an n×n matrix to (n+1)×(n+1) given the new
    /// packed matrix row (`n + 1` entries, diagonal last, noise/jitter
    /// already applied). Performs exactly the operations a from-scratch
    /// factorization runs for its last row. Returns `false` — leaving the
    /// factor unchanged — if the new pivot is not positive.
    fn try_extend(&mut self, row: &[f64]) -> bool {
        let n = self.n;
        debug_assert_eq!(row.len(), n + 1);
        let start = self.l.len();
        self.l.extend_from_slice(row);
        for j in 0..n {
            let mut sum = self.l[start + j];
            for p in 0..j {
                sum -= self.l[start + p] * self.l[tri(j) + p];
            }
            self.l[start + j] = sum / self.l[tri(j) + j];
        }
        let mut sum = self.l[start + n];
        for p in 0..n {
            sum -= self.l[start + p] * self.l[start + p];
        }
        if sum <= 0.0 {
            self.l.truncate(start);
            return false;
        }
        self.l[start + n] = sum.sqrt();
        self.n = n + 1;
        true
    }

    /// Solves `L Lᵀ x = b`.
    #[allow(clippy::needless_range_loop)] // strided triangular indexing
    fn solve(&self, b: &[f64]) -> Vec<f64> {
        let y = self.solve_lower(b);
        // Back substitution with Lᵀ: column `i` of the packed factor
        // below the diagonal is `l[tri(p) + i]` for `p > i`.
        let n = self.n;
        let mut x = y;
        for i in (0..n).rev() {
            let mut sum = x[i];
            for p in i + 1..n {
                sum -= self.l[tri(p) + i] * x[p];
            }
            x[i] = sum / self.l[tri(i) + i];
        }
        x
    }

    /// Forward substitution `L Y = B` over [`EI_BLOCK`] right-hand sides
    /// in one sweep of the packed factor.
    ///
    /// Runs the AVX-512F build of [`Cholesky::solve_lower_multi_body`]
    /// when the running CPU has AVX-512F, and otherwise inlines the body
    /// into the caller's build (AVX2 or portable). Every build performs
    /// the same IEEE operations in the same order, so the solutions are
    /// bit-identical on every host.
    #[inline(always)]
    fn solve_lower_multi(&self, b: &mut [[f64; EI_BLOCK]]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: `solve_lower_multi_avx512` only requires AVX-512F,
            // and the check above has just confirmed that the running CPU
            // supports it.
            return unsafe { self.solve_lower_multi_avx512(b) };
        }
        self.solve_lower_multi_body(b);
    }

    /// The forward substitution compiled with AVX-512F enabled: 512-bit
    /// lanes for the same operations the other builds of
    /// [`Cholesky::solve_lower_multi_body`] run.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn solve_lower_multi_avx512(&self, b: &mut [[f64; EI_BLOCK]]) {
        self.solve_lower_multi_body(b);
    }

    /// The forward substitution, inlined into each build.
    ///
    /// `b` is candidate-interleaved — `b[i][c]` holds row `i` of column
    /// `c` — so each packed factor row `l[tri(i)..]` is loaded once and
    /// applied to every column. Rows are swept in pairs: rows `i` and
    /// `i + 1` accumulate in two `[f64; EI_BLOCK]` register blocks over
    /// `p < i` side by side, so each solved block `y[p]` is loaded once
    /// for both rows and there are twice as many independent subtraction
    /// chains. Row `i` then divides by its pivot; row `i + 1` subtracts
    /// `l[i+1][i]·y[i]` and divides by its own pivot. An odd last row runs
    /// alone. Per column the scalar operation sequence is identical to
    /// [`Cholesky::solve_lower`]: start from the right-hand side, subtract
    /// `l[i][p]·y[p]` for `p` ascending, then divide by the pivot — so
    /// every column's solution is bit-for-bit the per-candidate result.
    #[inline(always)]
    fn solve_lower_multi_body(&self, b: &mut [[f64; EI_BLOCK]]) {
        let n = self.n;
        debug_assert_eq!(b.len(), n);
        for i in (0..n & !1).step_by(2) {
            // Rows `i` and `i + 1` are adjacent in the packed factor.
            let (r0, r1) = self.l[tri(i)..tri(i + 2)].split_at(i + 1);
            let (solved, rest) = b.split_at_mut(i);
            let (mut a0, mut a1) = (rest[0], rest[1]);
            for ((&l0, &l1), y) in r0.iter().zip(r1).zip(solved.iter()) {
                for c in 0..EI_BLOCK {
                    a0[c] -= l0 * y[c];
                    a1[c] -= l1 * y[c];
                }
            }
            let (d0, l10, d1) = (r0[i], r1[i], r1[i + 1]);
            for a in &mut a0 {
                *a /= d0;
            }
            for c in 0..EI_BLOCK {
                a1[c] -= l10 * a0[c];
            }
            for a in &mut a1 {
                *a /= d1;
            }
            rest[0] = a0;
            rest[1] = a1;
        }
        // An odd last row runs alone.
        for i in n & !1..n {
            let row = &self.l[tri(i)..tri(i) + i + 1];
            let (solved, rest) = b.split_at_mut(i);
            let mut acc = rest[0];
            for (&l, y) in row[..i].iter().zip(solved.iter()) {
                for c in 0..EI_BLOCK {
                    acc[c] -= l * y[c];
                }
            }
            let d = row[i];
            for a in &mut acc {
                *a /= d;
            }
            rest[0] = acc;
        }
    }

    /// Solves `L y = b` (forward substitution).
    #[allow(clippy::needless_range_loop)] // strided triangular indexing
    fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.n;
        let mut y = vec![0.0; n];
        for i in 0..n {
            let row = tri(i);
            let mut sum = b[i];
            for p in 0..i {
                sum -= self.l[row + p] * y[p];
            }
            y[i] = sum / self.l[row + i];
        }
        y
    }
}

/// Standard normal PDF.
fn norm_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation.
fn norm_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    // Abramowitz & Stegun 7.1.26, |error| < 1.5e-7.
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SamplePolicy;
    use rand::Rng;
    use rand::SeedableRng;
    use wf_configspace::{ConfigSpace, Encoder, ParamKind, ParamSpec, Stage, Value};
    use wf_jobfile::Direction;

    /// Builds a factor by extending row-by-row from a full row-major SPD
    /// matrix (test helper mirroring the old dense-factor entry point).
    fn factor_dense(k: &[f64], n: usize) -> Option<Cholesky> {
        let mut c = Cholesky::new();
        for i in 0..n {
            let row: Vec<f64> = (0..=i).map(|j| k[i * n + j]).collect();
            if !c.try_extend(&row) {
                return None;
            }
        }
        Some(c)
    }

    #[test]
    fn cholesky_solves_spd_system() {
        // K = [[4,2],[2,3]], b = [8, 7] -> x = [1.25, 1.5].
        let k = vec![4.0, 2.0, 2.0, 3.0];
        let c = factor_dense(&k, 2).unwrap();
        let x = c.solve(&[8.0, 7.0]);
        assert!((x[0] - 1.25).abs() < 1e-10);
        assert!((x[1] - 1.5).abs() < 1e-10);
    }

    #[test]
    fn cholesky_extend_matches_from_scratch() {
        // Factor a 4×4 SPD matrix in one pass and by extending a 3×3
        // factor: the packed factors must be bit-identical.
        let k = vec![
            4.0, 1.0, 0.5, 0.2, //
            1.0, 5.0, 0.3, 0.1, //
            0.5, 0.3, 3.0, 0.4, //
            0.2, 0.1, 0.4, 2.0,
        ];
        let full = factor_dense(&k, 4).unwrap();
        let mut grown = factor_dense(&k[..0], 0).unwrap();
        for i in 0..4 {
            let row: Vec<f64> = (0..=i).map(|j| k[i * 4 + j]).collect();
            assert!(grown.try_extend(&row));
        }
        assert_eq!(full.l, grown.l);
    }

    #[test]
    fn cholesky_extend_rejects_non_spd_pivot() {
        let mut c = Cholesky::new();
        assert!(c.try_extend(&[1.0]));
        // Row making the matrix singular: [[1, 1], [1, 1]].
        assert!(!c.try_extend(&[1.0, 1.0]));
        // The factor is untouched and still usable.
        assert_eq!(c.n(), 1);
        assert_eq!(c.solve(&[2.0]), vec![2.0]);
    }

    #[test]
    fn erf_accuracy() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((norm_cdf(1.96) - 0.975).abs() < 1e-3);
    }

    fn one_d_space() -> ConfigSpace {
        let mut s = ConfigSpace::new();
        s.add(
            ParamSpec::new("x", ParamKind::int(0, 100), Stage::Runtime)
                .with_default(Value::Int(50)),
        );
        s
    }

    /// A smooth 1-D objective the GP should optimize in few evaluations.
    fn objective(c: &Configuration, space: &ConfigSpace) -> f64 {
        let x = c.by_name(space, "x").unwrap().as_int().unwrap() as f64;
        // Peak at x = 73.
        -(x - 73.0) * (x - 73.0)
    }

    use wf_configspace::Configuration;

    #[test]
    fn gp_beats_random_on_smooth_objective() {
        let space = one_d_space();
        let encoder = Encoder::new(&space);
        let policy = SamplePolicy::Uniform;
        let budget = 30;

        let run = |alg: &mut dyn SearchAlgorithm, seed: u64| -> f64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut history: Vec<Observation> = Vec::new();
            for i in 0..budget {
                let ctx = SearchContext {
                    space: &space,
                    encoder: &encoder,
                    direction: Direction::Maximize,
                    policy: &policy,
                    history: &history,
                    iteration: i,
                };
                let c = alg.propose(&ctx, &mut rng);
                let y = objective(&c, &space);
                let obs = Observation::ok(c, y, 1.0);
                let ctx = SearchContext {
                    space: &space,
                    encoder: &encoder,
                    direction: Direction::Maximize,
                    policy: &policy,
                    history: &history,
                    iteration: i,
                };
                alg.observe(&ctx, &obs);
                history.push(obs);
            }
            history
                .iter()
                .filter_map(|o| o.value)
                .fold(f64::MIN, f64::max)
        };

        let mut gp_wins = 0;
        for seed in 0..5 {
            let mut gp = BayesOpt::new().with_pool(64);
            let gp_best = run(&mut gp, seed);
            let mut rnd = crate::random::RandomSearch::new();
            let rnd_best = run(&mut rnd, seed);
            if gp_best >= rnd_best {
                gp_wins += 1;
            }
        }
        assert!(gp_wins >= 4, "GP won only {gp_wins}/5 runs");
    }

    /// A 47-wide encoding, as wide as unikraft's: 23 integers, three
    /// tristates, a boolean, and a 14-way enum.
    fn wide_space() -> ConfigSpace {
        let mut s = ConfigSpace::new();
        for i in 0..23 {
            s.add(ParamSpec::new(
                format!("n{i}"),
                ParamKind::int(0, 10 + 7 * i),
                Stage::Runtime,
            ));
        }
        for i in 0..3 {
            s.add(ParamSpec::new(
                format!("t{i}"),
                ParamKind::Tristate,
                Stage::Runtime,
            ));
        }
        s.add(ParamSpec::new("b", ParamKind::Bool, Stage::Runtime));
        let choices: Vec<String> = (0..14).map(|i| format!("c{i}")).collect();
        s.add(ParamSpec::new(
            "e",
            ParamKind::choices(choices),
            Stage::Runtime,
        ));
        s
    }

    /// Drives `alg` over `iters` random observations and returns it.
    fn drive(alg: BayesOpt, iters: usize, seed: u64) -> BayesOpt {
        drive_in(alg, &one_d_space(), iters, seed)
    }

    /// [`drive`] over the configurations of `space`.
    fn drive_in(mut alg: BayesOpt, space: &ConfigSpace, iters: usize, seed: u64) -> BayesOpt {
        let encoder = Encoder::new(space);
        let policy = SamplePolicy::Uniform;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut history: Vec<Observation> = Vec::new();
        for i in 0..iters {
            let ctx = SearchContext {
                space,
                encoder: &encoder,
                direction: Direction::Maximize,
                policy: &policy,
                history: &history,
                iteration: i,
            };
            let c = ctx.policy.sample(ctx.space, &mut rng);
            let obs = Observation::ok(c, rng.random::<f64>(), 1.0);
            alg.observe(&ctx, &obs);
            history.push(obs);
        }
        alg
    }

    #[test]
    fn incremental_observe_matches_full_refit_bit_for_bit() {
        let incremental = drive(BayesOpt::new(), 40, 5);
        let full = drive(BayesOpt::new().with_full_refit(true), 40, 5);
        let (ci, cf) = (incremental.chol.unwrap(), full.chol.unwrap());
        assert_eq!(ci.l, cf.l, "factors diverged");
        assert_eq!(
            incremental
                .alpha
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            full.alpha.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "alpha diverged"
        );
        assert_eq!(incremental.y_stats, full.y_stats);
    }

    /// Feeds `waves` of `x` values through `observe_batch` with the noise
    /// term switched off, so a repeated configuration makes the kernel
    /// matrix singular.
    fn feed_noiseless_waves(mut alg: BayesOpt, waves: &[&[i64]]) -> BayesOpt {
        alg.noise_var = 0.0;
        let space = one_d_space();
        let encoder = Encoder::new(&space);
        let policy = SamplePolicy::Uniform;
        for (i, wave) in waves.iter().enumerate() {
            let ctx = SearchContext {
                space: &space,
                encoder: &encoder,
                direction: Direction::Maximize,
                policy: &policy,
                history: &[],
                iteration: i,
            };
            let batch: Vec<Observation> = wave
                .iter()
                .map(|&x| {
                    let mut c = space.default_config();
                    c.set(0, Value::Int(x));
                    Observation::ok(c, x as f64, 1.0)
                })
                .collect();
            alg.observe_batch(&ctx, &batch);
        }
        alg
    }

    #[test]
    fn wave_extension_falls_back_to_the_jitter_ladder_bit_for_bit() {
        // Repeating the first observation gives an exactly zero pivot.
        // The repeat arrives once inside a wave (after a row that
        // extends fine) and once in a wave of its own; each time the
        // extension must hand over to the same jittered refit, and a
        // later wave must refit the jittered factor again.
        let within: &[&[i64]] = &[&[10], &[70, 10, 40]];
        let across: &[&[i64]] = &[&[10, 70], &[40], &[10], &[95, 25]];
        for waves in [within, across] {
            let extended = feed_noiseless_waves(BayesOpt::new(), waves);
            let full = feed_noiseless_waves(BayesOpt::new().with_full_refit(true), waves);
            assert!(extended.jittered, "{waves:?} never reached the fallback");
            assert_eq!(extended.jittered, full.jittered);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (ce, cf) = (extended.chol.unwrap(), full.chol.unwrap());
            assert_eq!(bits(&ce.l), bits(&cf.l), "{waves:?}: factors diverged");
            assert_eq!(
                bits(&extended.alpha),
                bits(&full.alpha),
                "{waves:?}: alpha diverged"
            );
            assert_eq!(extended.y_stats, full.y_stats);
        }
    }

    /// The AVX2 build of the forward substitution, as `ei_batch_avx2`
    /// inlines it on a CPU without AVX-512F. Callers must check that the
    /// CPU has AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn solve_lower_multi_avx2(c: &Cholesky, b: &mut [[f64; EI_BLOCK]]) {
        c.solve_lower_multi_body(b);
    }

    #[test]
    fn solve_lower_multi_matches_per_column_bitwise() {
        // Orders around the row pairing: one and two rows, an odd row
        // after one and after many pairs, and whole blocks either side.
        let mut rng = StdRng::seed_from_u64(23);
        for n in [1, 2, 3, 4, 5, 16, 17, 64, 65] {
            // A seeded RBF kernel matrix plus noise on the diagonal: SPD,
            // dense and strongly correlated, like the GP's own.
            let pts: Vec<[f64; 3]> = (0..n)
                .map(|_| std::array::from_fn(|_| rng.random_range(0.0..2.0)))
                .collect();
            let mut k = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..n {
                    let d2: f64 = (0..3).map(|d| (pts[i][d] - pts[j][d]).powi(2)).sum();
                    k[i * n + j] = (-d2 / 2.0).exp() + if i == j { 1e-2 } else { 0.0 };
                }
            }
            let c = factor_dense(&k, n).expect("SPD");
            let cols: Vec<Vec<f64>> = (0..EI_BLOCK)
                .map(|_| (0..n).map(|_| rng.random_range(-1.0..1.0)).collect())
                .collect();
            let expected: Vec<Vec<f64>> = cols.iter().map(|col| c.solve_lower(col)).collect();
            // Interleave the columns, one multi-solve per build, then
            // compare each column against its scalar forward substitution
            // bit for bit.
            let check = |build: &str, solve: &dyn Fn(&mut [[f64; EI_BLOCK]])| {
                let mut b = vec![[0.0; EI_BLOCK]; n];
                for (j, col) in cols.iter().enumerate() {
                    for i in 0..n {
                        b[i][j] = col[i];
                    }
                }
                solve(&mut b);
                for (j, y) in expected.iter().enumerate() {
                    for i in 0..n {
                        assert_eq!(
                            b[i][j].to_bits(),
                            y[i].to_bits(),
                            "{build} build, order {n}: row {i} of column {j} diverged"
                        );
                    }
                }
            };
            check("portable", &|b| c.solve_lower_multi_body(b));
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: the CPU has just been checked for AVX2.
                    check("AVX2", &|b| unsafe { solve_lower_multi_avx2(&c, b) });
                }
                if std::arch::is_x86_feature_detected!("avx512f") {
                    // SAFETY: the CPU has just been checked for AVX-512F.
                    check("AVX-512F", &|b| unsafe { c.solve_lower_multi_avx512(b) });
                }
            }
        }
    }

    /// A GP fitted to `iters` random observations in [`wide_space`], with
    /// a length scale of 3 so that the history is strongly correlated:
    /// the factor is dense, and the solve's rounding reaches every score.
    fn wide_gp(iters: usize, seed: u64) -> (ConfigSpace, BayesOpt) {
        let space = wide_space();
        let mut alg = BayesOpt::new();
        alg.length_scale = 3.0;
        let alg = drive_in(alg, &space, iters, seed);
        (space, alg)
    }

    /// `count` encoded candidates to score against `alg`'s history. Even
    /// slots are drawn uniformly from `space`. Odd slots nudge the
    /// incumbent (the best stored observation) in one coordinate, so
    /// their kernel columns are close to 1, μ is close to the best value,
    /// and the EI depends on every bit of the posterior variance — a
    /// change in the solve's rounding shows in the scores.
    fn scoring_pool(alg: &BayesOpt, space: &ConfigSpace, count: usize, seed: u64) -> Vec<Vec<f64>> {
        let encoder = Encoder::new(space);
        let mut rng = StdRng::seed_from_u64(seed);
        let incumbent = (0..alg.ys.len())
            .max_by(|&a, &b| alg.ys[a].total_cmp(&alg.ys[b]))
            .expect("history");
        (0..count)
            .map(|i| {
                if i % 2 == 0 {
                    return encoder.encode(space, &SamplePolicy::Uniform.sample(space, &mut rng));
                }
                let mut x = alg.xs[incumbent].clone();
                let d = i % x.len();
                x[d] += 0.02 * (i % 7) as f64 + 0.01;
                x
            })
            .collect()
    }

    #[test]
    fn batched_ei_matches_scalar_ei_bitwise() {
        // Whichever builds `ei_batch` dispatches to on this host (AVX2 or
        // portable, with the AVX-512F solve where the CPU has it) must
        // score every pool size — a lone padded block, one lane short of a
        // block, exact blocks, a padded remainder, and a production-sized
        // pool — bit for bit like the per-candidate scalar path, which is
        // itself portable code. Histories of odd length leave the paired
        // solve a trailing row to run alone.
        for history in [47, 48, 49] {
            let (space, alg) = wide_gp(history, 11);
            assert_eq!(Encoder::new(&space).dim(), 47);
            assert_eq!(alg.chol.as_ref().map(Cholesky::n), Some(history));
            let best = alg.standardized_best();
            for count in [
                1,
                EI_BLOCK - 1,
                EI_BLOCK,
                EI_BLOCK + 1,
                2 * EI_BLOCK + 3,
                200,
            ] {
                let xs = scoring_pool(&alg, &space, count, 17 + count as u64);
                let batched = alg.ei_batch(&xs, best);
                assert_eq!(batched.len(), count);
                for (x, ei) in xs.iter().zip(&batched) {
                    assert_eq!(
                        ei.to_bits(),
                        alg.expected_improvement(x, best).to_bits(),
                        "history {history}, pool of {count}: batched EI diverged \
                         from the per-candidate path"
                    );
                }
            }
        }
    }

    #[test]
    fn duplicate_observations_stay_numerically_stable() {
        // Identical configurations give identical kernel rows; the noise
        // term must keep every incremental pivot positive (or trigger the
        // jittered fallback) without panicking.
        let space = one_d_space();
        let encoder = Encoder::new(&space);
        let policy = SamplePolicy::Uniform;
        let mut alg = BayesOpt::new();
        let history: Vec<Observation> = Vec::new();
        let cfg = space.default_config();
        for i in 0..30 {
            let ctx = SearchContext {
                space: &space,
                encoder: &encoder,
                direction: Direction::Maximize,
                policy: &policy,
                history: &history,
                iteration: i,
            };
            alg.observe(&ctx, &Observation::ok(cfg.clone(), 1.0, 1.0));
        }
        let x = encoder.encode(&space, &cfg);
        let (mu, var) = alg.predict(&x);
        assert!(mu.is_finite() && var.is_finite());
    }

    #[test]
    fn memory_grows_quadratically() {
        let space = one_d_space();
        let encoder = Encoder::new(&space);
        let policy = SamplePolicy::Uniform;
        let mut alg = BayesOpt::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mut history: Vec<Observation> = Vec::new();
        let mut mem_at = Vec::new();
        for i in 0..60 {
            let ctx = SearchContext {
                space: &space,
                encoder: &encoder,
                direction: Direction::Maximize,
                policy: &policy,
                history: &history,
                iteration: i,
            };
            let c = ctx.policy.sample(ctx.space, &mut rng);
            let obs = Observation::ok(c, rng.random::<f64>(), 1.0);
            alg.observe(&ctx, &obs);
            history.push(obs);
            mem_at.push(alg.stats().memory_bytes);
        }
        // 60 observations vs 30: the packed factor alone quadruples.
        assert!(mem_at[59] as f64 > mem_at[29] as f64 * 3.0);
    }

    #[test]
    fn crashes_are_imputed_not_fatal() {
        let space = one_d_space();
        let encoder = Encoder::new(&space);
        let policy = SamplePolicy::Uniform;
        let mut alg = BayesOpt::new();
        let mut rng = StdRng::seed_from_u64(4);
        let mut history: Vec<Observation> = Vec::new();
        for i in 0..20 {
            let ctx = SearchContext {
                space: &space,
                encoder: &encoder,
                direction: Direction::Maximize,
                policy: &policy,
                history: &history,
                iteration: i,
            };
            let c = alg.propose(&ctx, &mut rng);
            let obs = if i % 3 == 0 {
                Observation::crash(c, 10.0)
            } else {
                Observation::ok(c, 1.0, 1.0)
            };
            let ctx = SearchContext {
                space: &space,
                encoder: &encoder,
                direction: Direction::Maximize,
                policy: &policy,
                history: &history,
                iteration: i,
            };
            alg.observe(&ctx, &obs);
            history.push(obs);
        }
        // Still produces finite predictions after crash imputation.
        let x = encoder.encode(&space, &space.default_config());
        let (mu, var) = alg.predict(&x);
        assert!(mu.is_finite() && var.is_finite() && var > 0.0);
    }

    /// Local penalization as a product over every pending pick,
    /// recomputed for every entry at every step: the form the running
    /// penalty of [`BayesOpt::penalized_picks`] replaced.
    fn product_picks(alg: &BayesOpt, pool: &[PoolEntry], n: usize) -> Vec<usize> {
        let mut picks: Vec<usize> = Vec::new();
        let mut picked_fps = std::collections::HashSet::new();
        for _ in 0..n {
            let mut best_idx = None;
            let mut best_score = f64::MIN;
            for (i, entry) in pool.iter().enumerate() {
                if picks.contains(&i) || picked_fps.contains(&entry.fingerprint) {
                    continue;
                }
                let penalty: f64 = picks
                    .iter()
                    .map(|&p| 1.0 - alg.correlation(&entry.x, &pool[p].x))
                    .product();
                let score = entry.ei * penalty;
                if score > best_score {
                    best_score = score;
                    best_idx = Some(i);
                }
            }
            let Some(pick) = best_idx else { break };
            picked_fps.insert(pool[pick].fingerprint);
            picks.push(pick);
        }
        picks
    }

    #[test]
    fn running_penalty_picks_match_the_product_form() {
        let space = wide_space();
        let encoder = Encoder::new(&space);
        for seed in 0..4 {
            let alg = drive_in(BayesOpt::new(), &space, 24, seed);
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let mut configs: Vec<Configuration> = (0..48)
                .map(|_| SamplePolicy::Uniform.sample(&space, &mut rng))
                .collect();
            // Repeats share a fingerprint: only one copy may be picked.
            configs.extend(configs[..8].to_vec());
            let xs: Vec<Vec<f64>> = configs.iter().map(|c| encoder.encode(&space, c)).collect();
            let eis = alg.pool_ei(&xs, alg.standardized_best());
            let pool: Vec<PoolEntry> = configs
                .into_iter()
                .zip(xs)
                .zip(eis)
                .map(|((config, x), ei)| PoolEntry {
                    fingerprint: config.fingerprint(),
                    config,
                    x,
                    ei,
                })
                .collect();
            let picks = alg.penalized_picks(&pool, 4);
            assert_eq!(picks, product_picks(&alg, &pool, 4), "seed {seed}");
            assert_eq!(picks.len(), 4);
            // Past the distinct fingerprints, both stop at the same place.
            let all = alg.penalized_picks(&pool, pool.len());
            assert_eq!(all, product_picks(&alg, &pool, pool.len()), "seed {seed}");
            assert_eq!(all.len(), 48, "one pick per distinct configuration");
        }
    }
}
