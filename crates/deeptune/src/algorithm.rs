//! DeepTune as a pluggable search algorithm (Fig. 3's full loop).
//!
//! Each iteration: 1 generate a candidate pool (Trailblazer), 2 predict
//! performance/crash/uncertainty with the DTM, 3 rank with the scoring
//! function, 4 hand the top candidate to the platform, 5 update the model
//! with the observation. Everything the model consumes is normalized:
//! features are z-scored over the replay buffer, targets are z-scored
//! *goodness* (sign-adjusted metric, so maximization is uniform inside the
//! model).

use crate::model::{Dtm, DtmConfig, Prediction};
use crate::score::{rank, ScoreParams};
use crate::trailblazer::{generate_pool, PoolConfig};
use crate::transfer::Checkpoint;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use wf_configspace::Configuration;
use wf_nn::{Matrix, ScalarNorm, ZScore};
use wf_search::{AlgoStats, Observation, SearchAlgorithm, SearchContext};

/// DeepTune hyperparameters.
#[derive(Clone, Debug, PartialEq)]
pub struct DeepTuneConfig {
    /// Pure-exploration iterations before the model drives the search
    /// (skipped when warm-started from a checkpoint).
    pub warmup: usize,
    /// Candidate-pool shape.
    pub pool: PoolConfig,
    /// Scoring-function parameters (Eq. 2/3).
    pub score: ScoreParams,
    /// Training epochs over the replay buffer per observation.
    pub epochs_per_observe: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Incumbents mutated by the pool.
    pub incumbents: usize,
    /// Hidden width of the DTM.
    pub hidden: usize,
    /// RBF centroids per layer.
    pub centroids: usize,
    /// RBF smoothing (dimension-normalized distances).
    pub gamma: f64,
    /// Dropout rate.
    pub dropout: f64,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Seed for weight init and minibatch shuffling.
    pub seed: u64,
}

impl Default for DeepTuneConfig {
    fn default() -> Self {
        DeepTuneConfig {
            warmup: 10,
            pool: PoolConfig::default(),
            score: ScoreParams::default(),
            epochs_per_observe: 6,
            batch_size: 32,
            incumbents: 3,
            hidden: 48,
            centroids: 24,
            gamma: 1.0,
            dropout: 0.1,
            learning_rate: 3e-3,
            seed: 0xdeeb,
        }
    }
}

/// The DeepTune search algorithm.
pub struct DeepTune {
    cfg: DeepTuneConfig,
    model: Option<Dtm>,
    /// Checkpoint to warm-start from at first use (§3.3).
    pending_checkpoint: Option<Checkpoint>,
    /// Whether this instance was warm-started (reported by experiments).
    transferred: bool,
    // Replay buffer (raw encoded features; goodness targets).
    xs: Vec<Vec<f64>>,
    goodness: Vec<Option<f64>>,
    crashed: Vec<bool>,
    x_norm: Option<ZScore>,
    y_norm: ScalarNorm,
    train_rng: StdRng,
}

impl DeepTune {
    /// Creates a cold-start DeepTune.
    pub fn new(cfg: DeepTuneConfig) -> Self {
        let train_rng = StdRng::seed_from_u64(cfg.seed ^ 0x7ea1);
        DeepTune {
            cfg,
            model: None,
            pending_checkpoint: None,
            transferred: false,
            xs: Vec::new(),
            goodness: Vec::new(),
            crashed: Vec::new(),
            x_norm: None,
            y_norm: ScalarNorm::identity(),
            train_rng,
        }
    }

    /// Creates a DeepTune warm-started from a checkpoint (§3.3 transfer
    /// learning): the model weights, normalizers, and crash knowledge are
    /// reused; warmup is skipped.
    pub fn with_checkpoint(cfg: DeepTuneConfig, checkpoint: Checkpoint) -> Self {
        let mut dt = DeepTune::new(cfg);
        dt.pending_checkpoint = Some(checkpoint);
        dt.transferred = true;
        dt
    }

    /// Whether this instance was warm-started.
    pub fn is_transferred(&self) -> bool {
        self.transferred
    }

    /// Extracts a transfer-learning checkpoint of the trained model.
    ///
    /// Returns `None` before the model exists (no observations yet).
    pub fn checkpoint(&mut self) -> Option<Checkpoint> {
        let x_norm = self.x_norm.clone()?;
        let model = self.model.as_mut()?;
        Some(Checkpoint {
            input_dim: model.config().input_dim,
            hidden: model.config().hidden,
            centroids: model.config().centroids,
            gamma: model.config().gamma,
            weights: model.export_weights(),
            x_mean: x_norm.means().to_vec(),
            x_std: x_norm.stds().to_vec(),
            y_mean: self.y_norm.mean(),
            y_std: self.y_norm.std(),
        })
    }

    /// Predicts (crash probability, normalized goodness, σ̂) for raw
    /// encoded feature vectors. Used by the importance analysis (§4.1).
    pub fn predict_raw(&mut self, raw: &[Vec<f64>]) -> Option<Vec<Prediction>> {
        let model = self.model.as_mut()?;
        let x_norm = self.x_norm.as_ref()?;
        let dim = model.config().input_dim;
        let mut flat = Vec::with_capacity(raw.len() * dim);
        for r in raw {
            assert_eq!(r.len(), dim, "feature width mismatch");
            flat.extend_from_slice(r);
        }
        let x = x_norm.transform(&Matrix::from_vec(raw.len(), dim, flat));
        Some(model.predict(&x))
    }

    /// Like [`DeepTune::predict_raw`] but with `mu`/`sigma` de-normalized
    /// to *goodness* units (the sign-adjusted metric): the Table 3
    /// accuracy evaluation compares these against measured values.
    pub fn predict_goodness(&mut self, raw: &[Vec<f64>]) -> Option<Vec<Prediction>> {
        let y_norm = self.y_norm;
        let preds = self.predict_raw(raw)?;
        Some(
            preds
                .into_iter()
                .map(|p| Prediction {
                    crash_prob: p.crash_prob,
                    mu: y_norm.inverse(p.mu),
                    sigma: y_norm.inverse_scale(p.sigma),
                })
                .collect(),
        )
    }

    /// Ensures the model exists (lazily sized from the encoder) and is
    /// warm-started if a checkpoint is pending.
    fn ensure_model(&mut self, input_dim: usize) {
        if self.model.is_some() {
            return;
        }
        let dtm_cfg = DtmConfig {
            input_dim,
            hidden: self.cfg.hidden,
            centroids: self.cfg.centroids,
            gamma: self.cfg.gamma,
            dropout: self.cfg.dropout,
            learning_rate: self.cfg.learning_rate,
            seed: self.cfg.seed,
        };
        let mut model = Dtm::new(dtm_cfg);
        if let Some(ckpt) = self.pending_checkpoint.take() {
            assert_eq!(
                ckpt.input_dim, input_dim,
                "checkpoint was trained on a different space"
            );
            model.import_weights(&ckpt.weights);
            self.x_norm = Some(ZScore::from_stats(ckpt.x_mean.clone(), ckpt.x_std.clone()));
            self.y_norm = ScalarNorm::from_stats(ckpt.y_mean, ckpt.y_std);
        }
        self.model = Some(model);
    }

    /// Whether the model is ready to drive proposals.
    fn model_ready(&self) -> bool {
        self.model.is_some()
            && self.x_norm.is_some()
            && (self.xs.len() >= self.cfg.warmup || self.transferred)
    }

    /// Refits the feature/target normalizers on the replay buffer.
    fn refit_normalizers(&mut self) {
        let n = self.xs.len();
        if n == 0 {
            return;
        }
        // With a fresh transfer checkpoint, keep the donor's normalizers
        // until enough local data exists to re-estimate them stably.
        if self.transferred && n < 8 {
            return;
        }
        let dim = self.xs[0].len();
        let mut flat = Vec::with_capacity(n * dim);
        for x in &self.xs {
            flat.extend_from_slice(x);
        }
        self.x_norm = Some(ZScore::fit(&Matrix::from_vec(n, dim, flat)));
        let ok: Vec<f64> = self.goodness.iter().flatten().copied().collect();
        if !ok.is_empty() {
            self.y_norm = ScalarNorm::fit(&ok);
        }
    }

    /// Runs the per-observation training epochs.
    fn train(&mut self) {
        let n = self.xs.len();
        if n < 4 {
            return;
        }
        let Some(x_norm) = self.x_norm.clone() else {
            return;
        };
        let dim = self.xs[0].len();
        self.ensure_model(dim);
        let y_norm = self.y_norm;
        let batch = self.cfg.batch_size.max(4).min(n);
        let mut indices: Vec<usize> = (0..n).collect();
        for _ in 0..self.cfg.epochs_per_observe {
            indices.shuffle(&mut self.train_rng);
            for chunk in indices.chunks(batch) {
                let mut flat = Vec::with_capacity(chunk.len() * dim);
                let mut ys = Vec::with_capacity(chunk.len());
                let mut cr = Vec::with_capacity(chunk.len());
                for &i in chunk {
                    flat.extend_from_slice(&self.xs[i]);
                    ys.push(match self.goodness[i] {
                        Some(g) => y_norm.transform(g),
                        None => 0.0,
                    });
                    cr.push(self.crashed[i]);
                }
                let xb = x_norm.transform(&Matrix::from_vec(chunk.len(), dim, flat));
                self.model
                    .as_mut()
                    .expect("ensure_model ran")
                    .train_batch(&xb, &ys, &cr);
            }
        }
    }

    /// Fig. 3 steps 1–4: the top-ranked candidate of a fresh pool (a
    /// policy sample until the model is ready).
    fn propose_one(&mut self, ctx: &SearchContext<'_>, rng: &mut StdRng) -> Configuration {
        if self.pending_checkpoint.is_some() {
            self.ensure_model(ctx.encoder.dim());
        }
        if !self.model_ready() {
            ctx.policy.sample(ctx.space, rng)
        } else {
            // 1: diverse candidate pool around the best configurations.
            let mut ranked_history: Vec<&Observation> =
                ctx.history.iter().filter(|o| o.value.is_some()).collect();
            ranked_history.sort_by(|a, b| {
                ctx.goodness(b.value.unwrap())
                    .partial_cmp(&ctx.goodness(a.value.unwrap()))
                    .unwrap()
            });
            let incumbents: Vec<Configuration> = ranked_history
                .iter()
                .take(self.cfg.incumbents)
                .map(|o| o.config.clone())
                .collect();
            let pool = generate_pool(ctx.space, ctx.policy, &incumbents, &self.cfg.pool, rng);

            // 2: predict.
            let features: Vec<Vec<f64>> = pool
                .iter()
                .map(|c| ctx.encoder.encode(ctx.space, c))
                .collect();
            let preds = self
                .predict_raw(&features)
                .expect("model_ready() implies a usable model");
            let goodness: Vec<f64> = preds.iter().map(|p| p.mu).collect();

            // 3: rank against the explored set. The replay buffer already
            // holds every observed configuration's raw encoding in history
            // order, so the usual case borrows it instead of re-encoding
            // the whole history each proposal (an O(n·dim) saving per
            // iteration). Callers that hand propose a history the model
            // was never told about fall back to encoding it directly.
            let reencoded: Vec<Vec<f64>>;
            let known: &[Vec<f64>] = if self.xs.len() == ctx.history.len() {
                &self.xs
            } else {
                reencoded = ctx
                    .history
                    .iter()
                    .map(|o| ctx.encoder.encode(ctx.space, &o.config))
                    .collect();
                &reencoded
            };
            let order = rank(&self.cfg.score, &preds, &goodness, &features, known);
            pool[order[0]].clone()
        }
    }

    /// Fig. 3 step 5: records one observation and retrains.
    fn observe_one(&mut self, ctx: &SearchContext<'_>, obs: &Observation) {
        let x = ctx.encoder.encode(ctx.space, &obs.config);
        self.xs.push(x);
        self.goodness.push(obs.value.map(|v| ctx.goodness(v)));
        self.crashed.push(obs.crashed);
        self.refit_normalizers();
        self.ensure_model(ctx.encoder.dim());
        self.train();
    }
}

impl SearchAlgorithm for DeepTune {
    fn name(&self) -> &'static str {
        "deeptune"
    }

    fn propose_batch(
        &mut self,
        n: usize,
        ctx: &SearchContext<'_>,
        rng: &mut StdRng,
    ) -> Vec<Configuration> {
        (0..n).map(|_| self.propose_one(ctx, rng)).collect()
    }

    fn observe_batch(&mut self, ctx: &SearchContext<'_>, batch: &[Observation]) {
        for obs in batch {
            self.observe_one(ctx, obs);
        }
    }

    fn begin_epoch(&mut self, transfer: bool) {
        // Continuous sessions: the workload shifted, the per-epoch replay
        // buffer is stale. With `transfer`, self-checkpoint first — the
        // trained DTM's weights and normalizers seed the next epoch
        // exactly like a §3.3 cross-target transfer (warmup skipped,
        // donor normalizers kept until 8 local observations); without it,
        // restart cold. `train_rng` keeps advancing its stream either
        // way, so an uninterrupted run and a replayed one stay bit-equal.
        let ckpt = if transfer { self.checkpoint() } else { None };
        self.xs.clear();
        self.goodness.clear();
        self.crashed.clear();
        self.model = None;
        self.x_norm = None;
        self.y_norm = ScalarNorm::identity();
        self.transferred = false;
        self.pending_checkpoint = None;
        if let Some(ckpt) = ckpt {
            self.pending_checkpoint = Some(ckpt);
            self.transferred = true;
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn stats(&self) -> AlgoStats {
        // Memory: fixed model parameters + the replay buffer (linear in n
        // — the O(n) memory of Fig. 7, against the GP's O(n²)).
        let model_bytes = self.model.as_ref().map(|m| m.memory_bytes()).unwrap_or(0);
        let buffer_bytes: usize =
            self.xs.iter().map(|x| x.len() * 8).sum::<usize>() + self.goodness.len() * 16;
        AlgoStats {
            memory_bytes: model_bytes + buffer_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_configspace::{ConfigSpace, Encoder, ParamKind, ParamSpec, Stage};
    use wf_jobfile::Direction;
    use wf_search::SamplePolicy;

    fn space() -> ConfigSpace {
        let mut s = ConfigSpace::new();
        s.add(ParamSpec::new("a", ParamKind::int(0, 100), Stage::Runtime));
        s.add(ParamSpec::new("b", ParamKind::int(0, 100), Stage::Runtime));
        s.add(ParamSpec::new("c", ParamKind::Bool, Stage::Runtime));
        s
    }

    /// Objective: maximize a, crash when c is on.
    fn run_session(alg: &mut DeepTune, iters: usize, seed: u64) -> Vec<Observation> {
        let space = space();
        let encoder = Encoder::new(&space);
        let policy = SamplePolicy::Uniform;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut history: Vec<Observation> = Vec::new();
        for i in 0..iters {
            let c = {
                let ctx = SearchContext {
                    space: &space,
                    encoder: &encoder,
                    direction: Direction::Maximize,
                    policy: &policy,
                    history: &history,
                    iteration: i,
                };
                alg.propose(&ctx, &mut rng)
            };
            let crash = c.by_name(&space, "c").unwrap().as_bool().unwrap();
            let obs = if crash {
                Observation::crash(c, 10.0)
            } else {
                let a = c.by_name(&space, "a").unwrap().as_int().unwrap() as f64;
                Observation::ok(c, a, 60.0)
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
        history
    }

    #[test]
    fn learns_to_avoid_crashes_and_climb() {
        let mut alg = DeepTune::new(DeepTuneConfig {
            warmup: 8,
            epochs_per_observe: 4,
            ..DeepTuneConfig::default()
        });
        let history = run_session(&mut alg, 60, 42);
        let early_crashes = history[..20].iter().filter(|o| o.crashed).count();
        let late_crashes = history[40..].iter().filter(|o| o.crashed).count();
        assert!(
            late_crashes < early_crashes.max(3),
            "crash learning: early={early_crashes} late={late_crashes}"
        );
        let late_best = history[40..]
            .iter()
            .filter_map(|o| o.value)
            .fold(f64::MIN, f64::max);
        assert!(late_best > 88.0, "late best {late_best}");
    }

    #[test]
    fn checkpoint_round_trip_transfers_crash_knowledge() {
        let mut donor = DeepTune::new(DeepTuneConfig {
            warmup: 8,
            ..DeepTuneConfig::default()
        });
        let _ = run_session(&mut donor, 50, 7);
        let ckpt = donor.checkpoint().expect("trained model");

        let mut fresh = DeepTune::with_checkpoint(DeepTuneConfig::default(), ckpt);
        assert!(fresh.is_transferred());
        let history = run_session(&mut fresh, 25, 8);
        let crashes = history.iter().filter(|o| o.crashed).count();
        // The crash boundary (c = on) was already learned by the donor.
        assert!(
            (crashes as f64 / history.len() as f64) < 0.2,
            "transfer crash rate {crashes}/{}",
            history.len()
        );
    }

    #[test]
    fn memory_grows_linearly_not_quadratically() {
        let mut alg = DeepTune::new(DeepTuneConfig {
            warmup: 5,
            epochs_per_observe: 1,
            ..DeepTuneConfig::default()
        });
        let space = space();
        let encoder = Encoder::new(&space);
        let policy = SamplePolicy::Uniform;
        let mut rng = StdRng::seed_from_u64(3);
        let mut history: Vec<Observation> = Vec::new();
        let mut mems = Vec::new();
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
            let obs = Observation::ok(c, 1.0, 1.0);
            alg.observe(&ctx, &obs);
            history.push(obs);
            mems.push(alg.stats().memory_bytes);
        }
        let d1 = mems[39] - mems[19];
        let d2 = mems[59] - mems[39];
        // Linear growth: equal increments per 20 observations.
        assert!(
            (d1 as f64 - d2 as f64).abs() < d1 as f64 * 0.2 + 1.0,
            "increments {d1} vs {d2}"
        );
    }

    #[test]
    fn warmup_is_pure_policy_sampling() {
        let mut alg = DeepTune::new(DeepTuneConfig {
            warmup: 100,
            ..DeepTuneConfig::default()
        });
        let history = run_session(&mut alg, 20, 5);
        // No model-driven crash avoidance during warmup: crash rate stays
        // near the ~50% the objective imposes (c is a fair coin).
        let crashes = history.iter().filter(|o| o.crashed).count();
        assert!(crashes >= 4, "warmup should not avoid crashes: {crashes}");
    }
}
