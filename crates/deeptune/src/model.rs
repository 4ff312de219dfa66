//! The DeepTune Model (DTM) — §3.2, Fig. 4.
//!
//! A multitask neural network `F(x) → (k̂, ŷ, σ̂)` mapping a configuration's
//! feature vector to a crash probability, an expected performance, and a
//! predicted uncertainty. Two branches:
//!
//! * the **prediction branch** `F_p`: dense → ReLU → dropout stacked twice,
//!   with three heads — crash logits (2 classes, trained with `L_CCE`),
//!   performance mean, and log-variance (the two trained jointly with the
//!   Kendall-&-Gal heteroscedastic loss `L_Reg`);
//! * the **uncertainty branch** `F_u`: a stack of Gaussian RBF layers
//!   (Eq. 1), each fed the concatenation of the previous layers' latents
//!   (`z = z1 + z2` in Fig. 4), ending in a softplus head producing σ̂.
//!   Centroids are regularized with the Chamfer distance (`L_Cham`) so
//!   they track the latent distribution; inputs far from every centroid
//!   produce near-zero activations, which the σ̂ head learns to map to
//!   high uncertainty — the outlier robustness the paper designs for.
//!
//! One deviation from the paper's constants, recorded in DESIGN.md: RBF
//! distances are *dimension-normalized* (`‖z − c‖²/d`) so the smoothing
//! parameter is independent of feature count; the default `gamma = 1.0`
//! plays the role of the paper's 0.1 at their feature scale. γ stays
//! configurable and the ablation bench sweeps it.

use wf_nn::layer::{apply_mask, relu, relu_inference};
use wf_nn::loss::{chamfer, heteroscedastic_regression, weighted_categorical_cross_entropy};
use wf_nn::{sigmoid, softplus, softplus_grad, Adam, Dense, Dropout, Matrix, Rbf, Tensor};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hyperparameters of the DTM.
#[derive(Clone, Debug, PartialEq)]
pub struct DtmConfig {
    /// Input feature dimensionality.
    pub input_dim: usize,
    /// Hidden width of the prediction branch.
    pub hidden: usize,
    /// Centroids per RBF layer.
    pub centroids: usize,
    /// RBF smoothing parameter over dimension-normalized distances.
    pub gamma: f64,
    /// Dropout rate.
    pub dropout: f64,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Weight initialization / dropout seed.
    pub seed: u64,
}

impl DtmConfig {
    /// A sensible default for `input_dim` features.
    pub fn for_input(input_dim: usize) -> Self {
        DtmConfig {
            input_dim,
            hidden: 48,
            centroids: 24,
            gamma: 1.0,
            dropout: 0.1,
            learning_rate: 3e-3,
            seed: 0x0d7e,
        }
    }
}

/// The model's predictions for a batch row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prediction {
    /// Probability that the configuration crashes.
    pub crash_prob: f64,
    /// Predicted performance in *normalized* target units.
    pub mu: f64,
    /// Predicted uncertainty σ̂ (normalized target units, ≥ 0).
    pub sigma: f64,
}

/// Loss breakdown of one training step (`L = L_CCE + L_Reg + L_Cham`, plus
/// the σ̂ regression term that ties the uncertainty branch to observed
/// errors).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LossBreakdown {
    /// Categorical cross-entropy of the crash head.
    pub cce: f64,
    /// Heteroscedastic regression loss.
    pub reg: f64,
    /// Chamfer centroid regularizer (both RBF layers).
    pub cham: f64,
    /// σ̂-vs-|error| regression term.
    pub sigma: f64,
}

impl LossBreakdown {
    /// Total loss.
    pub fn total(&self) -> f64 {
        self.cce + self.reg + self.cham + self.sigma
    }
}

/// The DeepTune Model.
pub struct Dtm {
    cfg: DtmConfig,
    // Prediction branch (each dense layer feeds ReLU, then dropout).
    l1: Dense,
    dr1: Dropout,
    l2: Dense,
    dr2: Dropout,
    crash_head: Dense,
    mu_head: Dense,
    logvar_head: Dense,
    // Uncertainty branch.
    rbf1: Rbf,
    rbf2: Rbf,
    sigma_head: Dense,
    opt: Adam,
}

/// One training forward: it borrows the batch and owns every activation,
/// mask and RBF distance matrix that the losses and backward read. The
/// layers themselves hold only parameters.
struct TrainPass<'x> {
    /// The batch: the input of `l1`, and `z1`, the input of `rbf1`.
    x: &'x Matrix,
    stage1: StageMasks,
    /// Output of the first ReLU → dropout stage: the input of `l2`.
    h1: Matrix,
    stage2: StageMasks,
    /// Output of the second stage: the input of the three heads.
    h2: Matrix,
    crash_logits: Matrix,
    mu: Matrix,
    logvar: Matrix,
    /// `rbf1`'s squared distances from `x`, read by its activations and
    /// by Chamfer.
    dist1: Matrix,
    phi1: Matrix,
    /// `phi1 ‖ h1`: the input of `rbf2`.
    z2: Matrix,
    /// `rbf2`'s squared distances from `z2`.
    dist2: Matrix,
    /// The input of the σ̂ head.
    phi2: Matrix,
    sigma_raw: Matrix,
}

/// The masks of one ReLU → dropout stage of the prediction branch.
struct StageMasks {
    relu: Matrix,
    /// `None` at dropout rate 0.
    dropout: Option<Matrix>,
}

impl StageMasks {
    /// ReLU then dropout on `a`, in place, drawing the dropout mask.
    fn forward(a: &mut Matrix, dropout: &mut Dropout) -> Self {
        let relu = relu(a);
        let dropout = dropout.mask(a.rows(), a.cols());
        if let Some(mask) = &dropout {
            apply_mask(a, mask);
        }
        StageMasks { relu, dropout }
    }

    /// The stage's backward on the gradient `g`, in place: the dropout
    /// mask, then the ReLU mask.
    fn backward(&self, g: &mut Matrix) {
        if let Some(mask) = &self.dropout {
            apply_mask(g, mask);
        }
        apply_mask(g, &self.relu);
    }
}

impl Dtm {
    /// Creates a freshly initialized model.
    pub fn new(cfg: DtmConfig) -> Self {
        assert!(cfg.input_dim > 0 && cfg.hidden > 0 && cfg.centroids > 0);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let d = cfg.input_dim;
        let h = cfg.hidden;
        let k = cfg.centroids;
        Dtm {
            l1: Dense::new(d, h, &mut rng),
            dr1: Dropout::new(cfg.dropout, cfg.seed ^ 0x1),
            l2: Dense::new(h, h, &mut rng),
            dr2: Dropout::new(cfg.dropout, cfg.seed ^ 0x2),
            crash_head: Dense::new(h, 2, &mut rng),
            mu_head: Dense::new(h, 1, &mut rng),
            logvar_head: Dense::new(h, 1, &mut rng),
            // Dimension-aware smoothing: gamma_eff = gamma * sqrt(dim)
            // makes exp(-||z-c||^2 / (2 gamma_eff^2)) equivalent to a
            // dimension-normalized distance with smoothing gamma.
            rbf1: Rbf::new(d, k, cfg.gamma * (d as f64).sqrt(), &mut rng),
            rbf2: Rbf::new(k + h, k, cfg.gamma * ((k + h) as f64).sqrt(), &mut rng),
            sigma_head: Dense::new(k, 1, &mut rng),
            opt: Adam::new(cfg.learning_rate),
            cfg,
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &DtmConfig {
        &self.cfg
    }

    /// Number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        let d = self.cfg.input_dim;
        let h = self.cfg.hidden;
        let k = self.cfg.centroids;
        (d * h + h) + (h * h + h) + (h * 2 + 2) + (h + 1) * 2 + (k * d) + (k * (k + h)) + (k + 1)
    }

    /// Bytes of parameter + optimizer state (Fig. 7's memory accounting:
    /// Adam holds two moments per parameter).
    pub fn memory_bytes(&self) -> usize {
        self.parameter_count() * 3 * std::mem::size_of::<f64>()
    }

    /// The training forward (dropout on). Fig. 4's uncertainty branch:
    /// `z1` is the batch itself, borrowed by the pass, and `z2`
    /// concatenates the first RBF activations with the prediction
    /// latents.
    fn train_forward<'x>(&mut self, x: &'x Matrix) -> TrainPass<'x> {
        let mut h1 = self.l1.forward(x);
        let stage1 = StageMasks::forward(&mut h1, &mut self.dr1);
        let mut h2 = self.l2.forward(&h1);
        let stage2 = StageMasks::forward(&mut h2, &mut self.dr2);
        let dist1 = self.rbf1.sq_dists(x);
        let phi1 = self.rbf1.activate(dist1.clone());
        let z2 = phi1.concat_cols(&h1);
        let dist2 = self.rbf2.sq_dists(&z2);
        let phi2 = self.rbf2.activate(dist2.clone());
        TrainPass {
            x,
            stage1,
            crash_logits: self.crash_head.forward(&h2),
            mu: self.mu_head.forward(&h2),
            logvar: self.logvar_head.forward(&h2),
            h1,
            stage2,
            h2,
            dist1,
            phi1,
            z2,
            dist2,
            sigma_raw: self.sigma_head.forward(&phi2),
            phi2,
        }
    }

    /// Predicts crash probability, normalized performance, and σ̂ for each
    /// row of `x` (inference mode: dropout off, nothing kept for backward).
    pub fn predict(&self, x: &Matrix) -> Vec<Prediction> {
        let mut h1 = self.l1.forward(x);
        relu_inference(&mut h1);
        let mut h2 = self.l2.forward(&h1);
        relu_inference(&mut h2);
        let crash_logits = self.crash_head.forward(&h2);
        let mu = self.mu_head.forward(&h2);
        let z2 = self.rbf1.forward(x).concat_cols(&h1);
        let sigma_raw = self.sigma_head.forward(&self.rbf2.forward(&z2));
        (0..x.rows())
            .map(|r| {
                let crash_prob = {
                    let a = crash_logits.get(r, 0);
                    let b = crash_logits.get(r, 1);
                    // Class 1 = crash; softmax of two logits is a sigmoid.
                    sigmoid(b - a)
                };
                Prediction {
                    crash_prob,
                    mu: mu.get(r, 0),
                    sigma: softplus(sigma_raw.get(r, 0)),
                }
            })
            .collect()
    }

    /// One training step on a batch.
    ///
    /// `targets` holds normalized performance values (ignored for crashed
    /// rows); `crashed` flags each row. Returns the loss breakdown.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn train_batch(&mut self, x: &Matrix, targets: &[f64], crashed: &[bool]) -> LossBreakdown {
        let breakdown = self.compute_grads(x, targets, crashed);
        self.step();
        breakdown
    }

    /// Computes `L = L_CCE + L_Reg + L_Cham` (+ the σ̂ term) and
    /// *accumulates* gradients into every tensor without applying an
    /// optimizer step. [`Dtm::train_batch`] is this plus one Adam step;
    /// the gradient-check tests use it directly.
    pub fn compute_grads(
        &mut self,
        x: &Matrix,
        targets: &[f64],
        crashed: &[bool],
    ) -> LossBreakdown {
        assert_eq!(x.rows(), targets.len());
        assert_eq!(x.rows(), crashed.len());
        assert_eq!(x.cols(), self.cfg.input_dim);
        let pass = self.train_forward(x);
        self.zero_grads();
        let b = x.rows();

        // --- L_CCE on the crash head (all rows). -------------------------
        // Crashing configurations are the minority class (~1/3 of random
        // samples), so the loss is inverse-frequency weighted: without
        // this the crash head systematically under-predicts crashes and
        // Table 3's failure accuracy degenerates toward coin-flipping.
        let labels: Vec<usize> = crashed.iter().map(|c| *c as usize).collect();
        let n_crash = labels.iter().filter(|&&l| l == 1).count();
        let class_weights = if n_crash == 0 || n_crash == b {
            [1.0, 1.0]
        } else {
            let bf = b as f64;
            [
                bf / (2.0 * (b - n_crash) as f64),
                bf / (2.0 * n_crash as f64),
            ]
        };
        let (cce, grad_logits) =
            weighted_categorical_cross_entropy(&pass.crash_logits, &labels, &class_weights);

        // --- L_Reg on non-crashed rows. ----------------------------------
        // Mask crashed rows by zeroing their gradient contributions.
        let ok_rows: Vec<usize> = (0..b).filter(|r| !crashed[*r]).collect();
        let (reg, grad_mu, grad_logvar) = if ok_rows.is_empty() {
            (0.0, Matrix::zeros(b, 1), Matrix::zeros(b, 1))
        } else {
            let mu_ok = pass.mu.select_rows(&ok_rows);
            let lv_ok = pass.logvar.select_rows(&ok_rows);
            let y_ok: Vec<f64> = ok_rows.iter().map(|&r| targets[r]).collect();
            let (reg, gm, gl) = heteroscedastic_regression(&mu_ok, &lv_ok, &y_ok);
            let mut grad_mu = Matrix::zeros(b, 1);
            let mut grad_lv = Matrix::zeros(b, 1);
            for (i, &r) in ok_rows.iter().enumerate() {
                grad_mu.set(r, 0, gm.get(i, 0));
                grad_lv.set(r, 0, gl.get(i, 0));
            }
            (reg, grad_mu, grad_lv)
        };

        // --- σ̂ regression: match the prediction branch's actual error. ---
        // Stop-gradient on mu: the uncertainty branch adapts to the
        // predictor, not the other way around.
        let mut sigma_loss = 0.0;
        let mut grad_sigma_raw = Matrix::zeros(b, 1);
        if !ok_rows.is_empty() {
            let nb = ok_rows.len() as f64;
            for &r in &ok_rows {
                let err = (pass.mu.get(r, 0) - targets[r]).abs();
                let raw = pass.sigma_raw.get(r, 0);
                let s = softplus(raw);
                let diff = s - err;
                sigma_loss += diff * diff / nb;
                grad_sigma_raw.set(r, 0, 2.0 * diff * softplus_grad(raw) / nb);
            }
        }

        // --- Backward: prediction branch. --------------------------------
        self.crash_head.accumulate_grads(&pass.h2, &grad_logits);
        self.mu_head.accumulate_grads(&pass.h2, &grad_mu);
        self.logvar_head.accumulate_grads(&pass.h2, &grad_logvar);
        let mut g = self.crash_head.input_grad(&grad_logits);
        g.add_assign(&self.mu_head.input_grad(&grad_mu));
        g.add_assign(&self.logvar_head.input_grad(&grad_logvar));
        pass.stage2.backward(&mut g);
        self.l2.accumulate_grads(&pass.h1, &g);
        // The uncertainty branch reads h1 but does not reshape it
        // (stop-gradient, see module docs); only the prediction gradient
        // flows back to layer 1, whose input gradient nothing reads.
        let mut g = self.l2.input_grad(&g);
        pass.stage1.backward(&mut g);
        self.l1.accumulate_grads(pass.x, &g);

        // --- Backward: uncertainty branch. --------------------------------
        self.sigma_head
            .accumulate_grads(&pass.phi2, &grad_sigma_raw);
        let g_phi2 = self.sigma_head.input_grad(&grad_sigma_raw);
        self.rbf2.accumulate_grads(&pass.z2, &pass.phi2, &g_phi2);
        // Only phi1's columns of z2's gradient flow on; the h1 columns
        // are never computed (stop-gradient, see module docs).
        let g_phi1 = self
            .rbf2
            .input_grad(&pass.z2, &pass.phi2, &g_phi2, self.cfg.centroids);
        self.rbf1.accumulate_grads(pass.x, &pass.phi1, &g_phi1);

        // --- L_Cham: pull centroids onto the latent distribution. --------
        // Weighted by 1/dim so the regularizer stays commensurate with the
        // prediction losses at any feature count. z1 is the raw input `x`.
        // Both read the distances their layer's forward computed.
        let lam1 = 1.0 / self.cfg.input_dim as f64;
        let lam2 = 1.0 / (self.cfg.centroids + self.cfg.hidden) as f64;
        let (cham1, mut grad_c1) = chamfer(&self.rbf1.centroids().value, x, &pass.dist1);
        grad_c1.scale(lam1);
        self.rbf1.centroids_mut().grad.add_assign(&grad_c1);
        let (cham2, mut grad_c2) = chamfer(&self.rbf2.centroids().value, &pass.z2, &pass.dist2);
        grad_c2.scale(lam2);
        self.rbf2.centroids_mut().grad.add_assign(&grad_c2);

        LossBreakdown {
            cce,
            reg,
            cham: lam1 * cham1 + lam2 * cham2,
            sigma: sigma_loss,
        }
    }

    fn zero_grads(&mut self) {
        for t in self.tensors() {
            t.zero_grad();
        }
    }

    fn step(&mut self) {
        let (mut tensors, opt) = self.tensors_and_opt();
        opt.step(&mut tensors);
    }

    /// All trainable tensors in a stable order (the optimizer keys state by
    /// position).
    fn tensors(&mut self) -> Vec<&mut Tensor> {
        self.tensors_and_opt().0
    }

    /// [`Dtm::tensors`] and the optimizer: disjoint fields, borrowed at
    /// once.
    fn tensors_and_opt(&mut self) -> (Vec<&mut Tensor>, &mut Adam) {
        let Dtm {
            l1,
            l2,
            crash_head,
            mu_head,
            logvar_head,
            rbf1,
            rbf2,
            sigma_head,
            opt,
            ..
        } = self;
        let mut tensors = Vec::with_capacity(14);
        for dense in [l1, l2, crash_head, mu_head, logvar_head] {
            tensors.extend(dense.tensors());
        }
        tensors.push(rbf1.centroids_mut());
        tensors.push(rbf2.centroids_mut());
        tensors.extend(sigma_head.tensors());
        (tensors, opt)
    }

    /// Snapshot of all weights (for transfer-learning checkpoints).
    pub fn export_weights(&mut self) -> Vec<Matrix> {
        self.tensors().iter().map(|t| t.value.clone()).collect()
    }

    /// Restores weights exported by [`Dtm::export_weights`].
    ///
    /// # Panics
    ///
    /// Panics on a count or shape mismatch — a truncated checkpoint must
    /// not half-load.
    pub fn import_weights(&mut self, weights: &[Matrix]) {
        let mut tensors = self.tensors();
        assert_eq!(tensors.len(), weights.len(), "checkpoint tensor count");
        for (t, w) in tensors.iter_mut().zip(weights.iter()) {
            assert_eq!(
                (t.value.rows(), t.value.cols()),
                (w.rows(), w.cols()),
                "checkpoint tensor shape"
            );
            t.value = w.clone();
        }
        // Optimizer moments belong to the old trajectory.
        self.opt.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn toy_batch(n: usize, d: usize, seed: u64) -> (Matrix, Vec<f64>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Matrix::from_fn(n, d, |_, _| rng.random::<f64>());
        // Ground truth: y = 2*x0 - x1; crash iff x2 > 0.8.
        let mut ys = Vec::with_capacity(n);
        let mut crashed = Vec::with_capacity(n);
        for r in 0..n {
            let crash = x.get(r, 2) > 0.8;
            crashed.push(crash);
            ys.push(if crash {
                0.0
            } else {
                2.0 * x.get(r, 0) - x.get(r, 1)
            });
        }
        (x, ys, crashed)
    }

    #[test]
    fn training_reduces_total_loss() {
        let mut m = Dtm::new(DtmConfig::for_input(6));
        let (x, y, c) = toy_batch(64, 6, 1);
        let first = m.train_batch(&x, &y, &c);
        let mut last = first;
        for _ in 0..80 {
            last = m.train_batch(&x, &y, &c);
        }
        assert!(
            last.total() < first.total() * 0.6,
            "first={:.4} last={:.4}",
            first.total(),
            last.total()
        );
    }

    #[test]
    fn learns_crash_boundary() {
        let mut m = Dtm::new(DtmConfig::for_input(6));
        let (x, y, c) = toy_batch(128, 6, 2);
        for _ in 0..150 {
            m.train_batch(&x, &y, &c);
        }
        let (xt, _, ct) = toy_batch(64, 6, 99);
        let preds = m.predict(&xt);
        let correct = preds
            .iter()
            .zip(ct.iter())
            .filter(|(p, c)| (p.crash_prob > 0.5) == **c)
            .count();
        assert!(correct >= 48, "crash accuracy {correct}/64");
    }

    #[test]
    fn learns_regression_target() {
        let mut m = Dtm::new(DtmConfig::for_input(6));
        let (x, y, c) = toy_batch(128, 6, 3);
        for _ in 0..200 {
            m.train_batch(&x, &y, &c);
        }
        let preds = m.predict(&x);
        let mut se = 0.0;
        let mut n = 0.0;
        for (r, p) in preds.iter().enumerate() {
            if !c[r] {
                se += (p.mu - y[r]).powi(2);
                n += 1.0;
            }
        }
        let rmse = (se / n).sqrt();
        // Targets span roughly [-1, 2]; an untrained net sits near RMSE 1.
        assert!(rmse < 0.35, "rmse={rmse}");
    }

    #[test]
    fn uncertainty_rises_for_outliers() {
        let mut m = Dtm::new(DtmConfig::for_input(6));
        let (x, y, c) = toy_batch(128, 6, 4);
        for _ in 0..150 {
            m.train_batch(&x, &y, &c);
        }
        // In-distribution points.
        let preds_in = m.predict(&x);
        let mean_in: f64 = preds_in.iter().map(|p| p.sigma).sum::<f64>() / preds_in.len() as f64;
        // Far outliers.
        let x_out = Matrix::filled(16, 6, 8.0);
        let preds_out = m.predict(&x_out);
        let mean_out: f64 = preds_out.iter().map(|p| p.sigma).sum::<f64>() / preds_out.len() as f64;
        assert!(
            mean_out > mean_in,
            "outlier sigma {mean_out} should exceed in-distribution {mean_in}"
        );
    }

    #[test]
    fn export_import_round_trips() {
        let mut a = Dtm::new(DtmConfig::for_input(5));
        let (x, y, c) = toy_batch(32, 5, 5);
        for _ in 0..20 {
            a.train_batch(&x, &y, &c);
        }
        let weights = a.export_weights();
        let mut b = Dtm::new(DtmConfig::for_input(5));
        b.import_weights(&weights);
        let pa = a.predict(&x);
        let pb = b.predict(&x);
        for (u, v) in pa.iter().zip(pb.iter()) {
            assert!((u.mu - v.mu).abs() < 1e-12);
            assert!((u.crash_prob - v.crash_prob).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "checkpoint tensor shape")]
    fn import_rejects_wrong_shapes() {
        let mut a = Dtm::new(DtmConfig::for_input(5));
        let mut b = Dtm::new(DtmConfig::for_input(7));
        let w = b.export_weights();
        a.import_weights(&w);
    }

    /// Finite-difference check of the multi-branch backward pass.
    ///
    /// Stop-gradients are part of the design (module docs): the sigma loss
    /// does not reshape the prediction branch, and the Chamfer batch side
    /// does not reshape latents. Each tensor is therefore checked against
    /// the numeric derivative of exactly the loss terms that flow to it:
    ///
    /// * crash/logvar heads, rbf2 centroids, sigma head — the full loss;
    /// * l1/l2/mu head — `L_CCE + L_Reg` (the sigma/Chamfer paths into
    ///   them are severed by design);
    /// * rbf1 centroids — skipped (their analytic gradient mixes the
    ///   propagated sigma path with the Chamfer-1 term while the numeric
    ///   full loss adds the unpropagated Chamfer-2 batch path; the RBF
    ///   layer itself is gradient-checked in `wf-nn`).
    #[test]
    fn full_model_gradients_match_finite_differences() {
        let cfg = DtmConfig {
            input_dim: 4,
            hidden: 6,
            centroids: 3,
            gamma: 1.0,
            dropout: 0.0, // deterministic forward
            learning_rate: 1e-3,
            seed: 77,
        };
        let mut m = Dtm::new(cfg);
        let (x, y, c) = toy_batch(8, 4, 7);

        // Tensor order (see Dtm::tensors): l1{W,b} l2{W,b} crash{W,b}
        // mu{W,b} logvar{W,b} rbf1c rbf2c sigma{W,b}.
        #[derive(Clone, Copy, PartialEq)]
        enum Target {
            Full,
            CceReg,
            Skip,
        }
        let targets = [
            Target::CceReg, // l1 W
            Target::CceReg, // l1 b
            Target::CceReg, // l2 W
            Target::CceReg, // l2 b
            Target::Full,   // crash W
            Target::Full,   // crash b
            Target::CceReg, // mu W (sigma reads |mu - y| with stop-grad)
            Target::CceReg, // mu b
            Target::Full,   // logvar W
            Target::Full,   // logvar b
            Target::Skip,   // rbf1 centroids
            Target::Full,   // rbf2 centroids
            Target::Full,   // sigma W
            Target::Full,   // sigma b
        ];

        let _ = m.compute_grads(&x, &y, &c);
        let analytic: Vec<Matrix> = m.tensors().iter().map(|t| t.grad.clone()).collect();
        assert_eq!(analytic.len(), targets.len());

        let loss_of = |b: &LossBreakdown, target: Target| match target {
            Target::Full => b.total(),
            Target::CceReg => b.cce + b.reg,
            Target::Skip => 0.0,
        };

        let eps = 1e-5;
        let mut checked = 0;
        for (ti, &target) in targets.iter().enumerate() {
            if target == Target::Skip {
                continue;
            }
            let len = analytic[ti].len();
            for k in 0..len.min(4) {
                let idx = (k * 7) % len;
                let base = m.tensors()[ti].value.data()[idx];

                m.tensors()[ti].value.data_mut()[idx] = base + eps;
                let up = loss_of(&m.compute_grads(&x, &y, &c), target);
                m.tensors()[ti].value.data_mut()[idx] = base - eps;
                let down = loss_of(&m.compute_grads(&x, &y, &c), target);
                m.tensors()[ti].value.data_mut()[idx] = base;

                let numeric = (up - down) / (2.0 * eps);
                let got = analytic[ti].data()[idx];
                let denom = numeric.abs().max(got.abs()).max(1e-3);
                assert!(
                    ((numeric - got) / denom).abs() < 2e-3,
                    "tensor {ti} entry {idx}: analytic {got} vs numeric {numeric}"
                );
                checked += 1;
            }
        }
        assert!(checked >= 30, "checked only {checked} weights");
    }

    #[test]
    fn memory_accounting_matches_parameters() {
        let m = Dtm::new(DtmConfig::for_input(10));
        assert_eq!(m.memory_bytes(), m.parameter_count() * 24);
        // And stays constant regardless of how much data was seen: the
        // O(1)-memory property of Fig. 7.
        let mut m2 = Dtm::new(DtmConfig::for_input(10));
        let (x, y, c) = toy_batch(64, 10, 6);
        for _ in 0..10 {
            m2.train_batch(&x, &y, &c);
        }
        assert_eq!(m2.memory_bytes(), m.memory_bytes());
    }
}
