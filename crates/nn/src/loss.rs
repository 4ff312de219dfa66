//! Loss functions used by the DeepTune Model.
//!
//! The paper trains the DTM end-to-end with `L = L_CCE + L_Reg + L_Cham`:
//! categorical cross-entropy for the crash head, the Kendall-&-Gal
//! heteroscedastic regression loss for the performance head coupled with the
//! uncertainty branch, and the Chamfer distance as a centroid regularizer for
//! the RBF layers. Each function returns the scalar loss together with the
//! gradients with respect to its inputs.

use crate::matrix::Matrix;

/// Numerically stable softmax of each row.
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(logits.rows(), logits.cols());
    for r in 0..logits.rows() {
        let row = logits.row(r);
        let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut denom = 0.0;
        for &v in row {
            denom += (v - max).exp();
        }
        for (c, &v) in row.iter().enumerate() {
            out.set(r, c, (v - max).exp() / denom);
        }
    }
    out
}

/// Categorical cross-entropy over row logits.
///
/// `targets[r]` is the class index for row `r`. Returns the mean loss and the
/// gradient with respect to the logits.
///
/// # Panics
///
/// Panics if `targets.len() != logits.rows()` or a target is out of range.
pub fn categorical_cross_entropy(logits: &Matrix, targets: &[usize]) -> (f64, Matrix) {
    let uniform = vec![1.0; logits.cols()];
    weighted_categorical_cross_entropy(logits, targets, &uniform)
}

/// Class-weighted categorical cross-entropy over row logits.
///
/// Like [`categorical_cross_entropy`], but each row's loss and gradient are
/// scaled by `class_weights[targets[r]]`. Used with inverse-frequency
/// weights to keep a minority class (crashing configurations are roughly a
/// third of observations) from being drowned out by the majority.
///
/// # Panics
///
/// Panics if `targets.len() != logits.rows()`, a target is out of range, or
/// `class_weights.len() != logits.cols()`.
pub fn weighted_categorical_cross_entropy(
    logits: &Matrix,
    targets: &[usize],
    class_weights: &[f64],
) -> (f64, Matrix) {
    assert_eq!(targets.len(), logits.rows(), "target/batch size mismatch");
    assert_eq!(
        class_weights.len(),
        logits.cols(),
        "one weight per class required"
    );
    let probs = softmax_rows(logits);
    let b = logits.rows() as f64;
    let mut loss = 0.0;
    let mut grad = probs.clone();
    for (r, &t) in targets.iter().enumerate() {
        assert!(t < logits.cols(), "target class {t} out of range");
        let w = class_weights[t];
        let p = probs.get(r, t).max(1e-12);
        loss -= w * p.ln();
        grad.set(r, t, grad.get(r, t) - 1.0);
        for c in 0..logits.cols() {
            grad.set(r, c, grad.get(r, c) * w);
        }
    }
    grad.scale(1.0 / b);
    (loss / b, grad)
}

/// Heteroscedastic regression loss (Kendall & Gal, NeurIPS'17).
///
/// `mu` is the predicted mean and `log_var` the predicted log-variance
/// (`s = log sigma^2`), both `batch x 1`; `targets` holds the true values.
/// The per-sample loss is `0.5 * exp(-s) * (y - mu)^2 + 0.5 * s`.
/// Returns `(mean loss, grad_mu, grad_log_var)`.
pub fn heteroscedastic_regression(
    mu: &Matrix,
    log_var: &Matrix,
    targets: &[f64],
) -> (f64, Matrix, Matrix) {
    assert_eq!(mu.cols(), 1);
    assert_eq!(log_var.cols(), 1);
    assert_eq!(mu.rows(), log_var.rows());
    assert_eq!(targets.len(), mu.rows());
    let b = mu.rows() as f64;
    let mut loss = 0.0;
    let mut grad_mu = Matrix::zeros(mu.rows(), 1);
    let mut grad_s = Matrix::zeros(mu.rows(), 1);
    for (r, &y) in targets.iter().enumerate() {
        // Clamp s so exp(-s) cannot explode early in training.
        let s = log_var.get(r, 0).clamp(-10.0, 10.0);
        let m = mu.get(r, 0);
        let inv_var = (-s).exp();
        let diff = m - y;
        loss += 0.5 * inv_var * diff * diff + 0.5 * s;
        grad_mu.set(r, 0, inv_var * diff / b);
        grad_s.set(r, 0, 0.5 * (1.0 - inv_var * diff * diff) / b);
    }
    (loss / b, grad_mu, grad_s)
}

/// Symmetric Chamfer distance between a centroid set and a batch of points.
///
/// `L = (1/k) sum_j min_i ||c_j - z_i||^2 + (1/b) sum_i min_j ||z_i - c_j||^2`.
/// `sq_dists` holds `||z_i - c_j||^2` at row `i`, column `j` (the
/// [`crate::Rbf::sq_dists`] matrix of the layer whose centroids these
/// are), so both directions read the distances the layer's forward
/// computed instead of computing them again.
/// Returns the loss and the gradient with respect to the centroids. Gradients
/// with respect to the batch points are intentionally not propagated: the
/// Chamfer term is a *centroid* regularizer (it pulls prototypes onto the
/// latent distribution, cf. §3.2), and letting it also reshape the latents
/// would fight the prediction losses.
pub fn chamfer(centroids: &Matrix, batch: &Matrix, sq_dists: &Matrix) -> (f64, Matrix) {
    assert_eq!(centroids.cols(), batch.cols(), "dimension mismatch");
    let k = centroids.rows();
    let b = batch.rows();
    assert_eq!((sq_dists.rows(), sq_dists.cols()), (b, k), "distance shape");
    let mut grad_c = Matrix::zeros(k, centroids.cols());
    if k == 0 || b == 0 {
        return (0.0, grad_c);
    }
    let mut loss = 0.0;

    // Centroid -> nearest point.
    for j in 0..k {
        let mut best = f64::INFINITY;
        let mut best_i = 0;
        for i in 0..b {
            let d2 = sq_dists.get(i, j);
            if d2 < best {
                best = d2;
                best_i = i;
            }
        }
        loss += best / k as f64;
        for d in 0..centroids.cols() {
            let g = 2.0 * (centroids.get(j, d) - batch.get(best_i, d)) / k as f64;
            grad_c.set(j, d, grad_c.get(j, d) + g);
        }
    }

    // Point -> nearest centroid.
    for i in 0..b {
        let mut best = f64::INFINITY;
        let mut best_j = 0;
        for (j, &d2) in sq_dists.row(i).iter().enumerate() {
            if d2 < best {
                best = d2;
                best_j = j;
            }
        }
        loss += best / b as f64;
        for d in 0..centroids.cols() {
            let g = 2.0 * (centroids.get(best_j, d) - batch.get(i, d)) / b as f64;
            grad_c.set(best_j, d, grad_c.get(best_j, d) + g);
        }
    }

    (loss, grad_c)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `chamfer`'s distance argument for centroids `c` and points `z`.
    fn dists(c: &Matrix, z: &Matrix) -> Matrix {
        Matrix::from_fn(z.rows(), c.rows(), |i, j| z.row_sq_dist(i, c, j))
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let p = softmax_rows(&logits);
        for r in 0..2 {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
        assert!(p.get(0, 2) > p.get(0, 1));
    }

    #[test]
    fn cce_perfect_prediction_is_near_zero() {
        let logits = Matrix::from_vec(1, 2, vec![100.0, -100.0]);
        let (loss, _) = categorical_cross_entropy(&logits, &[0]);
        assert!(loss < 1e-6);
    }

    #[test]
    fn cce_gradient_matches_finite_difference() {
        let logits = Matrix::from_vec(2, 2, vec![0.3, -0.2, 1.0, 0.5]);
        let targets = [1usize, 0usize];
        let (_, grad) = categorical_cross_entropy(&logits, &targets);
        let eps = 1e-6;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let (fp, _) = categorical_cross_entropy(&lp, &targets);
            let (fm, _) = categorical_cross_entropy(&lm, &targets);
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - grad.data()[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn heteroscedastic_gradients_match_finite_difference() {
        let mu = Matrix::col_vector(&[0.5, -0.3]);
        let s = Matrix::col_vector(&[0.1, -0.4]);
        let y = [1.0, 0.0];
        let (_, gmu, gs) = heteroscedastic_regression(&mu, &s, &y);
        let eps = 1e-6;
        for r in 0..2 {
            let mut mp = mu.clone();
            mp.set(r, 0, mp.get(r, 0) + eps);
            let mut mm = mu.clone();
            mm.set(r, 0, mm.get(r, 0) - eps);
            let (fp, _, _) = heteroscedastic_regression(&mp, &s, &y);
            let (fm, _, _) = heteroscedastic_regression(&mm, &s, &y);
            assert!(((fp - fm) / (2.0 * eps) - gmu.get(r, 0)).abs() < 1e-6);

            let mut sp = s.clone();
            sp.set(r, 0, sp.get(r, 0) + eps);
            let mut sm = s.clone();
            sm.set(r, 0, sm.get(r, 0) - eps);
            let (fp, _, _) = heteroscedastic_regression(&mu, &sp, &y);
            let (fm, _, _) = heteroscedastic_regression(&mu, &sm, &y);
            assert!(((fp - fm) / (2.0 * eps) - gs.get(r, 0)).abs() < 1e-6);
        }
    }

    #[test]
    fn heteroscedastic_penalizes_overconfidence() {
        let mu = Matrix::col_vector(&[0.0]);
        let confident = Matrix::col_vector(&[-5.0]);
        let humble = Matrix::col_vector(&[0.0]);
        let y = [3.0];
        let (l_conf, _, _) = heteroscedastic_regression(&mu, &confident, &y);
        let (l_humble, _, _) = heteroscedastic_regression(&mu, &humble, &y);
        assert!(
            l_conf > l_humble,
            "being wrong and confident must cost more"
        );
    }

    #[test]
    fn chamfer_zero_when_centroids_cover_points() {
        let pts = Matrix::from_vec(2, 2, vec![0.0, 0.0, 1.0, 1.0]);
        let (loss, grad) = chamfer(&pts, &pts, &dists(&pts, &pts));
        assert!(loss.abs() < 1e-12);
        assert!(grad.max_abs() < 1e-12);
    }

    #[test]
    fn chamfer_gradient_matches_finite_difference() {
        let c = Matrix::from_vec(2, 2, vec![0.1, 0.2, 0.9, 1.1]);
        let z = Matrix::from_vec(3, 2, vec![0.0, 0.0, 1.0, 1.0, 0.5, 0.4]);
        let (_, grad) = chamfer(&c, &z, &dists(&c, &z));
        let eps = 1e-6;
        for i in 0..c.len() {
            let mut cp = c.clone();
            cp.data_mut()[i] += eps;
            let mut cm = c.clone();
            cm.data_mut()[i] -= eps;
            let (fp, _) = chamfer(&cp, &z, &dists(&cp, &z));
            let (fm, _) = chamfer(&cm, &z, &dists(&cm, &z));
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - grad.data()[i]).abs() < 1e-5,
                "i={i} num={num} ana={}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn chamfer_pulls_lone_centroid_toward_points() {
        let c = Matrix::from_vec(1, 1, vec![10.0]);
        let z = Matrix::from_vec(2, 1, vec![0.0, 1.0]);
        let (_, grad) = chamfer(&c, &z, &dists(&c, &z));
        // Gradient must be positive: moving the centroid down (toward the
        // points) reduces the loss.
        assert!(grad.get(0, 0) > 0.0);
    }
}
