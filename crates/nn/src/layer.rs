//! Trainable layers: dense, ReLU, dropout, and Gaussian RBF.
//!
//! Layers hold only their parameters. A forward is a pure function of
//! the layer and its input; backward is split in two, so a caller
//! computes only what it uses: `accumulate_grads` adds the parameter
//! gradients given the forward's input (and, for [`Rbf`], its output),
//! and `input_grad` returns the gradient with respect to that input.
//! Whatever backward reads (inputs, activations, ReLU and dropout masks)
//! is owned by the caller's pass, so a first layer never copies its
//! input and an inference forward keeps nothing. The RBF layer
//! implements Eq. 1 of the Wayfinder paper:
//! `phi(z) = exp(-||z - c||^2 / (2 gamma^2))`.

use crate::matrix::Matrix;
use crate::rng::fill_normal;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// A trainable parameter: its value and the gradient accumulated by the most
/// recent backward pass.
#[derive(Clone, Debug)]
pub struct Tensor {
    /// Current parameter values.
    pub value: Matrix,
    /// Gradient of the loss with respect to [`Tensor::value`].
    pub grad: Matrix,
}

impl Tensor {
    /// Creates a tensor with the given values and a zeroed gradient.
    pub fn new(value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Self { value, grad }
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }
}

/// Fully connected layer: `y = x W + b`.
pub struct Dense {
    weight: Tensor,
    bias: Tensor,
}

impl Dense {
    /// Creates a dense layer with He-style initialization.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        let std = (2.0 / in_dim.max(1) as f64).sqrt();
        let mut w = Matrix::zeros(in_dim, out_dim);
        fill_normal(rng, w.data_mut(), std);
        Self {
            weight: Tensor::new(w),
            bias: Tensor::new(Matrix::zeros(1, out_dim)),
        }
    }

    /// The weight and bias tensors, in that order.
    pub fn tensors(&mut self) -> [&mut Tensor; 2] {
        [&mut self.weight, &mut self.bias]
    }

    /// The layer output for a `batch x in_dim` input.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut out = x.matmul(&self.weight.value);
        out.add_row_broadcast(&self.bias.value);
        out
    }

    /// Adds the parameter gradients for `grad` (the gradient w.r.t. the
    /// output of a forward over `x`) to the weight and bias tensors.
    pub fn accumulate_grads(&mut self, x: &Matrix, grad: &Matrix) {
        self.weight.grad.add_assign(&x.t_matmul(grad));
        self.bias.grad.add_assign(&grad.sum_rows());
    }

    /// The gradient w.r.t. the forward's input, given `grad` w.r.t. its
    /// output.
    pub fn input_grad(&self, grad: &Matrix) -> Matrix {
        grad.matmul_t(&self.weight.value)
    }
}

/// Rectified linear unit for training, in place: zeroes every entry of
/// `x` that is not positive and returns the 0/1 mask that backward
/// multiplies by (see [`apply_mask`]).
pub fn relu(x: &mut Matrix) -> Matrix {
    let mask = x.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
    apply_mask(x, &mask);
    mask
}

/// Rectified linear unit for inference, in place: no mask is kept.
pub fn relu_inference(x: &mut Matrix) {
    x.data_mut().iter_mut().for_each(|v| *v = v.max(0.0));
}

/// Multiplies `x` by `mask` element-wise, in place: a ReLU or dropout
/// forward, or its backward applied to a gradient.
pub fn apply_mask(x: &mut Matrix, mask: &Matrix) {
    assert_eq!((x.rows(), x.cols()), (mask.rows(), mask.cols()));
    for (v, m) in x.data_mut().iter_mut().zip(mask.data()) {
        *v *= m;
    }
}

/// Inverted dropout: a seeded stream of training masks. Inference applies
/// no dropout, so it never touches this layer.
pub struct Dropout {
    rate: f64,
    rng: StdRng,
}

impl Dropout {
    /// Creates a dropout layer dropping activations with probability `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1)`.
    pub fn new(rate: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0,1)");
        Self {
            rate,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws the next `rows x cols` training mask: each entry is `0` with
    /// probability `rate`, else `1 / (1 - rate)`. `None` at rate 0, where
    /// dropout is the identity and draws nothing.
    pub fn mask(&mut self, rows: usize, cols: usize) -> Option<Matrix> {
        if self.rate == 0.0 {
            return None;
        }
        let keep = 1.0 - self.rate;
        Some(Matrix::from_fn(rows, cols, |_, _| {
            if self.rng.random::<f64>() < keep {
                1.0 / keep
            } else {
                0.0
            }
        }))
    }
}

/// Gaussian radial-basis-function layer (Eq. 1 of the paper).
///
/// Each of the `k` neurons holds a learned centroid `c_j`; the activation for
/// an input `z` is `exp(-||z - c_j||^2 / (2 gamma^2))`. Centroids are trained
/// both by gradients flowing from downstream layers and by the Chamfer
/// regularizer in [`crate::loss::chamfer`], which reads the same
/// [`Rbf::sq_dists`] matrix the activations come from.
pub struct Rbf {
    centroids: Tensor,
    gamma: f64,
}

impl Rbf {
    /// Creates an RBF layer with `k` centroids over `in_dim`-dimensional
    /// inputs, initialized from `N(0, 1)` (inputs are expected z-scored).
    pub fn new(in_dim: usize, k: usize, gamma: f64, rng: &mut impl Rng) -> Self {
        assert!(gamma > 0.0, "gamma must be positive");
        let mut c = Matrix::zeros(k, in_dim);
        fill_normal(rng, c.data_mut(), 1.0);
        Self {
            centroids: Tensor::new(c),
            gamma,
        }
    }

    /// Immutable access to the centroid tensor.
    pub fn centroids(&self) -> &Tensor {
        &self.centroids
    }

    /// Mutable access to the centroid tensor (used by the Chamfer loss).
    pub fn centroids_mut(&mut self) -> &mut Tensor {
        &mut self.centroids
    }

    /// The `batch x k` squared distances from each input row to each
    /// centroid, each summed over the dimensions in ascending order.
    pub fn sq_dists(&self, x: &Matrix) -> Matrix {
        let c = &self.centroids.value;
        Matrix::from_fn(x.rows(), c.rows(), |r, j| x.row_sq_dist(r, c, j))
    }

    /// Turns [`Rbf::sq_dists`] into activations, in place.
    pub fn activate(&self, mut sq_dists: Matrix) -> Matrix {
        let denom = 2.0 * self.gamma * self.gamma;
        for v in sq_dists.data_mut() {
            *v = (-*v / denom).exp();
        }
        sq_dists
    }

    /// The `batch x k` activations for input `x`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        self.activate(self.sq_dists(x))
    }

    /// Adds the centroid gradients for `grad` (the gradient w.r.t. the
    /// activations `phi` of a forward over `x`):
    /// `d phi / d c = phi * (z - c) / gamma^2`.
    pub fn accumulate_grads(&mut self, x: &Matrix, phi: &Matrix, grad: &Matrix) {
        let g2 = self.gamma * self.gamma;
        let Tensor {
            value: c,
            grad: c_grad,
        } = &mut self.centroids;
        for r in 0..x.rows() {
            for j in 0..c.rows() {
                let coeff = grad.get(r, j) * phi.get(r, j) / g2;
                if coeff == 0.0 {
                    continue;
                }
                let diffs = c.row(j).iter().zip(x.row(r)).map(|(c, z)| c - z);
                for (g, diff) in c_grad.row_mut(j).iter_mut().zip(diffs) {
                    *g -= coeff * diff;
                }
            }
        }
    }

    /// The gradient w.r.t. the first `dims` columns of the forward's
    /// input `x` (all of it at `x.cols()`), given `grad` w.r.t. its
    /// activations `phi`: `d phi / d z = phi * (c - z) / gamma^2`.
    pub fn input_grad(&self, x: &Matrix, phi: &Matrix, grad: &Matrix, dims: usize) -> Matrix {
        assert!(dims <= x.cols(), "input_grad past the input width");
        let g2 = self.gamma * self.gamma;
        let c = &self.centroids.value;
        let mut grad_in = Matrix::zeros(x.rows(), dims);
        for r in 0..x.rows() {
            for j in 0..c.rows() {
                let coeff = grad.get(r, j) * phi.get(r, j) / g2;
                if coeff == 0.0 {
                    continue;
                }
                let diffs = c.row(j).iter().zip(x.row(r)).map(|(c, z)| c - z);
                for (g, diff) in grad_in.row_mut(r).iter_mut().zip(diffs) {
                    *g += coeff * diff;
                }
            }
        }
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn dense_forward_shape_and_bias() {
        let mut r = rng();
        let mut d = Dense::new(3, 2, &mut r);
        let [weight, bias] = d.tensors();
        weight.value = Matrix::zeros(3, 2);
        bias.value = Matrix::row_vector(&[1.0, -1.0]);
        let out = d.forward(&Matrix::zeros(4, 3));
        assert_eq!((out.rows(), out.cols()), (4, 2));
        assert_eq!(out.row(0), &[1.0, -1.0]);
    }

    #[test]
    fn relu_masks_negative_values() {
        let mut x = Matrix::row_vector(&[-1.0, 0.0, 2.0]);
        let mask = relu(&mut x);
        assert_eq!(x.data(), &[0.0, 0.0, 2.0]);
        let mut g = Matrix::row_vector(&[1.0, 1.0, 1.0]);
        apply_mask(&mut g, &mask);
        assert_eq!(g.data(), &[0.0, 0.0, 1.0]);
    }

    /// Inference never calls dropout, so the eval-mode identity is the
    /// model's (`Dtm::predict` applies no mask); the identity left here
    /// is rate 0, which draws no mask at all.
    #[test]
    fn dropout_eval_is_identity() {
        let mut l = Dropout::new(0.0, 1);
        assert!(l.mask(1, 3).is_none());
    }

    #[test]
    fn dropout_train_preserves_expectation() {
        let mut l = Dropout::new(0.5, 9);
        let mut out = Matrix::filled(1, 10_000, 1.0);
        apply_mask(&mut out, &l.mask(1, 10_000).expect("rate > 0"));
        let mean = out.mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn rbf_activation_peaks_at_centroid() {
        let mut r = rng();
        let mut l = Rbf::new(2, 1, 0.5, &mut r);
        l.centroids_mut().value = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let near = l.forward(&Matrix::row_vector(&[1.0, 1.0]));
        assert!((near.get(0, 0) - 1.0).abs() < 1e-12);
        let far = l.forward(&Matrix::row_vector(&[5.0, 5.0]));
        assert!(far.get(0, 0) < 1e-10);
    }

    /// The finite-difference checks below take the scalar loss to be the
    /// sum of a layer's outputs, so the gradient w.r.t. every output is 1.
    fn ones_like(m: &Matrix) -> Matrix {
        Matrix::filled(m.rows(), m.cols(), 1.0)
    }

    /// Checks `grad_in` (the analytic gradient of `sum(forward(x))` w.r.t.
    /// `x`) against central differences of `forward`.
    fn check_input_grad(
        forward: impl Fn(&Matrix) -> Matrix,
        x: &Matrix,
        grad_in: &Matrix,
        eps: f64,
        tol: f64,
    ) {
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (forward(&xp).sum() - forward(&xm).sum()) / (2.0 * eps);
            let ana = grad_in.data()[i];
            assert!(
                (num - ana).abs() < tol,
                "input grad {i}: numeric {num} vs analytic {ana}"
            );
        }
    }

    /// Checks the gradients accumulated into `tensors(layer)` against
    /// central differences of `sum(forward(layer))` over each parameter.
    fn check_param_grads<L>(
        layer: &mut L,
        tensors: impl Fn(&mut L) -> Vec<&mut Tensor>,
        forward: impl Fn(&L) -> Matrix,
        eps: f64,
        tol: f64,
    ) {
        let analytic: Vec<Vec<f64>> = tensors(layer)
            .iter()
            .map(|t| t.grad.data().to_vec())
            .collect();
        for (ti, grads) in analytic.iter().enumerate() {
            for (i, &ana) in grads.iter().enumerate() {
                tensors(layer)[ti].value.data_mut()[i] += eps;
                let fp = forward(layer).sum();
                tensors(layer)[ti].value.data_mut()[i] -= 2.0 * eps;
                let fm = forward(layer).sum();
                tensors(layer)[ti].value.data_mut()[i] += eps;
                let num = (fp - fm) / (2.0 * eps);
                assert!(
                    (num - ana).abs() < tol,
                    "tensor {ti} grad {i}: numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn dense_gradients_match_finite_differences() {
        let mut r = rng();
        let mut l = Dense::new(3, 2, &mut r);
        let x = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 1.5, 0.3, -0.7]);
        let (eps, tol) = (1e-5, 1e-6);
        let ones = ones_like(&l.forward(&x));
        let grad_in = l.input_grad(&ones);
        check_input_grad(|x| l.forward(x), &x, &grad_in, eps, tol);
        l.accumulate_grads(&x, &ones);
        check_param_grads(&mut l, |l| l.tensors().into(), |l| l.forward(&x), eps, tol);
    }

    #[test]
    fn rbf_gradients_match_finite_differences() {
        let mut r = rng();
        let mut l = Rbf::new(2, 3, 0.7, &mut r);
        let x = Matrix::from_vec(2, 2, vec![0.2, -0.4, 1.1, 0.9]);
        let (eps, tol) = (1e-5, 1e-6);
        let phi = l.forward(&x);
        let ones = ones_like(&phi);
        let grad_in = l.input_grad(&x, &phi, &ones, x.cols());
        check_input_grad(|x| l.forward(x), &x, &grad_in, eps, tol);
        l.accumulate_grads(&x, &phi, &ones);
        check_param_grads(
            &mut l,
            |l| vec![l.centroids_mut()],
            |l| l.forward(&x),
            eps,
            tol,
        );
    }
}
