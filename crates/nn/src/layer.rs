//! Trainable layers: dense, ReLU, dropout, and Gaussian RBF.
//!
//! Layers cache whatever they need during a *training* `forward`
//! (`train == true`) and consume that cache in `backward`; calling
//! `backward` without a preceding training forward panics. Inference
//! forwards (`train == false`) allocate no caches at all — the DTM's
//! scoring path calls `predict` over large candidate pools every
//! iteration, and those forwards are pure. The RBF layer implements Eq. 1
//! of the Wayfinder paper: `phi(z) = exp(-||z - c||^2 / (2 gamma^2))`.

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

/// A differentiable layer.
pub trait Layer {
    /// Computes the layer output for a `batch x in_dim` input.
    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix;

    /// Backpropagates `grad` (gradient w.r.t. the forward output) and returns
    /// the gradient w.r.t. the forward input. Parameter gradients are
    /// *accumulated* into the layer's tensors.
    ///
    /// # Panics
    ///
    /// Panics if called before a [`Layer::forward`] with `train == true`
    /// (inference forwards skip the caches backward consumes).
    fn backward(&mut self, grad: &Matrix) -> Matrix;

    /// Mutable access to the layer's trainable tensors (empty by default).
    fn tensors(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    /// Zeroes the gradients of all trainable tensors.
    fn zero_grad(&mut self) {
        for t in self.tensors() {
            t.zero_grad();
        }
    }

    /// Human-readable layer name for diagnostics.
    fn name(&self) -> &'static str;
}

/// Fully connected layer: `y = x W + b`.
pub struct Dense {
    weight: Tensor,
    bias: Tensor,
    cached_input: Option<Matrix>,
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
            cached_input: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.value.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.value.cols()
    }

    /// Immutable access to the weight tensor.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Immutable access to the bias tensor.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Overwrites the parameters (used by transfer learning).
    pub fn load(&mut self, weight: Matrix, bias: Matrix) {
        assert_eq!(
            (weight.rows(), weight.cols()),
            (self.weight.value.rows(), self.weight.value.cols()),
            "weight shape mismatch"
        );
        assert_eq!(
            (bias.rows(), bias.cols()),
            (self.bias.value.rows(), self.bias.value.cols()),
            "bias shape mismatch"
        );
        self.weight.value = weight;
        self.bias.value = bias;
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        let mut out = x.matmul(&self.weight.value);
        out.add_row_broadcast(&self.bias.value);
        self.cached_input = train.then(|| x.clone());
        out
    }

    fn backward(&mut self, grad: &Matrix) -> Matrix {
        let x = self
            .cached_input
            .as_ref()
            .expect("Dense::backward called before forward");
        self.weight.grad.add_assign(&x.t_matmul(grad));
        self.bias.grad.add_assign(&grad.sum_rows());
        grad.matmul_t(&self.weight.value)
    }

    fn tensors(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &'static str {
        "Dense"
    }
}

/// Rectified linear unit.
#[derive(Default)]
pub struct Relu {
    mask: Option<Matrix>,
}

impl Relu {
    /// Creates a ReLU activation layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        if !train {
            // Inference: one allocation, no mask to keep.
            self.mask = None;
            return x.map(|v| v.max(0.0));
        }
        let mask = x.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
        let out = x.hadamard(&mask);
        self.mask = Some(mask);
        out
    }

    fn backward(&mut self, grad: &Matrix) -> Matrix {
        let mask = self
            .mask
            .as_ref()
            .expect("Relu::backward called before forward");
        grad.hadamard(mask)
    }

    fn name(&self) -> &'static str {
        "ReLU"
    }
}

/// Inverted dropout: active only when `train == true`.
pub struct Dropout {
    rate: f64,
    rng: StdRng,
    mask: Option<Matrix>,
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
            mask: None,
        }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        if !train || self.rate == 0.0 {
            self.mask = None;
            return x.clone();
        }
        let keep = 1.0 - self.rate;
        let mask = Matrix::from_fn(x.rows(), x.cols(), |_, _| {
            if self.rng.random::<f64>() < keep {
                1.0 / keep
            } else {
                0.0
            }
        });
        let out = x.hadamard(&mask);
        self.mask = Some(mask);
        out
    }

    fn backward(&mut self, grad: &Matrix) -> Matrix {
        match &self.mask {
            Some(mask) => grad.hadamard(mask),
            None => grad.clone(),
        }
    }

    fn name(&self) -> &'static str {
        "Dropout"
    }
}

/// Gaussian radial-basis-function layer (Eq. 1 of the paper).
///
/// Each of the `k` neurons holds a learned centroid `c_j`; the activation for
/// an input `z` is `exp(-||z - c_j||^2 / (2 gamma^2))`. Centroids are trained
/// both by gradients flowing from downstream layers and by the Chamfer
/// regularizer in [`crate::loss::chamfer`].
pub struct Rbf {
    centroids: Tensor,
    gamma: f64,
    cached_input: Option<Matrix>,
    cached_output: Option<Matrix>,
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
            cached_input: None,
            cached_output: None,
        }
    }

    /// The smoothing parameter `gamma`.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Immutable access to the centroid tensor.
    pub fn centroids(&self) -> &Tensor {
        &self.centroids
    }

    /// Mutable access to the centroid tensor (used by the Chamfer loss).
    pub fn centroids_mut(&mut self) -> &mut Tensor {
        &mut self.centroids
    }

    /// Overwrites the centroids (used by transfer learning).
    pub fn load(&mut self, centroids: Matrix) {
        assert_eq!(
            (centroids.rows(), centroids.cols()),
            (self.centroids.value.rows(), self.centroids.value.cols()),
            "centroid shape mismatch"
        );
        self.centroids.value = centroids;
    }
}

impl Layer for Rbf {
    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        let k = self.centroids.value.rows();
        let denom = 2.0 * self.gamma * self.gamma;
        let out = Matrix::from_fn(x.rows(), k, |r, j| {
            let d2 = x.row_sq_dist(r, &self.centroids.value, j);
            (-d2 / denom).exp()
        });
        if train {
            self.cached_input = Some(x.clone());
            self.cached_output = Some(out.clone());
        } else {
            self.cached_input = None;
            self.cached_output = None;
        }
        out
    }

    fn backward(&mut self, grad: &Matrix) -> Matrix {
        let x = self
            .cached_input
            .as_ref()
            .expect("Rbf::backward called before forward");
        let phi = self
            .cached_output
            .as_ref()
            .expect("Rbf::backward called before forward");
        let g2 = self.gamma * self.gamma;
        let mut grad_in = Matrix::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            for j in 0..self.centroids.value.rows() {
                // d phi / d z = phi * (c - z) / gamma^2
                // d phi / d c = phi * (z - c) / gamma^2
                let coeff = grad.get(r, j) * phi.get(r, j) / g2;
                if coeff == 0.0 {
                    continue;
                }
                for d in 0..x.cols() {
                    let diff = self.centroids.value.get(j, d) - x.get(r, d);
                    grad_in.set(r, d, grad_in.get(r, d) + coeff * diff);
                    self.centroids
                        .grad
                        .set(j, d, self.centroids.grad.get(j, d) - coeff * diff);
                }
            }
        }
        grad_in
    }

    fn tensors(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.centroids]
    }

    fn name(&self) -> &'static str {
        "RBF"
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
        d.load(Matrix::zeros(3, 2), Matrix::row_vector(&[1.0, -1.0]));
        let out = d.forward(&Matrix::zeros(4, 3), false);
        assert_eq!((out.rows(), out.cols()), (4, 2));
        assert_eq!(out.row(0), &[1.0, -1.0]);
    }

    #[test]
    fn relu_masks_negative_values() {
        let mut l = Relu::new();
        let out = l.forward(&Matrix::row_vector(&[-1.0, 0.0, 2.0]), true);
        assert_eq!(out.data(), &[0.0, 0.0, 2.0]);
        let g = l.backward(&Matrix::row_vector(&[1.0, 1.0, 1.0]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut l = Dropout::new(0.5, 1);
        let x = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        let out = l.forward(&x, false);
        assert_eq!(out.data(), x.data());
    }

    #[test]
    fn dropout_train_preserves_expectation() {
        let mut l = Dropout::new(0.5, 9);
        let x = Matrix::filled(1, 10_000, 1.0);
        let out = l.forward(&x, true);
        let mean = out.mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn rbf_activation_peaks_at_centroid() {
        let mut r = rng();
        let mut l = Rbf::new(2, 1, 0.5, &mut r);
        l.load(Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        let near = l.forward(&Matrix::row_vector(&[1.0, 1.0]), false);
        assert!((near.get(0, 0) - 1.0).abs() < 1e-12);
        let far = l.forward(&Matrix::row_vector(&[5.0, 5.0]), false);
        assert!(far.get(0, 0) < 1e-10);
    }

    /// Finite-difference gradient check for a layer's parameters and inputs.
    /// Backward-feeding forwards run with `train = true` (inference
    /// forwards no longer cache); the probe forwards stay inference-mode.
    fn grad_check(layer: &mut dyn Layer, x: &Matrix, eps: f64, tol: f64) {
        // Scalar loss = sum of outputs; then dL/dout = 1 everywhere.
        let out = layer.forward(x, true);
        let ones = Matrix::filled(out.rows(), out.cols(), 1.0);
        layer.zero_grad();
        let grad_in = layer.backward(&ones);

        // Check input gradients.
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp = layer.forward(&xp, false).sum();
            let fm = layer.forward(&xm, false).sum();
            let num = (fp - fm) / (2.0 * eps);
            let ana = grad_in.data()[i];
            assert!(
                (num - ana).abs() < tol,
                "input grad {i}: numeric {num} vs analytic {ana}"
            );
        }

        // Check parameter gradients: recompute analytic grads cleanly first.
        layer.forward(x, true);
        layer.zero_grad();
        layer.backward(&ones);
        let analytic: Vec<Vec<f64>> = layer
            .tensors()
            .iter()
            .map(|t| t.grad.data().to_vec())
            .collect();
        let n_tensors = analytic.len();
        // Index loops on purpose: each probe re-borrows `layer.tensors()`
        // mutably, so iterating `analytic` by reference would alias.
        #[allow(clippy::needless_range_loop)]
        for ti in 0..n_tensors {
            let n = analytic[ti].len();
            for i in 0..n {
                {
                    let mut ts = layer.tensors();
                    ts[ti].value.data_mut()[i] += eps;
                }
                let fp = layer.forward(x, false).sum();
                {
                    let mut ts = layer.tensors();
                    ts[ti].value.data_mut()[i] -= 2.0 * eps;
                }
                let fm = layer.forward(x, false).sum();
                {
                    let mut ts = layer.tensors();
                    ts[ti].value.data_mut()[i] += eps;
                }
                let num = (fp - fm) / (2.0 * eps);
                let ana = analytic[ti][i];
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
        grad_check(&mut l, &x, 1e-5, 1e-6);
    }

    #[test]
    fn rbf_gradients_match_finite_differences() {
        let mut r = rng();
        let mut l = Rbf::new(2, 3, 0.7, &mut r);
        let x = Matrix::from_vec(2, 2, vec![0.2, -0.4, 1.1, 0.9]);
        grad_check(&mut l, &x, 1e-5, 1e-6);
    }
}
