//! The Adam optimizer.
//!
//! Adam holds per-parameter state keyed by the *position* of each tensor in
//! the list passed to [`Adam::step`]; callers must therefore pass the tensors
//! of a given model in a stable order (which is what the DeepTune model
//! does).

use crate::layer::Tensor;
use crate::matrix::Matrix;

/// Adam optimizer (Kingma & Ba).
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Creates an Adam optimizer with the usual default betas.
    pub fn new(lr: f64) -> Self {
        Self::with_params(lr, 0.9, 0.999, 1e-8)
    }

    /// Creates an Adam optimizer with explicit hyperparameters.
    pub fn with_params(lr: f64, beta1: f64, beta2: f64, eps: f64) -> Self {
        Self {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Resets the moment estimates (used when a model is re-initialized).
    pub fn reset(&mut self) {
        self.t = 0;
        self.m.clear();
        self.v.clear();
    }

    /// Applies one update step to every tensor using its accumulated
    /// gradient, then leaves the gradients untouched (callers zero them
    /// before the next backward pass). Non-finite gradient entries are
    /// skipped.
    pub fn step(&mut self, tensors: &mut [&mut Tensor]) {
        if self.m.len() != tensors.len() {
            self.m = tensors
                .iter()
                .map(|t| Matrix::zeros(t.value.rows(), t.value.cols()))
                .collect();
            self.v = self.m.clone();
            self.t = 0;
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for ((t, m), v) in tensors
            .iter_mut()
            .zip(self.m.iter_mut())
            .zip(self.v.iter_mut())
        {
            for i in 0..t.value.len() {
                let g = t.grad.data()[i];
                if !g.is_finite() {
                    continue;
                }
                let mi = self.beta1 * m.data()[i] + (1.0 - self.beta1) * g;
                let vi = self.beta2 * v.data()[i] + (1.0 - self.beta2) * g * g;
                m.data_mut()[i] = mi;
                v.data_mut()[i] = vi;
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                t.value.data_mut()[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizing f(x) = (x - 3)^2 must converge to x = 3.
    fn optimize_quadratic(opt: &mut Adam, steps: usize) -> f64 {
        let mut t = Tensor::new(Matrix::from_vec(1, 1, vec![0.0]));
        for _ in 0..steps {
            let x = t.value.get(0, 0);
            t.grad.set(0, 0, 2.0 * (x - 3.0));
            opt.step(&mut [&mut t]);
        }
        t.value.get(0, 0)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let x = optimize_quadratic(&mut opt, 500);
        assert!((x - 3.0).abs() < 1e-3, "x = {x}");
    }

    #[test]
    fn adam_skips_non_finite_gradients() {
        let mut opt = Adam::new(0.1);
        let mut t = Tensor::new(Matrix::from_vec(1, 1, vec![1.0]));
        t.grad.set(0, 0, f64::NAN);
        opt.step(&mut [&mut t]);
        assert!((t.value.get(0, 0) - 1.0).abs() < 1e-12);
    }
}
