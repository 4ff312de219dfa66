//! `wf-nn`: a minimal, from-scratch neural-network library.
//!
//! This crate is the substrate for the DeepTune Model (DTM) of the Wayfinder
//! paper (§3.2). It provides exactly what the DTM needs and nothing more:
//!
//! * a dense row-major [`matrix::Matrix`] whose blocked `matmul` kernel
//!   (bit-identical to the naive triple loop it replaced) carries every
//!   `Dense` forward pass;
//! * [`layer`]s that hold only their parameters: fully connected
//!   ([`layer::Dense`]), ReLU, inverted dropout, and the Gaussian
//!   radial-basis-function layer of Eq. 1. Forwards are pure; backward is
//!   split into `accumulate_grads` (parameter gradients) and `input_grad`,
//!   and the caller's training pass owns every activation and mask they
//!   read;
//! * [`loss`]es: categorical cross-entropy (`L_CCE`), the Kendall-&-Gal
//!   heteroscedastic regression loss (`L_Reg`), and the Chamfer centroid
//!   regularizer (`L_Cham`), which reads the RBF layer's own distance
//!   matrix;
//! * the [`optim::Adam`] optimizer;
//! * [`norm`]: z-score feature/target normalization;
//! * [`rng`]: Box–Muller Gaussian sampling on top of `rand`.
//!
//! All backward passes are verified against finite differences in the unit
//! tests, which is what makes the hand-wired multi-branch DTM in
//! `wf-deeptune` trustworthy.

pub mod layer;
pub mod loss;
pub mod matrix;
pub mod norm;
pub mod optim;
pub mod rng;

pub use layer::{Dense, Dropout, Rbf, Tensor};
pub use matrix::Matrix;
pub use norm::{ScalarNorm, ZScore};
pub use optim::Adam;

/// Numerically stable sigmoid.
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Softplus `ln(1 + e^x)`, numerically stable for large |x|.
pub fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// Derivative of softplus, i.e. the sigmoid.
pub fn softplus_grad(x: f64) -> f64 {
    sigmoid(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(100.0) <= 1.0);
        assert!(sigmoid(-100.0) >= 0.0);
    }

    #[test]
    fn softplus_matches_definition_midrange() {
        for x in [-5.0, -1.0, 0.0, 1.0, 5.0] {
            let expected = (1.0_f64 + f64::exp(x)).ln();
            assert!((softplus(x) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn softplus_stable_at_extremes() {
        assert!(softplus(1000.0).is_finite());
        assert!(softplus(-1000.0) >= 0.0);
    }

    #[test]
    fn softplus_grad_is_sigmoid() {
        let eps = 1e-6;
        for x in [-2.0, 0.0, 2.0] {
            let num = (softplus(x + eps) - softplus(x - eps)) / (2.0 * eps);
            assert!((num - softplus_grad(x)).abs() < 1e-6);
        }
    }
}
