//! Pins the DeepTune Model's training arithmetic bit for bit.
//!
//! A `Dtm` at the `linux-riscv` encoding width (891 features) with the
//! default dropout trains on a seeded stream of mini-batches, and one
//! FNV-1a hash covers the bits of every loss term of every step, every
//! exported weight afterwards, and every prediction on a held-out batch.
//! A change to the order of any floating-point operation that feeds a
//! weight (a distance summed in another order, a dropout or ReLU mask
//! left out of backward, a gradient accumulated in another sequence)
//! moves the hash, so a rewrite of the layers or of the training pass
//! must keep it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wf_deeptune::{Dtm, DtmConfig, LossBreakdown};
use wf_nn::Matrix;

const WIDTH: usize = 891;
const BATCH: usize = 32;

/// FNV-1a over the little-endian bytes of each value's bits.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn f64(&mut self, v: f64) {
        for byte in v.to_bits().to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A z-scored-looking feature batch: a third of the entries exactly zero
/// (one-hot columns after scaling), the rest spread over [-2, 2].
fn features(rng: &mut StdRng, rows: usize) -> Matrix {
    Matrix::from_fn(rows, WIDTH, |_, _| {
        if rng.random::<f64>() < 0.3 {
            0.0
        } else {
            rng.random::<f64>() * 4.0 - 2.0
        }
    })
}

/// Targets and crash flags: `crash_share` of the rows crash (target 0),
/// the others measure a noisy linear function of the first features.
fn labels(rng: &mut StdRng, x: &Matrix, crash_share: f64) -> (Vec<f64>, Vec<bool>) {
    (0..x.rows())
        .map(|r| {
            let crashed = rng.random::<f64>() < crash_share;
            let y = if crashed {
                0.0
            } else {
                0.8 * x.get(r, 0) - 0.5 * x.get(r, 1)
                    + 0.3 * x.get(r, 7)
                    + 0.1 * (rng.random::<f64>() - 0.5)
            };
            (y, crashed)
        })
        .unzip()
}

#[test]
fn training_on_a_seeded_stream_is_pinned_bit_for_bit() {
    let mut model = Dtm::new(DtmConfig::for_input(WIDTH));
    let mut rng = StdRng::seed_from_u64(0x5eed_0891);
    let mut hash = Fnv::new();

    // Mixed batches, then one where every row crashes (no regression
    // rows) and one where none does (unweighted cross-entropy).
    let shares = [0.3, 0.3, 0.5, 0.2, 0.3, 1.0, 0.0, 0.3];
    let mut crashed_rows = 0;
    let mut measured_rows = 0;
    for share in shares {
        let x = features(&mut rng, BATCH);
        let (y, crashed) = labels(&mut rng, &x, share);
        crashed_rows += crashed.iter().filter(|&&c| c).count();
        measured_rows += crashed.iter().filter(|&&c| !c).count();
        let LossBreakdown {
            cce,
            reg,
            cham,
            sigma,
        } = model.train_batch(&x, &y, &crashed);
        for term in [cce, reg, cham, sigma] {
            assert!(term.is_finite(), "loss term {term}");
            hash.f64(term);
        }
    }
    assert!(crashed_rows > 0 && measured_rows > 0);

    let weights = model.export_weights();
    assert_eq!(weights.len(), 14);
    for w in &weights {
        for &v in w.data() {
            hash.f64(v);
        }
    }

    let held_out = features(&mut rng, 17);
    for p in model.predict(&held_out) {
        hash.f64(p.crash_prob);
        hash.f64(p.mu);
        hash.f64(p.sigma);
    }

    assert_eq!(
        hash.0, 0x32cb_160e_a88e_452d,
        "training hash moved: {:#018x}",
        hash.0
    );
}
