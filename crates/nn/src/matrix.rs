//! Dense row-major matrix used throughout the neural-network substrate.
//!
//! The matrix sizes involved in DeepTune are modest (hundreds of rows and
//! columns), so a `Vec<f64>`-backed implementation with cache-friendly
//! row-major loops is sufficient; no BLAS is required. The one kernel hot
//! enough to matter is [`Matrix::matmul`] — it sits under every
//! `Dense::forward`, so the `deeptune/forward_batch` scoring path runs it
//! once per layer per wave — and it uses a blocked loop: small output
//! tiles stay cache-resident while each row of the right-hand
//! matrix is streamed once per row-block instead of once per output row.
//! Per output element the accumulation still walks `k` in ascending order
//! and keeps the zero-skip, so the result is **bit-for-bit identical** to
//! the straightforward triple loop, which the unit tests keep as the
//! exactness oracle.
//!
//! ```
//! use wf_nn::Matrix;
//! // Mixed signs and exact zeros (ReLU-style sparsity), with dimensions
//! // that exercise the blocked kernel's remainder edges.
//! let a = Matrix::from_fn(13, 9, |r, c| (((r * 9 + c) % 5) as f64 - 2.0).max(0.0));
//! let b = Matrix::from_fn(9, 70, |r, c| ((r * 70 + c) % 11) as f64 / 3.0 - 1.5);
//! let product = a.matmul(&b);
//! for i in 0..13 {
//!     for j in 0..70 {
//!         // Each element is the dot product summed in ascending k.
//!         let dot = (0..9).fold(0.0, |acc, k| acc + a.get(i, k) * b.get(k, j));
//!         assert_eq!(product.get(i, j).to_bits(), dot.to_bits());
//!     }
//! }
//! ```

use std::fmt;

/// Row-block size of the blocked [`Matrix::matmul`]: each right-hand row
/// slice is reused across this many left-hand rows while it is hot.
const MC: usize = 8;
/// Column-block size of the blocked [`Matrix::matmul`]: the `MC`×`NC`
/// output tile (4 KiB) and the `NC`-wide row slice stay L1-resident.
const NC: usize = 64;

/// A dense, row-major `rows x cols` matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a single-row matrix from a slice.
    pub fn row_vector(values: &[f64]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Creates a single-column matrix from a slice.
    pub fn col_vector(values: &[f64]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the raw row-major data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns element `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)` to `v`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Returns row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Fills every element with `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.iter_mut().for_each(|v| *v = value);
    }

    /// Matrix product `self * other` — the blocked kernel (see the module
    /// docs).
    ///
    /// Output tiles of `MC`×`NC` elements are filled one `k` step at a
    /// time, so the tile and the active slice of `other`'s row stay in
    /// cache: each row of `other` is streamed once per `MC`-row block of
    /// `self` instead of once per output row, which is where the naive
    /// row-major loop spends its memory bandwidth. The per-element
    /// accumulation order (ascending `k`) and the `a == 0.0` skip (ReLU
    /// activations make whole columns vanish) are exactly the triple
    /// loop's, so the product is bit-for-bit identical to it.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let n = other.cols;
        let mut out = Matrix::zeros(self.rows, n);
        for i0 in (0..self.rows).step_by(MC) {
            let i1 = (i0 + MC).min(self.rows);
            for j0 in (0..n).step_by(NC) {
                let j1 = (j0 + NC).min(n);
                for k in 0..self.cols {
                    let b_row = &other.data[k * n + j0..k * n + j1];
                    for i in i0..i1 {
                        let a = self.data[i * self.cols + k];
                        if a == 0.0 {
                            continue;
                        }
                        let out_row = &mut out.data[i * n + j0..i * n + j1];
                        for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                            *o += a * b;
                        }
                    }
                }
            }
        }
        out
    }

    /// Product `self^T * other`, computed without materializing the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "t_matmul dimension mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = other.row(k);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (j, &b) in b_row.iter().enumerate() {
                    out_row[j] += a * b;
                }
            }
        }
        out
    }

    /// Product `self * other^T`, computed without materializing the transpose.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_t dimension mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..other.rows {
                let b_row = other.row(j);
                let mut acc = 0.0;
                for (a, b) in a_row.iter().zip(b_row.iter()) {
                    acc += a * b;
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Element-wise addition into `self`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&mut self, s: f64) {
        self.data.iter_mut().for_each(|v| *v *= s);
    }

    /// Returns `self + other` as a new matrix.
    pub fn add(&self, other: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Matrix {
        let data = self.data.iter().map(|v| f(*v)).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Adds a `1 x cols` row vector to every row (broadcast).
    pub fn add_row_broadcast(&mut self, row: &Matrix) {
        assert_eq!(row.rows, 1);
        assert_eq!(row.cols, self.cols);
        for r in 0..self.rows {
            let dst = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (d, s) in dst.iter_mut().zip(row.data.iter()) {
                *d += s;
            }
        }
    }

    /// Sums the rows, producing a `1 x cols` matrix.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, v) in out.data.iter_mut().zip(self.row(r).iter()) {
                *o += v;
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Maximum absolute element (0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Squared Euclidean distance between row `r` of `self` and row `s` of `other`.
    pub fn row_sq_dist(&self, r: usize, other: &Matrix, s: usize) -> f64 {
        assert_eq!(self.cols, other.cols);
        self.row(r)
            .iter()
            .zip(other.row(s).iter())
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }

    /// Horizontally concatenates `self` and `other` (same number of rows).
    pub fn concat_cols(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows);
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Extracts the rows with the given indices into a new matrix.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
        out
    }

    /// Returns `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4} ", self.get(r, c))?;
            }
            writeln!(f, "{}]", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_get_set() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(1, 2), 0.0);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i).data(), a.data());
        assert_eq!(i.matmul(&a).data(), a.data());
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    /// The straightforward row-major triple loop: the oracle the blocked
    /// [`Matrix::matmul`] must match bit for bit.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for (k, &x) in a.row(i).iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                for (o, &y) in out.row_mut(i).iter_mut().zip(b.row(k)) {
                    *o += x * y;
                }
            }
        }
        out
    }

    /// The transpose, built element by element.
    fn transpose(m: &Matrix) -> Matrix {
        Matrix::from_fn(m.cols(), m.rows(), |r, c| m.get(c, r))
    }

    /// Deterministic pseudo-random fill with mixed signs, magnitudes, and
    /// exact zeros (the ReLU-sparsity case the kernels special-case).
    fn fill(rows: usize, cols: usize, salt: u64) -> Matrix {
        let mut s = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            match s % 7 {
                0 => 0.0,
                1 => -0.0,
                r => (s % 1000) as f64 / 999.0 - 0.5 + r as f64,
            }
        })
    }

    #[test]
    fn blocked_matmul_matches_naive_bit_for_bit() {
        // Shapes around the MC/NC block edges, degenerate strips, and the
        // forward_batch-like shape (wave × features times features ×
        // hidden).
        let shapes = [
            (1, 1, 1),
            (MC, 3, NC),
            (MC + 1, 5, NC + 1),
            (MC - 1, 4, NC - 1),
            (2 * MC + 3, 17, 2 * NC + 5),
            (1, 9, 2 * NC),
            (3 * MC, 1, 7),
            (64, 56, 48),
        ];
        for (si, &(m, k, n)) in shapes.iter().enumerate() {
            let a = fill(m, k, si as u64 * 2 + 1);
            let b = fill(k, n, si as u64 * 2 + 2);
            let blocked = a.matmul(&b);
            let naive = naive_matmul(&a, &b);
            assert_eq!(blocked.rows(), naive.rows());
            assert_eq!(blocked.cols(), naive.cols());
            let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&blocked), bits(&naive), "shape {m}x{k}*{k}x{n}");
        }
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 4, (0..12).map(|v| v as f64).collect());
        let fast = a.t_matmul(&b);
        let slow = transpose(&a).matmul(&b);
        assert_eq!(fast.data(), slow.data());
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(4, 3, (0..12).map(|v| v as f64).collect());
        let fast = a.matmul_t(&b);
        let slow = a.matmul(&transpose(&b));
        assert_eq!(fast.data(), slow.data());
    }

    #[test]
    fn broadcast_and_sum_rows() {
        let mut m = Matrix::zeros(2, 2);
        m.add_row_broadcast(&Matrix::row_vector(&[1.0, 2.0]));
        assert_eq!(m.data(), &[1.0, 2.0, 1.0, 2.0]);
        let s = m.sum_rows();
        assert_eq!(s.data(), &[2.0, 4.0]);
    }

    #[test]
    fn concat_cols_keeps_both_blocks() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 1, vec![5.0, 6.0]);
        let c = a.concat_cols(&b);
        assert_eq!(c.cols(), 3);
        assert_eq!(c.row(0), &[1.0, 2.0, 5.0]);
        for r in 0..2 {
            assert_eq!(&c.row(r)[..2], a.row(r));
            assert_eq!(&c.row(r)[2..], b.row(r));
        }
    }

    #[test]
    fn row_sq_dist_known() {
        let a = Matrix::from_vec(1, 2, vec![0.0, 0.0]);
        let b = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert_eq!(a.row_sq_dist(0, &b, 0), 25.0);
    }

    #[test]
    fn select_rows_picks_expected() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = a.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[5.0, 6.0]);
        assert_eq!(s.row(1), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn map_applies_to_every_element() {
        let a = Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]);
        let b = a.map(f64::abs);
        assert_eq!(b.data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Matrix::zeros(1, 2);
        assert!(!a.has_non_finite());
        a.set(0, 1, f64::NAN);
        assert!(a.has_non_finite());
    }
}
