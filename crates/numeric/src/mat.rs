//! Dense complex matrices and vectors.
//!
//! [`CMat`] is a row-major dense matrix of [`Cx`]; [`CVec`] is a plain
//! `Vec<Cx>` alias with free-function helpers. The matrix–vector products
//! on the detection hot path (`mul_vec_into`, `mul_vec_hermitian_into`)
//! are four-wide [`CxLane`] kernels that compute four output entries per
//! iteration — bit-identical to their `_scalar` twins because each lane
//! replays the scalar accumulation chain — while everything off the hot
//! path keeps the clear row-major scalar form.

use crate::cx::Cx;
use crate::lanes::{CxLane, LANES};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A complex column vector, stored as a flat `Vec`.
pub type CVec = Vec<Cx>;

/// Dense row-major complex matrix.
///
/// Indexing is `(row, col)`:
///
/// ```
/// use flexcore_numeric::{CMat, Cx};
/// let mut m = CMat::from_fn(2, 3, |_, _| Cx::ZERO);
/// m[(0, 2)] = Cx::new(1.0, -1.0);
/// assert_eq!(m[(0, 2)].im, -1.0);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// ```
#[derive(PartialEq, Default)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<Cx>,
}

impl Clone for CMat {
    fn clone(&self) -> Self {
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Capacity-reusing overwrite: a destination that has already held a
    /// matrix of this size keeps its storage (an in-place re-factorisation
    /// copies the new channel over the old `Q` without touching the heap).
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl CMat {
    /// Creates an all-zero `rows × cols` matrix.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        CMat {
            rows,
            cols,
            data: vec![Cx::ZERO; rows * cols],
        }
    }

    /// Reshapes to an all-zero `rows × cols` matrix, keeping the storage
    /// (no allocation once it has held `rows * cols` entries).
    pub(crate) fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, Cx::ZERO);
    }

    /// Creates the `n × n` identity matrix.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = CMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Cx::ONE;
        }
        m
    }

    /// Builds a matrix from a row-major slice of entries.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    #[cfg(test)]
    pub(crate) fn from_rows(rows: usize, cols: usize, data: &[Cx]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "CMat::from_rows: need {} entries, got {}",
            rows * cols,
            data.len()
        );
        CMat {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Builds a matrix by evaluating `f(row, col)` for each entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Cx) -> Self {
        let mut m = CMat::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the underlying row-major storage.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[Cx] {
        &self.data
    }

    /// Borrows row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[Cx] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [Cx] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub(crate) fn col(&self, c: usize) -> CVec {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Overwrites column `c` with `v`.
    ///
    /// # Panics
    /// Panics if `v.len() != self.rows()`.
    pub(crate) fn set_col(&mut self, c: usize, v: &[Cx]) {
        assert_eq!(v.len(), self.rows, "set_col: length mismatch");
        for (r, &x) in v.iter().enumerate() {
            self[(r, c)] = x;
        }
    }

    /// Conjugate (Hermitian) transpose `A*`.
    pub(crate) fn hermitian(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |r, c| self[(c, r)].conj())
    }

    /// Matrix–matrix product `A·B`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub(crate) fn mul_mat(&self, other: &CMat) -> CMat {
        assert_eq!(
            self.cols, other.rows,
            "mul_mat: {}×{} · {}×{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = CMat::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == Cx::ZERO {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(r);
                for c in 0..other.cols {
                    orow[c] += a * brow[c];
                }
            }
        }
        out
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[Cx]) -> CVec {
        let mut out = vec![Cx::ZERO; self.rows];
        self.mul_vec_into(x, &mut out);
        out
    }

    /// Matrix–vector product written into a caller-owned buffer — the
    /// allocation-free kernel behind [`CMat::mul_vec`]. Lanes are four
    /// consecutive *output rows*, the per-column accumulation runs in the
    /// scalar order within each lane (no reassociation), and rows past the
    /// last full lane (all of them below four rows) take the scalar tail.
    /// Bit-identical to [`CMat::mul_vec_into_scalar`].
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn mul_vec_into(&self, x: &[Cx], out: &mut [Cx]) {
        assert_eq!(x.len(), self.cols, "mul_vec: dimension mismatch");
        assert_eq!(out.len(), self.rows, "mul_vec_into: output length");
        let full = self.rows / LANES * LANES;
        let mut r = 0;
        while r < full {
            let mut acc = CxLane::zero();
            for (c, &b) in x.iter().enumerate() {
                // A[r..r+4, c] is column-strided in row-major storage.
                let a = CxLane::from_fn(|l| self.data[(r + l) * self.cols + c]);
                acc.add_mul(a, CxLane::splat(b));
            }
            acc.store(&mut out[r..r + LANES]);
            r += LANES;
        }
        for (slot, row) in out[full..].iter_mut().zip(full..self.rows) {
            *slot = self.row_dot(row, x);
        }
    }

    /// Scalar twin of [`CMat::mul_vec_into`]: one accumulation chain per
    /// output row, kept public so identity tests can pin the lane kernel
    /// against it.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn mul_vec_into_scalar(&self, x: &[Cx], out: &mut [Cx]) {
        assert_eq!(x.len(), self.cols, "mul_vec: dimension mismatch");
        assert_eq!(out.len(), self.rows, "mul_vec_into: output length");
        for (r, slot) in out.iter_mut().enumerate() {
            *slot = self.row_dot(r, x);
        }
    }

    /// `Σ_c A[r, c]·x[c]` in ascending `c`: one entry of `A·x`.
    #[inline]
    fn row_dot(&self, r: usize, x: &[Cx]) -> Cx {
        self.row(r)
            .iter()
            .zip(x)
            .fold(Cx::ZERO, |acc, (&a, &b)| acc + a * b)
    }

    /// Hermitian-transposed matrix–vector product `A*·x`, written into a
    /// caller-owned buffer, without materialising `A*`.
    ///
    /// Entry `r` accumulates `Σ_c conj(A[c,r])·x[c]` in ascending `c` —
    /// exactly the term values and order `self.hermitian().mul_vec(x)`
    /// produces, so results are bit-identical while skipping the `A*`
    /// matrix allocation (the old per-vector cost of the QR rotate).
    ///
    /// Lanes are four consecutive *output entries* `r..r+4`, so the load
    /// `A[c, r..r+4]` is contiguous in row-major storage; the per-`c`
    /// accumulation keeps the scalar order within each lane, and entries
    /// past the last full lane (all of them below four columns) take the
    /// scalar tail. Bit-identical to
    /// [`CMat::mul_vec_hermitian_into_scalar`] (the conjugated product is
    /// expanded in place — exact in IEEE, a sign flip of one multiplicand
    /// negates the product with no rounding).
    ///
    /// # Panics
    /// Panics if `x.len() != self.rows()` or `out.len() != self.cols()`.
    pub(crate) fn mul_vec_hermitian_into(&self, x: &[Cx], out: &mut [Cx]) {
        assert_eq!(x.len(), self.rows, "mul_vec_hermitian: dimension mismatch");
        assert_eq!(
            out.len(),
            self.cols,
            "mul_vec_hermitian_into: output length"
        );
        let full = self.cols / LANES * LANES;
        let mut r = 0;
        while r < full {
            let mut acc = CxLane::zero();
            for (c, &b) in x.iter().enumerate() {
                let a = CxLane::load(&self.row(c)[r..r + LANES]);
                acc.add_conj_mul(a, CxLane::splat(b));
            }
            acc.store(&mut out[r..r + LANES]);
            r += LANES;
        }
        for (slot, col) in out[full..].iter_mut().zip(full..self.cols) {
            *slot = self.col_conj_dot(col, x);
        }
    }

    /// Scalar twin of `CMat::mul_vec_hermitian_into`: one accumulation
    /// chain per output entry, public so identity tests can pin the lane
    /// kernel against it.
    ///
    /// # Panics
    /// Panics if `x.len() != self.rows()` or `out.len() != self.cols()`.
    pub fn mul_vec_hermitian_into_scalar(&self, x: &[Cx], out: &mut [Cx]) {
        assert_eq!(x.len(), self.rows, "mul_vec_hermitian: dimension mismatch");
        assert_eq!(
            out.len(),
            self.cols,
            "mul_vec_hermitian_into: output length"
        );
        for (col, slot) in out.iter_mut().enumerate() {
            *slot = self.col_conj_dot(col, x);
        }
    }

    /// `Σ_c conj(A[c, col])·x[c]` in ascending `c`: one entry of `A*·x`.
    #[inline]
    fn col_conj_dot(&self, col: usize, x: &[Cx]) -> Cx {
        let mut acc = Cx::ZERO;
        for (c, &b) in x.iter().enumerate() {
            acc += self[(c, col)].conj() * b;
        }
        acc
    }

    /// Entry-wise sum `A + B`.
    pub(crate) fn add_mat(&self, other: &CMat) -> CMat {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let mut out = self.clone();
        for (a, &b) in out.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        out
    }

    /// Scales every entry by a real factor.
    pub(crate) fn scale(&self, k: f64) -> CMat {
        let mut out = self.clone();
        for a in &mut out.data {
            *a = a.scale(k);
        }
        out
    }

    /// Gram matrix `A*·A` (Hermitian, positive semi-definite).
    pub(crate) fn gram(&self) -> CMat {
        self.hermitian().mul_mat(self)
    }

    /// Frobenius norm `‖A‖_F`.
    #[cfg(test)]
    pub(crate) fn fro_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry difference to `other`: the "matrices are
    /// equal up to tolerance" metric of this crate's tests.
    #[cfg(test)]
    pub(crate) fn max_abs_diff(&self, other: &CMat) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Returns a copy with the columns permuted: column `j` of the result is
    /// column `perm[j]` of `self`.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..cols`.
    pub fn permute_cols(&self, perm: &[usize]) -> CMat {
        assert_eq!(perm.len(), self.cols, "permute_cols: length mismatch");
        let mut seen = vec![false; self.cols];
        for &p in perm {
            assert!(p < self.cols && !seen[p], "permute_cols: not a permutation");
            seen[p] = true;
        }
        CMat::from_fn(self.rows, self.cols, |r, c| self[(r, perm[c])])
    }
}

impl Index<(usize, usize)> for CMat {
    type Output = Cx;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Cx {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Cx {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for CMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMat {}×{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:?} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

/// Inner product `⟨a, b⟩ = Σ a_i · b_i*` (conjugate-linear in `b`).
pub(crate) fn dot(a: &[Cx], b: &[Cx]) -> Cx {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter()
        .zip(b)
        .fold(Cx::ZERO, |acc, (&x, &y)| acc + x.mul_conj(y))
}

/// Squared Euclidean norm `‖v‖²`.
pub(crate) fn norm_sqr(v: &[Cx]) -> f64 {
    v.iter().map(|z| z.norm_sqr()).sum()
}

/// Squared Euclidean distance `‖a − b‖²`.
pub fn dist_sqr(a: &[Cx], b: &[Cx]) -> f64 {
    assert_eq!(a.len(), b.len(), "dist_sqr: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| (x - y).norm_sqr()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::CxRng;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn m22(a: f64, b: f64, c: f64, d: f64) -> CMat {
        CMat::from_rows(2, 2, &[Cx::real(a), Cx::real(b), Cx::real(c), Cx::real(d)])
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let i = CMat::identity(2);
        assert_eq!(a.mul_mat(&i), a);
        assert_eq!(i.mul_mat(&a), a);
    }

    #[test]
    fn mul_mat_known_product() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(5.0, 6.0, 7.0, 8.0);
        assert_eq!(a.mul_mat(&b), m22(19.0, 22.0, 43.0, 50.0));
    }

    #[test]
    fn hermitian_conjugates_and_transposes() {
        let a = CMat::from_rows(1, 2, &[Cx::new(1.0, 2.0), Cx::new(3.0, -4.0)]);
        let h = a.hermitian();
        assert_eq!(h.rows(), 2);
        assert_eq!(h.cols(), 1);
        assert_eq!(h[(0, 0)], Cx::new(1.0, -2.0));
        assert_eq!(h[(1, 0)], Cx::new(3.0, 4.0));
        // (A*)* = A
        assert_eq!(h.hermitian(), a);
    }

    #[test]
    fn mul_vec_matches_mul_mat() {
        let a = m22(1.0, -1.0, 2.0, 0.5);
        let x = vec![Cx::new(1.0, 1.0), Cx::new(0.0, -2.0)];
        let as_mat = CMat::from_rows(2, 1, &x);
        let via_mat = a.mul_mat(&as_mat);
        let via_vec = a.mul_vec(&x);
        assert_eq!(via_vec[0], via_mat[(0, 0)]);
        assert_eq!(via_vec[1], via_mat[(1, 0)]);
    }

    #[test]
    fn mul_vec_into_matches_mul_vec_bitwise() {
        let a = CMat::from_rows(
            2,
            3,
            &[
                Cx::new(1.0, 0.3),
                Cx::new(-2.0, 1.1),
                Cx::new(0.7, -0.2),
                Cx::new(3.0, 0.0),
                Cx::new(0.1, -1.4),
                Cx::new(-0.6, 0.9),
            ],
        );
        let x = vec![Cx::new(0.2, -0.5), Cx::new(1.3, 0.4), Cx::new(-0.9, 2.0)];
        let want = a.mul_vec(&x);
        let mut got = vec![Cx::ZERO; 2];
        a.mul_vec_into(&x, &mut got);
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(
                (w.re.to_bits(), w.im.to_bits()),
                (g.re.to_bits(), g.im.to_bits())
            );
        }
    }

    #[test]
    fn mul_vec_hermitian_into_matches_materialised_hermitian_bitwise() {
        let a = CMat::from_rows(
            3,
            2,
            &[
                Cx::new(1.0, 0.3),
                Cx::new(-2.0, 1.1),
                Cx::new(0.7, -0.2),
                Cx::new(3.0, 0.0),
                Cx::new(0.1, -1.4),
                Cx::new(-0.6, 0.9),
            ],
        );
        let x = vec![Cx::new(0.2, -0.5), Cx::new(1.3, 0.4), Cx::new(-0.9, 2.0)];
        let want = a.hermitian().mul_vec(&x);
        let mut got = vec![Cx::ZERO; 2];
        a.mul_vec_hermitian_into(&x, &mut got);
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(
                (w.re.to_bits(), w.im.to_bits()),
                (g.re.to_bits(), g.im.to_bits())
            );
        }
    }

    #[test]
    fn mul_vec_hermitian_into_bit_identical_to_scalar_twin_across_nt_1_to_64() {
        // Square and tall shapes cover every tail remainder of the lane
        // kernel, including the all-tail shapes below four columns.
        for nt in 1..=64usize {
            for (rows, cols) in [(nt, nt), (nt + 3, nt)] {
                let mut rng = StdRng::seed_from_u64(1000 + nt as u64);
                let a = CMat::from_fn(rows, cols, |_, _| rng.cx_normal(1.0));
                let mut rng = StdRng::seed_from_u64(3000 + nt as u64);
                let x: Vec<Cx> = (0..rows).map(|_| rng.cx_normal(1.0)).collect();
                let mut want = vec![Cx::ZERO; cols];
                let mut got = vec![Cx::ZERO; cols];
                a.mul_vec_hermitian_into_scalar(&x, &mut want);
                a.mul_vec_hermitian_into(&x, &mut got);
                for (w, g) in want.iter().zip(&got) {
                    assert_eq!(
                        (w.re.to_bits(), w.im.to_bits()),
                        (g.re.to_bits(), g.im.to_bits()),
                        "mul_vec_hermitian {rows}x{cols}"
                    );
                }
            }
        }
    }

    #[test]
    fn gram_is_hermitian_psd() {
        let a = CMat::from_rows(
            3,
            2,
            &[
                Cx::new(1.0, 0.5),
                Cx::new(0.0, -1.0),
                Cx::new(2.0, 0.0),
                Cx::new(1.0, 1.0),
                Cx::new(-1.0, 0.25),
                Cx::new(0.5, -0.5),
            ],
        );
        let g = a.gram();
        assert_eq!(g.max_abs_diff(&g.hermitian()), 0.0);
        // Diagonal of a Gram matrix is real and non-negative.
        for i in 0..2 {
            assert!(g[(i, i)].im.abs() < 1e-15);
            assert!(g[(i, i)].re >= 0.0);
        }
    }

    #[test]
    fn permute_cols_permutes() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let p = a.permute_cols(&[1, 0]);
        assert_eq!(p, m22(2.0, 1.0, 4.0, 3.0));
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permute_cols_rejects_duplicates() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let _ = a.permute_cols(&[0, 0]);
    }

    #[test]
    fn dot_is_conjugate_linear() {
        let a = vec![Cx::new(1.0, 1.0)];
        let b = vec![Cx::new(0.0, 1.0)];
        // ⟨a,b⟩ = (1+i)·(−i) = 1 − i
        assert_eq!(dot(&a, &b), Cx::new(1.0, -1.0));
        // ⟨v,v⟩ = ‖v‖² (real).
        let v = vec![Cx::new(3.0, -4.0), Cx::new(1.0, 2.0)];
        let d = dot(&v, &v);
        assert!((d.re - norm_sqr(&v)).abs() < 1e-12);
        assert!(d.im.abs() < 1e-12);
    }

    #[test]
    fn vector_helpers() {
        let a = vec![Cx::real(3.0), Cx::real(4.0)];
        assert_eq!(norm_sqr(&a), 25.0);
        let b = vec![Cx::real(1.0), Cx::real(1.0)];
        assert_eq!(dist_sqr(&a, &b), 4.0 + 9.0);
    }

    #[test]
    fn fro_norm() {
        let a = m22(3.0, 0.0, 0.0, 4.0);
        assert_eq!(a.fro_norm(), 5.0);
    }

    #[test]
    fn row_and_col_access() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        assert_eq!(a.row(1), &[Cx::real(3.0), Cx::real(4.0)]);
        assert_eq!(a.col(0), vec![Cx::real(1.0), Cx::real(3.0)]);
        let mut b = a.clone();
        b.set_col(1, &[Cx::real(9.0), Cx::real(8.0)]);
        assert_eq!(b[(0, 1)], Cx::real(9.0));
        assert_eq!(b[(1, 1)], Cx::real(8.0));
    }
}
